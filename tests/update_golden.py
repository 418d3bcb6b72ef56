"""Rewrite ``tests/golden/`` from the current tree.

Usage (from the repository root)::

    PYTHONPATH=src python tests/update_golden.py            # every case
    PYTHONPATH=src python tests/update_golden.py fig5 ...   # names containing these

Run it only when a change is meant to move a printed number, and say in
the change which numbers moved and why the new ones are right; never to
make a failing golden test pass. Run it with numpy installed, so the
vector case is written too.
"""

from __future__ import annotations

import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))

from test_golden import CASES, GOLDEN_DIR, run_case  # noqa: E402


def main(patterns: list) -> int:
    GOLDEN_DIR.mkdir(exist_ok=True)
    for case in sorted(CASES):
        if patterns and not any(p in case for p in patterns):
            continue
        with tempfile.TemporaryDirectory() as tmp:
            text = run_case(CASES[case], tmp)
        (GOLDEN_DIR / f"{case}.txt").write_text(text)
        print(f"wrote golden/{case}.txt ({len(text.splitlines())} lines)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
