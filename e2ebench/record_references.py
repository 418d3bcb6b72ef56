"""Record the reference outputs the benchmark checks its runs against.

Usage, from the repository root::

    python3 e2ebench/record_references.py --seeds 0-31

Runs each workload's cold pass once per seed and stores the checked
part of its output in ``e2ebench/references.json``, together with the
commit and environment it was recorded with.  Existing entries for
other seeds are kept.  Record only from a commit whose outputs are
known to be right: every later run is compared against this file.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile

sys.path.append(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from e2ebench import harness  # noqa: E402
from e2ebench.workloads import REFERENCES, WORKLOADS, load_references  # noqa: E402


def parse_seeds(text: str):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", required=True, help="e.g. 0-31 or 1,5,9")
    args = parser.parse_args()
    refs = load_references()
    os.makedirs(harness.SCRATCH, exist_ok=True)
    run_dir = tempfile.mkdtemp(prefix="record-", dir=harness.SCRATCH)
    try:
        env = harness.child_env(run_dir)
        refs["recorded_with"] = harness.environment(env, tempfile.mkdtemp(dir=run_dir))
        for name, workload in sorted(WORKLOADS.items()):
            for seed in parse_seeds(args.seeds):
                store = tempfile.mkdtemp(prefix="store-", dir=run_dir)
                cold = workload.passes(seed, store)[0]
                done = harness.run_command(
                    harness.cli_argv(cold.args), env, tempfile.mkdtemp(dir=run_dir)
                )
                parsed = workload.parse(done.stdout)
                if done.returncode != 0 or parsed is None:
                    print(done.stderr, file=sys.stderr)
                    raise SystemExit(f"{name} seed {seed}: exit {done.returncode}")
                refs.setdefault(name, {})[str(seed)] = workload.reference_of(parsed)
                shutil.rmtree(store, ignore_errors=True)
                print(f"{name} seed {seed}: {done.wall_s:.2f}s", flush=True)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    with open(REFERENCES, "w", encoding="utf-8") as fh:
        fh.write(format_references(refs))
    return 0


def format_references(refs) -> str:
    """JSON with one line per workload seed, so the file diffs per seed."""
    blocks = []
    for key in sorted(refs):
        value = refs[key]
        if key == "recorded_with":
            blocks.append(f" {json.dumps(key)}: {json.dumps(value, sort_keys=True)}")
            continue
        seeds = ",\n".join(
            f"  {json.dumps(seed)}: {json.dumps(value[seed], sort_keys=True)}"
            for seed in sorted(value, key=int)
        )
        blocks.append(f" {json.dumps(key)}: {{\n{seeds}\n }}")
    return "{\n" + ",\n".join(blocks) + "\n}\n"


if __name__ == "__main__":
    sys.exit(main())
