"""Golden outputs: the headline commands print the committed bytes.

Each case runs one or more CLI commands in process through
:func:`repro.cli.main` and compares their stdout with
``tests/golden/<case>.txt``. Store paths are masked as ``<tmp>``, job
ids as ``<job>`` and elapsed seconds as ``<secs>``; everything else must
match byte for byte, so a change that moves any printed number fails
here with a unified diff.

Rewrite the files with ``PYTHONPATH=src python tests/update_golden.py``
only when a change is meant to move a number, and say in the change
which numbers moved and why the new ones are right.
"""

from __future__ import annotations

import contextlib
import difflib
import io
import re
from pathlib import Path
from typing import Dict, List

import pytest

from repro.cli import main

GOLDEN_DIR = Path(__file__).with_name("golden")

_ARRAY8 = ["analyze", "--circuit", "array8", "--vectors", "200"]

#: case name -> command steps, run in order in one temporary directory.
#: ``{tmp}`` in an argument is that directory; a step ending in
#: ``">", path`` writes its stdout to *path* instead of the output.
CASES: Dict[str, List[List[str]]] = {
    **{
        f"experiment-{name}": [["experiment", name]]
        for name in (
            "fig5", "table1", "table2", "sec42", "table3", "adders",
            "ablation", "frontier",
        )
    },
    "analyze-array8-event": [_ARRAY8 + ["--backend", "event"]],
    "analyze-array8-lanes": [_ARRAY8 + ["--backend", "lanes"]],
    "analyze-array8-vector": [_ARRAY8 + ["--backend", "vector"]],
    "analyze-array8-event-sumcarry": [
        _ARRAY8 + ["--backend", "event", "--delay", "sumcarry"]
    ],
    "analyze-rca16-event-sumcarry": [[
        "analyze", "--circuit", "rca16", "--backend", "event",
        "--delay", "sumcarry", "--vectors", "300",
    ]],
    # The settled mode on ``auto``: its title is the delay model's on
    # every engine, so the numpy and the numpy-free runs print one file.
    "analyze-rca16-delay-zero": [[
        "analyze", "--circuit", "rca16", "--vectors", "300",
        "--delay", "zero", "--estimate",
    ]],
    # Cold into a fresh store, then served from it (columnar decode).
    "analyze-array8-cache": [_ARRAY8 + ["--cache", "{tmp}/store"]] * 2,
    "balance-rca8": [["balance", "--circuit", "rca8", "--vectors", "60"]],
    "estimate-array16": [["estimate", "--circuit", "array16"]],
    "estimate-detector-correlated": [
        ["estimate", "--circuit", "detector", "--stimulus", "correlated"]
    ],
    "explore-rca8-exhaustive": [
        ["explore", "--circuit", "rca8", "--strategy", "exhaustive"]
    ],
    "explore-array8-sumcarry": [[
        "explore", "--circuit", "array8", "--delay", "sumcarry",
        "--max-depth", "2", "--vectors", "60",
    ]],
    "export-rca4-json": [["export", "--circuit", "rca4", "--format", "json"]],
    # The bulk loader: the exported JSON read back and analyzed.
    "import-rca4": [
        ["export", "--circuit", "rca4", "--format", "json",
         ">", "{tmp}/rca4.json"],
        ["import", "{tmp}/rca4.json", "--vectors", "200"],
    ],
    # A cold sweep into a fresh store, then one that hits two points.
    "submit-rca-cache": [
        ["submit", "--cache", "{tmp}/store", "--sweep", "circuit=rca4,rca8",
         "--vectors", "100"],
        ["submit", "--cache", "{tmp}/store",
         "--sweep", "circuit=rca4,rca8,rca12", "--vectors", "100"],
    ],
    # Candidate simulations into a fresh store, then the whole-result hit.
    "explore-rca8-cache": [
        ["explore", "--circuit", "rca8", "--vectors", "60",
         "--cache", "{tmp}/store"],
    ] * 2,
    # Candidates shipped to two pool workers as circuit JSON.
    "explore-rca8-jobs2": [
        ["explore", "--circuit", "rca8", "--vectors", "60", "--jobs", "2"]
    ],
    "estimate-array8-cache": [
        ["estimate", "--circuit", "array8", "--cache", "{tmp}/store"]
    ] * 2,
    # Pooled points with estimate rows; an estimate key is shared by seeds.
    "submit-estimate-jobs2": [[
        "submit", "--jobs", "2", "--cache", "{tmp}/store",
        "--sweep", "circuit=rca4,rca8", "--sweep", "seed=1,2",
        "--sweep", "estimate=0,1", "--vectors", "100",
    ]],
    "analyze-array8-shards": [_ARRAY8 + ["--shards", "3", "--jobs", "2"]],
    # The settled mode by delay name: the zero row counts the unit
    # row's useful transitions and nothing useless.
    "submit-rca8-delay-zero": [[
        "submit", "--circuit", "rca8", "--vectors", "200",
        "--sweep", "delay=unit,zero", "--backend", "lanes",
    ]],
    "import-rca4-cache": [
        ["export", "--circuit", "rca4", "--format", "json",
         ">", "{tmp}/rca4.json"],
        ["import", "{tmp}/rca4.json", "--vectors", "200",
         "--cache", "{tmp}/store"],
        ["import", "{tmp}/rca4.json", "--vectors", "200",
         "--cache", "{tmp}/store"],
    ],
}

#: Cases that name the numpy engine explicitly.
NEEDS_NUMPY = {"analyze-array8-vector"}


def mask(text: str, tmp: str) -> str:
    """*text* with the run-dependent parts replaced by placeholders."""
    text = text.replace(tmp, "<tmp>")
    text = re.sub(r"\bjob-\d+-[0-9a-f]+\b", "<job>", text)
    return re.sub(r"\bin \d+\.\d+s\b", "in <secs>", text)


def run_case(steps: List[List[str]], tmp: str) -> str:
    """The masked stdout of running *steps* in the directory *tmp*."""
    out = io.StringIO()
    for step in steps:
        argv = [arg.replace("{tmp}", tmp) for arg in step]
        target = None
        if ">" in argv:
            argv, target = argv[:argv.index(">")], argv[-1]
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            status = main(argv)
        if status != 0:
            raise AssertionError(f"{argv} exited {status}")
        if target is None:
            out.write(buf.getvalue())
        else:
            Path(target).write_text(buf.getvalue())
    return mask(out.getvalue(), tmp)


@pytest.mark.parametrize("case", sorted(CASES))
def test_golden_output(case: str, tmp_path: Path) -> None:
    if case in NEEDS_NUMPY:
        from repro.sim.backends import numpy_available

        if not numpy_available():
            pytest.skip("the vector engine needs numpy")
    expected = (GOLDEN_DIR / f"{case}.txt").read_text()
    got = run_case(CASES[case], str(tmp_path))
    if got != expected:
        diff = "".join(difflib.unified_diff(
            expected.splitlines(keepends=True),
            got.splitlines(keepends=True),
            f"golden/{case}.txt", "output",
        ))
        pytest.fail(f"{case} printed different bytes:\n{diff}", pytrace=False)


def test_warm_explore_prints_the_cold_tables(tmp_path: Path) -> None:
    """A whole-result cache hit prints the cold run's tables byte for
    byte; only the ``[cache]`` line differs."""
    step = CASES["explore-rca8-cache"][0]
    cold = run_case([step], str(tmp_path)).splitlines()
    warm = run_case([step], str(tmp_path)).splitlines()
    assert cold[-1].startswith("[cache] 0 hit(s)")
    assert warm[-1].startswith("[cache] 1 hit(s), 0 miss(es)")
    assert warm[:-1] == cold[:-1]
