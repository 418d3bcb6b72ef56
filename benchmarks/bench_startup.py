"""Start-up benchmark — what a fresh ``repro`` process pays.

Every row spawns a fresh interpreter per round and reports the median
of ``SPAWNS`` rounds, so it measures the import graph the way a user
meets it, never a warm module cache:

* ``import-cli`` — ``python -c "import repro.cli"``, the floor under
  every command (and under ``--help``);
* ``estimate-array16`` — ``repro estimate --circuit array16``, a
  command that never simulates and so never loads numpy;
* ``experiment-fig5`` — ``repro experiment fig5``, a paper experiment
  that simulates on the vector tier and so does load numpy.

``benchmarks/run_benchmarks.py`` folds the medians into
``BENCH_sim.json`` as ``startup/<row>``, where CI's same-runner
``--diff`` gate catches a change that brings back an eager import.
"""

import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"
SPAWNS = 10
COMMANDS = {
    "import-cli": ["-c", "import repro.cli"],
    "estimate-array16": ["-m", "repro.cli", "estimate", "--circuit", "array16"],
    "experiment-fig5": ["-m", "repro.cli", "experiment", "fig5"],
}


def describe(row: str) -> str:
    """The command line a row times, for the ledger."""
    return shlex.join(["python", *COMMANDS[row]])


@pytest.mark.parametrize("row", list(COMMANDS))
def test_startup(benchmark, row):
    # The defaults are what is timed: no result store, no tracing.
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])
    )
    argv = [sys.executable, *COMMANDS[row]]

    def spawn():
        return subprocess.run(argv, env=env, stdout=subprocess.DEVNULL).returncode

    assert benchmark.pedantic(spawn, rounds=SPAWNS, iterations=1) == 0
