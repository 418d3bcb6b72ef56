"""Start-up benchmark — what a fresh ``repro`` process pays.

Every row spawns a fresh interpreter per round and reports the median
of its rounds (:func:`rounds`), so it measures the import graph the way
a user meets it, never a warm module cache:

* ``import-cli`` — ``python -c "import repro.cli"``, the floor under
  every command (and under ``--help``);
* ``estimate-array16`` — ``repro estimate --circuit array16``, a
  command that never simulates and so never loads numpy;
* ``experiment-fig5`` — ``repro experiment fig5``, a paper experiment
  that simulates on the vector tier and so does load numpy;
* ``analyze-farm16-cold`` — ``repro analyze --circuit farm16`` into a
  fresh result store each round: the whole cold path of a 100k-cell
  netlist (build, fingerprints, compile, grouping, kernel, store
  write).  It runs in its own process because the in-process rows run
  with the garbage collector off (``--benchmark-disable-gc``), and the
  full collections this path's allocations trigger are part of what a
  user waits for.

Every row imports ``src/repro`` from bytecode: the tree is
byte-compiled once, before the first timed round.  A spawned
interpreter reads that bytecode even when the caller sets
``PYTHONDONTWRITEBYTECODE`` (which only stops it writing any), so a row
times the same thing whatever that setting and whether or not the tree
was run before.

``benchmarks/run_benchmarks.py`` folds the medians into
``BENCH_sim.json`` as ``startup/<row>``, where CI's same-runner
``--diff`` gate catches a change that brings back an eager import.
"""

import compileall
import os
import shlex
import subprocess
import sys
from itertools import count
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"
SPAWNS = 10
#: ``{store}`` in a command is a fresh, empty result store per round.
COMMANDS = {
    "import-cli": ["-c", "import repro.cli"],
    "estimate-array16": ["-m", "repro.cli", "estimate", "--circuit", "array16"],
    "experiment-fig5": ["-m", "repro.cli", "experiment", "fig5"],
    "analyze-farm16-cold": [
        "-m", "repro.cli", "analyze", "--circuit", "farm16", "--cache", "{store}",
    ],
}
#: Rows that take seconds a round run fewer than :data:`SPAWNS` rounds.
ROUNDS = {"analyze-farm16-cold": 3}


def rounds(row: str) -> int:
    """How many fresh processes a row's median is taken over."""
    return ROUNDS.get(row, SPAWNS)


def describe(row: str) -> str:
    """The command line a row times, for the ledger."""
    argv = [arg.replace("{store}", "<fresh store>") for arg in COMMANDS[row]]
    return shlex.join(["python", *argv])


@pytest.fixture(scope="module")
def bytecode():
    """Byte-compile ``src/repro`` once, before the first row's rounds."""
    compileall.compile_dir(SRC / "repro", quiet=1)


@pytest.mark.usefixtures("bytecode")
@pytest.mark.parametrize("row", list(COMMANDS))
def test_startup(benchmark, row, tmp_path):
    # The defaults are what is timed: no tracing, and no result store
    # unless the row names a fresh one.
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])
    )
    stores = count()

    def spawn():
        store = str(tmp_path / f"store{next(stores)}")
        argv = [sys.executable, *(a.replace("{store}", store) for a in COMMANDS[row])]
        return subprocess.run(argv, env=env, stdout=subprocess.DEVNULL).returncode

    assert benchmark.pedantic(spawn, rounds=rounds(row), iterations=1) == 0
