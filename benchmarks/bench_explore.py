"""Infrastructure benchmark — design-space exploration throughput.

Measures candidates evaluated per second on the 8-bit ripple-carry
adder's default transform space for the two search regimes, which
differ only in strategy:

* ``sim-everything`` — exhaustive search: every unique candidate pays
  a glitch-exact simulation (the oracle baseline);
* ``estimate-pruned`` — beam search: only the estimate-surviving
  frontier is simulated.

Both run on a circuit object explored once beforehand, so transform
results come from the per-parent memo and the timed region measures
estimation, pruning and simulation.  The per-candidate speedup of the
estimate-pruned regime is the whole point of the subsystem, so it is
part of the committed perf trajectory: ``benchmarks/run_benchmarks.py``
folds both medians into ``BENCH_sim.json`` and the ``repro bench
report --diff`` gate fails CI on regression like any simulator or
estimator workload.
"""

import pytest

from repro.circuits.adders import build_rca_circuit
from repro.explore.search import explore

_N_VECTORS = 60
_STRATEGY = {
    "sim-everything": "exhaustive",
    "estimate-pruned": "beam",
}
#: Unique candidates in rca8's default space after fingerprint dedup.
#: run_benchmarks.py divides the median by this to get candidates/s —
#: the assertion below keeps the two in lockstep, so a change to the
#: default space cannot silently mis-scale the committed trajectory.
N_CANDIDATES = 10


@pytest.fixture(scope="module")
def rca8():
    circuit, _ = build_rca_circuit(8, with_cin=False)
    # Warm the compile, fingerprint and transform memos so the timed
    # region measures search work, not one-time setup.
    explore(circuit, strategy="beam", n_vectors=4)
    return circuit


@pytest.mark.parametrize("mode", ["sim-everything", "estimate-pruned"])
def test_explore_throughput_rca8(benchmark, rca8, mode):
    result = benchmark(
        explore, rca8, strategy=_STRATEGY[mode], n_vectors=_N_VECTORS
    )
    assert len(result.candidates) == N_CANDIDATES
    assert any(c.on_front for c in result.candidates)
    if mode == "estimate-pruned":
        assert result.n_simulated < len(
            [c for c in result.candidates if c.feasible]
        )
