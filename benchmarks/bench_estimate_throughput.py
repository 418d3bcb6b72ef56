"""Infrastructure benchmark — estimator throughput on the compiled IR.

Tracks the estimation backend (:mod:`repro.estimate`) the same way
``bench_sim_throughput.py`` tracks the simulators: whole-netlist
signal-probability and transition-density passes on the 16x16 array
multiplier, measured with pytest-benchmark statistics.  Two kinds of
row:

* warm (``estimate-probability``, ``estimate-density``): the circuit is
  compiled once up front, so each timed call is the pass alone.  The
  reference (seed) implementations run alongside so the
  loop/reference speedup is part of the committed trajectory;
* first call (``estimate-probability-first``,
  ``estimate-density-first``): every round builds a fresh array16 in
  untimed setup and times the first estimate on it — compile plus
  pass, which is what a command pays.

``benchmarks/run_benchmarks.py`` folds these medians into
``BENCH_sim.json``, which ``repro bench report --diff`` gates, so an
estimator regression fails CI like a simulator regression does.
"""

import pytest

from repro.circuits.multipliers import build_multiplier_circuit
from repro.estimate.density import transition_densities
from repro.estimate.probability import signal_probabilities
from repro.estimate.reference import (
    signal_probabilities_reference,
    transition_densities_reference,
)

_PASSES = {
    "probability": signal_probabilities,
    "density": transition_densities,
    "probability-reference": signal_probabilities_reference,
    "density-reference": transition_densities_reference,
}


@pytest.fixture(scope="module")
def array16():
    circuit, _ = build_multiplier_circuit(16, "array")
    # Warm the compile memo: the estimators share the simulators'
    # compiled IR, so a process measuring throughput never pays the
    # one-time compile inside the timed region.
    signal_probabilities(circuit, 0.5)
    return circuit


@pytest.mark.parametrize(
    "estimator",
    ["probability", "density", "probability-reference",
     "density-reference"],
)
def test_estimate_throughput_array16(benchmark, array16, estimator):
    fn = _PASSES[estimator]
    result = benchmark(fn, array16, 0.5)
    assert len(result) > 500  # whole-netlist map, not a stub


#: Fresh circuits per first-call row (each round builds one, untimed).
FIRST_CALL_ROUNDS = 20


@pytest.mark.parametrize("estimator", ["probability", "density"])
def test_estimate_first_call_array16(benchmark, estimator):
    def fresh_circuit():
        circuit, _ = build_multiplier_circuit(16, "array")
        return (circuit, 0.5), {}

    result = benchmark.pedantic(
        _PASSES[estimator], setup=fresh_circuit,
        rounds=FIRST_CALL_ROUNDS, iterations=1,
    )
    assert len(result) > 500
