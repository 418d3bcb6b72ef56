"""Infrastructure benchmark — raw simulation throughput per backend.

Not a paper artefact: these actually use pytest-benchmark's statistics
(multiple rounds) to track simulator speed on the array multipliers,
the heaviest netlists in the reproduction.

* ``test_sim_throughput_array16`` is the historical series (event-driven
  engine, 16x16, 20 cycles) — its trajectory shows the effect of the
  compiled-IR / timing-wheel work on the hot loop.
* ``test_sim_throughput_backends`` parametrizes the same workload over
  the pure-Python engines — event-driven (``event``) and the lanes
  engine in glitch mode (``lanes``) and in zero-delay mode
  (``lanes-zero``) — and adds a 32x32 case, so backend wins are
  tracked per size.
* ``test_sim_throughput_vector`` measures the numpy tier (the
  ``[perf]`` extra) on 256-cycle streams — long enough to amortize
  per-run setup, which is the regime it exists for.  Cross-engine
  comparisons use ``cycles_per_s``, so the differing cycle counts don't
  skew the speedup columns.
* ``test_sim_throughput_farm`` runs the ≥100k-cell ``farm16`` stress
  workload through the vector backend, glitch-exact.
* ``test_sweep_point_array16`` times what one simulate point of a
  catalog sweep does after building its circuit: draw a
  ``UniformStimulus`` stream of 2000 vectors and run it through
  ``ActivityRun`` on the ``auto`` backend.

``benchmarks/run_benchmarks.py`` runs this module through
pytest-benchmark's JSON export and refreshes the committed
``BENCH_sim.json`` trajectory at the repo root.
"""

import random

import pytest

from repro.circuits.multipliers import build_multiplier_circuit
from repro.core.activity import ActivityRun
from repro.sim.delays import ZeroDelay
from repro.sim.engine import Simulator
from repro.sim.vector import numpy_available
from repro.sim.vectors import WordStimulus

FARM_CYCLES = 20
SWEEP_POINT_CYCLES = 2000

#: Row name -> (backend, delay model) of the parametrized engine rows.
ENGINES = {
    "event": ("event", None),
    "lanes": ("lanes", None),
    "lanes-zero": ("lanes", ZeroDelay()),
}


def _workload(n_bits: int, n_cycles: int):
    circuit, ports = build_multiplier_circuit(n_bits, "array")
    stim = WordStimulus({"x": ports["x"], "y": ports["y"]})
    rng = random.Random(42)
    vectors = [dict(v) for v in stim.random(rng, n_cycles + 1)]
    return circuit, vectors


def test_sim_throughput_array16(benchmark):
    circuit, vectors = _workload(16, 20)

    def run_20_cycles():
        sim = Simulator(circuit)
        sim.settle(vectors[0])
        total = 0
        for vec in vectors[1:]:
            total += sim.step(vec).total_toggles()
        return total

    total = benchmark(run_20_cycles)
    assert total > 0


@pytest.mark.parametrize("n_bits,n_cycles", [(16, 20), (32, 10)])
@pytest.mark.parametrize("backend", list(ENGINES))
def test_sim_throughput_backends(benchmark, n_bits, n_cycles, backend):
    circuit, vectors = _workload(n_bits, n_cycles)
    name, delay_model = ENGINES[backend]
    run = ActivityRun(circuit, delay_model=delay_model, backend=name)

    def simulate():
        return run.run(iter(vectors)).total_transitions

    total = benchmark.pedantic(simulate, rounds=3, iterations=1)
    assert total > 0


@pytest.mark.parametrize("n_bits,n_cycles", [(16, 256), (32, 256)])
def test_sim_throughput_vector(benchmark, n_bits, n_cycles):
    if not numpy_available():
        pytest.skip("vector backend needs the [perf] extra (numpy)")
    circuit, vectors = _workload(n_bits, n_cycles)
    run = ActivityRun(circuit, backend="vector")
    run.run(iter(vectors))  # warm the per-circuit compiled plan

    def simulate():
        return run.run(iter(vectors)).total_transitions

    total = benchmark.pedantic(simulate, rounds=3, iterations=1)
    assert total > 0


def test_sim_throughput_farm(benchmark):
    if not numpy_available():
        pytest.skip("vector backend needs the [perf] extra (numpy)")
    from repro.circuits.catalog import build_named_circuit
    from repro.sim.vectors import UniformStimulus

    circuit, stim = build_named_circuit("farm16")
    vectors = [
        dict(v) for v in UniformStimulus(seed=42).vectors(stim, FARM_CYCLES + 1)
    ]
    run = ActivityRun(circuit, backend="vector")
    run.run(iter(vectors))  # warm the compile + plan caches

    def simulate():
        return run.run(iter(vectors)).total_transitions

    total = benchmark.pedantic(simulate, rounds=2, iterations=1)
    assert total > 0


def test_sweep_point_array16(benchmark):
    from repro.circuits.catalog import build_named_circuit
    from repro.sim.vectors import UniformStimulus

    circuit, stim = build_named_circuit("array16")
    spec = UniformStimulus(seed=1995)
    run = ActivityRun(circuit)
    run.run(spec.vectors(stim, 2))  # warm the compile + plan caches

    def point():
        vectors = spec.vectors(stim, SWEEP_POINT_CYCLES + 1)
        return run.run(vectors).total_transitions

    total = benchmark.pedantic(point, rounds=5, iterations=1)
    assert total > 0
