"""Infrastructure benchmark — the vector engine's batch-size sweep.

The glitch-exact vector engine holds one batch's waveform as an
``(n_nets, W, words)`` ``uint64`` array, one 64-cycle word per row.
Larger batches mean fewer numpy calls per cycle but a larger array, so
the batch size trades kernel time against memory.  This sweep times
``VectorBackend.run`` (unit delay) over one uniform stream per circuit
at several explicit batch sizes, plus the size the engine's rule picks
(``rule``, :func:`repro.sim.vector.batch_cycles_for`), and records
each size's waveform bytes:

* ``rca16``, ``array8``, ``array16``, ``wallace16`` at 2000 vectors —
  the circuits and stream length of a sweep-catalog point;
* ``array32`` and ``array48`` at 2000 vectors — mid-size circuits,
  whose waveform at 256 cycles is 6 and 20 MB;
* ``farm16`` at 500 vectors — the ~100k-cell netlist, whose waveform
  is 145 MB at 256 cycles (larger sizes are left out);
* ``mac16`` at 2000 vectors — a multiply-accumulate unit whose
  accumulator register closes a loop through the adder, so the settle
  fixpoint iterates once per cycle of a batch.

``benchmarks/run_benchmarks.py`` folds the medians into
``BENCH_sim.json`` as ``batch-size/<circuit>@<size>``, each row with
its ``batch_cycles`` and ``waveform_bytes``.  The rule's two sizes,
:data:`repro.sim.vector.BATCH_BUDGET` and
:data:`~repro.sim.vector.BATCH_CAP`, are read off these rows.
"""

from functools import lru_cache

import pytest

from repro.circuits.catalog import build_named_circuit
from repro.circuits.datapath import mac_unit
from repro.sim.vector import numpy_available
from repro.sim.vectors import UniformStimulus, WordStimulus

#: circuit -> (vectors, explicit batch sizes, timed rounds).
CASES = {
    "rca16": (2000, (64, 256, 2048), 3),
    "array8": (2000, (64, 256, 2048), 3),
    "array16": (2000, (64, 256, 2048), 3),
    "wallace16": (2000, (64, 256, 2048), 3),
    "array32": (2000, (64, 128, 256), 3),
    "array48": (2000, (64, 128, 256), 3),
    "mac16": (2000, (64, 256, 2048), 3),
    "farm16": (500, (128, 256), 1),
}
ROWS = [
    (circuit, size)
    for circuit, (_, sizes, _) in CASES.items()
    for size in ("rule", *sizes)
]


@lru_cache(maxsize=1)
def _workload(circuit: str):
    if circuit == "mac16":
        netlist, ports = mac_unit(16, coefficient=3)
        stim = WordStimulus({"x": ports["x"]})
    else:
        netlist, stim = build_named_circuit(circuit)
    n_vectors = CASES[circuit][0]
    return netlist, UniformStimulus(seed=1995).vectors(stim, n_vectors + 1)


@pytest.mark.parametrize("circuit,size", ROWS)
def test_batch_size(benchmark, circuit, size):
    if not numpy_available():
        pytest.skip("vector backend needs the [perf] extra (numpy)")
    from repro.sim.vector import VectorBackend

    netlist, stream = _workload(circuit)
    backend = VectorBackend(
        netlist, batch_cycles=None if size == "rule" else size
    )
    batch = min(backend.batch_cycles, len(stream) - 1)
    words = (batch + 63) // 64
    benchmark.extra_info["batch_cycles"] = backend.batch_cycles
    benchmark.extra_info["waveform_bytes"] = (
        backend._cc.n_nets * backend._W * words * 8
    )
    stats = benchmark.pedantic(
        backend.run, args=(stream,), rounds=CASES[circuit][2], iterations=1
    )
    assert stats.cycles == len(stream) - 1
