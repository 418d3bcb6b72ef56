"""Infrastructure benchmark — the netlist layers of a cold ``analyze``.

A cold ``analyze --circuit farm16`` builds the ~100k-cell netlist,
compiles it under the delay model and fingerprints it for the result
store before the kernel runs.  Each of those layers gets one row here,
on a fresh circuit per round (built in untimed setup where the row is
not the build itself), so a memo hit can never stand in for the work:

* ``test_netlist_build_farm16`` — ``build_named_circuit("farm16")``;
* ``test_compile_farm16`` — a delay-resolved compile (unit delay);
* ``test_fingerprint_farm16`` — the circuit and delay fingerprints of
  a compiled circuit, as the store computes its key.

``benchmarks/run_benchmarks.py`` folds the medians into
``BENCH_sim.json`` as ``netlist-build/farm16``, ``compile/farm16`` and
``fingerprint/farm16``.
"""

from repro.circuits.catalog import build_named_circuit
from repro.netlist.compiled import compile_circuit, delay_fingerprint
from repro.sim.delays import UnitDelay

#: Shape of the timed netlist; run_benchmarks.py quotes it in the rows.
N_CELLS = 100_192
ROUNDS = 3


def _fresh():
    circuit, _ = build_named_circuit("farm16")
    return (circuit,), {}


def _fresh_compiled():
    circuit, _ = build_named_circuit("farm16")
    compile_circuit(circuit, UnitDelay())
    return (circuit,), {}


def test_netlist_build_farm16(benchmark):
    circuit, _ = benchmark.pedantic(
        build_named_circuit, args=("farm16",), rounds=ROUNDS, iterations=1
    )
    assert len(circuit.cells) == N_CELLS


def test_compile_farm16(benchmark):
    cc = benchmark.pedantic(
        lambda circuit: compile_circuit(circuit, UnitDelay()),
        setup=_fresh, rounds=ROUNDS,
    )
    assert len(cc.cell_kinds) == N_CELLS and cc.max_delay == 1


def test_fingerprint_farm16(benchmark):
    def fingerprints(circuit):
        return circuit.fingerprint(), delay_fingerprint(circuit, UnitDelay())

    circuit_fp, delay_fp = benchmark.pedantic(
        fingerprints, setup=_fresh_compiled, rounds=ROUNDS
    )
    assert circuit_fp != delay_fp
