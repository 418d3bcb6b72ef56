"""Infrastructure benchmark — the netlist layers of a cold ``analyze``.

A cold ``analyze --circuit farm16`` builds the ~100k-cell netlist,
compiles it under the delay model and fingerprints it for the result
store before the kernel runs.  Each of those layers gets one row here,
on a fresh circuit per round (built in untimed setup where the row is
not the build itself), so a memo hit can never stand in for the work:

* ``test_netlist_build_farm16`` — ``build_named_circuit("farm16")``;
* ``test_compile_farm16`` — a delay-resolved compile (unit delay);
* ``test_fingerprint_farm16`` — the circuit and delay fingerprints of
  a compiled circuit, as the store computes its key;
* ``test_codec_put_farm16`` — ``encode_result`` plus ``put`` of one
  farm16 result into a fresh store, the cold pass's store write;
* ``test_codec_get_farm16`` — ``get`` plus ``decode_result`` of that
  entry, the warm pass's store read.

The two codec rows share one farm16 result of :data:`CODEC_VECTORS`
vectors, simulated once per session; the payload's size follows the
net count, not the vector count.

``benchmarks/run_benchmarks.py`` folds the medians into
``BENCH_sim.json`` as ``netlist-build/farm16``, ``compile/farm16``,
``fingerprint/farm16``, ``codec-put/farm16`` and ``codec-get/farm16``.
"""

import random
from functools import lru_cache
from itertools import count

from repro.circuits.catalog import build_named_circuit
from repro.core.activity import ActivityRun
from repro.netlist.compiled import compile_circuit, delay_fingerprint
from repro.service.store import (
    GLITCH_EXACT,
    ResultStore,
    RunKey,
    decode_result,
    encode_result,
)
from repro.sim.delays import UnitDelay

#: Shape of the timed netlist; run_benchmarks.py quotes it in the rows.
N_CELLS = 100_192
ROUNDS = 3
#: Measured cycles of the result the codec rows store and load.
CODEC_VECTORS = 20
CODEC_KEY = RunKey("farm16", "unit", "uniform", CODEC_VECTORS, GLITCH_EXACT)


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


@lru_cache(maxsize=1)
def _farm16_result():
    circuit, stim = build_named_circuit("farm16")
    vectors = stim.random(random.Random(1995), CODEC_VECTORS + 1)
    return circuit, ActivityRun(circuit).run(vectors)


def test_codec_put_farm16(benchmark, tmp_path):
    _, result = _farm16_result()
    stores = count()

    def fresh_store():
        return (ResultStore(tmp_path / f"store{next(stores)}"),), {}

    entry = benchmark.pedantic(
        lambda store: store.put(CODEC_KEY, encode_result(result)),
        setup=fresh_store, rounds=ROUNDS,
    )
    assert entry["summary"] == result.summary()


def test_codec_get_farm16(benchmark, tmp_path):
    circuit, result = _farm16_result()
    store = ResultStore(tmp_path)
    store.put(CODEC_KEY, encode_result(result))
    back = benchmark.pedantic(
        lambda: decode_result(store.get(CODEC_KEY), circuit), rounds=ROUNDS
    )
    assert back.per_node == result.per_node
