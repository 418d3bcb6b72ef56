"""Word-value stimulus streams and the batch driver that resolves them.

Every stimulus generator returns a :class:`WordStream` (the drawn word
values); the batch engines resolve it a batch at a time into input bit
lanes, everything else iterates its per-cycle dicts.  These tests pin
both halves to the per-cycle construction they replace:

* the stream's items equal the ``{net: bit}`` dicts the generators used
  to yield (the oracle below is that construction, inlined);
* batch-resolved lanes equal per-cycle :func:`_resolve_vector` output,
  through warm-up, resume and inputs that no word drives;
* engines, shards and the vector engine's batch rule give the same
  statistics for a stream as for its dicts.
"""

import json
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.circuits.catalog import build_named_circuit
from repro.circuits.multipliers import build_multiplier_circuit
from repro.core.activity import ActivityRun
from repro.netlist.circuit import Circuit
from repro.netlist.compiled import compile_circuit
from repro.service.runner import word_layout
from repro.service.store import encode_result
from repro.sim.backends import (
    EventDrivenBackend,
    _resolve_vector,
    input_lanes,
    run_batches,
)
from repro.sim.lanes import LanesBackend
from repro.sim.vector import numpy_available
from repro.sim.vectors import (
    BurstMarkovStimulus,
    CorrelatedStimulus,
    UniformStimulus,
    WordStimulus,
    WordStream,
    correlated_words,
)

from tests.conftest import random_dag_circuit

needs_numpy = pytest.mark.skipif(
    not numpy_available(), reason="vector backend needs numpy"
)


# ---------------------------------------------------------------------------
# The per-cycle construction the streams replace (the oracle)
# ---------------------------------------------------------------------------

def _oracle_vector(words, values):
    bits = {}
    for name, value in values.items():
        for i, net in enumerate(words[name]):
            bits[net] = (value >> i) & 1
    return bits


def _oracle_stream(spec, words, count):
    """One ``{net: bit}`` dict per cycle, drawn as the generators drew."""
    rng = random.Random(spec.seed)
    if isinstance(spec, UniformStimulus):
        return [
            _oracle_vector(words, {
                name: rng.randint(0, (1 << len(nets)) - 1)
                for name, nets in words.items()
            })
            for _ in range(count)
        ]
    if isinstance(spec, CorrelatedStimulus):
        streams = {
            name: correlated_words(
                rng, len(nets), count, spec.flip_probability
            )
            for name, nets in words.items()
        }
        return [
            _oracle_vector(words, {name: streams[name][k] for name in streams})
            for k in range(count)
        ]
    names = list(words)
    bursting = dict.fromkeys(names, False)
    value = {
        name: rng.randint(0, (1 << len(words[name])) - 1) for name in names
    }
    out = []
    for _ in range(count):
        values = {}
        for name in names:
            if bursting[name]:
                value[name] = rng.randint(0, (1 << len(words[name])) - 1)
                if rng.random() < spec.p_end:
                    bursting[name] = False
            elif rng.random() < spec.p_burst:
                bursting[name] = True
            values[name] = value[name]
        out.append(_oracle_vector(words, values))
    return out


def _word_circuit(widths, undriven=0):
    c = Circuit("words")
    words = {
        f"w{i}": c.add_input_word(f"w{i}", width)
        for i, width in enumerate(widths)
    }
    for k in range(undriven):
        c.add_input(f"u{k}")
    return c, WordStimulus(words)


_probability = st.floats(min_value=0.0, max_value=1.0)
_spec = st.one_of(
    st.builds(UniformStimulus, seed=st.integers(0, 2**32)),
    st.builds(
        CorrelatedStimulus, seed=st.integers(0, 2**32),
        flip_probability=_probability,
    ),
    st.builds(
        BurstMarkovStimulus, seed=st.integers(0, 2**32),
        p_burst=_probability, p_end=_probability,
    ),
)
_widths = st.lists(st.integers(1, 70), min_size=1, max_size=3)


@settings(max_examples=60, deadline=None)
@given(spec=_spec, widths=_widths, count=st.integers(0, 300))
def test_stream_items_equal_per_cycle_dicts(spec, widths, count):
    """Item k is exactly the dict the per-cycle generators built."""
    _, stim = _word_circuit(widths)
    stream = spec.vectors(stim, count)
    assert isinstance(stream, WordStream)
    want = _oracle_stream(spec, stim.words, count)
    got = list(stream)
    assert got == want
    assert [list(v) for v in got] == [list(v) for v in want]  # key order
    assert len(stream) == count
    if count:
        assert stream[count - 1] == want[-1]
        assert list(stream[count // 3: count // 2]) == want[count // 3: count // 2]


def test_word_stimulus_generators_share_the_spec_draws():
    _, stim = _word_circuit([5, 70])
    assert list(stim.random(random.Random(4), 30)) == list(
        UniformStimulus(seed=4).vectors(stim, 30)
    )
    assert list(stim.correlated(random.Random(4), 30, 0.3)) == list(
        CorrelatedStimulus(seed=4, flip_probability=0.3).vectors(stim, 30)
    )


def test_stream_replays():
    _, stim = _word_circuit([8, 8])
    stream = UniformStimulus(seed=9).vectors(stim, 50)
    assert list(stream) == list(stream)


# ---------------------------------------------------------------------------
# Batch resolution equals per-cycle resolution
# ---------------------------------------------------------------------------

def _pack(rows):
    """Reference packing: lane bit k of input pos = rows[k][pos]."""
    return [
        sum(row[pos] << k for k, row in enumerate(rows))
        for pos in range(len(rows[0]))
    ]


def _chunks(items, size):
    return [items[k:k + size] for k in range(0, len(items), size)]


@settings(max_examples=60, deadline=None)
@given(
    spec=_spec, widths=_widths, count=st.integers(0, 200),
    size=st.integers(1, 90), start_seed=st.integers(0, 2**16),
)
def test_input_lanes_equal_resolved_vectors(
    spec, widths, count, size, start_seed
):
    c, stim = _word_circuit(widths, undriven=2)
    inputs = tuple(c.inputs)
    input_set = frozenset(inputs)
    draw = random.Random(start_seed)
    start = [draw.randint(0, 1) for _ in inputs]
    stream = spec.vectors(stim, count)

    cur = list(start)
    rows = [_resolve_vector(v, inputs, input_set, cur) for v in stream]
    want = [(len(chunk), _pack(chunk)) for chunk in _chunks(rows, size)]

    for source in (stream, [dict(v) for v in stream]):
        current = list(start)
        got = list(input_lanes(source, inputs, input_set, current, size))
        assert got == want
        assert current == cur  # undriven inputs keep their start bits


class _RecordingEngine:
    """Batch-driver engine that records the input lanes it is handed."""

    name = "recording"

    def __init__(self, circuit, batch_cycles):
        self._cc = compile_circuit(circuit)
        self.batch_cycles = batch_cycles
        self.batches = []

    def _open(self, values, ff_state):
        self.settled = list(values)

        def step(nb, lanes):
            self.batches.append((nb, lanes))

        return step, lambda: ({}, self.settled)


@pytest.mark.parametrize("resume", [False, True])
@pytest.mark.parametrize("explicit_warmup", [False, True])
def test_driver_lanes_equal_per_cycle_resolution(resume, explicit_warmup):
    """Warm-up, resume and an undriven input: the driver hands the
    engine exactly the per-cycle resolved bits, batched."""
    c, stim = _word_circuit([6, 3], undriven=1)
    inputs = tuple(c.inputs)
    input_set = frozenset(inputs)
    undriven = inputs[-1]
    stream = BurstMarkovStimulus(seed=3, p_burst=0.3).vectors(stim, 75)
    warmup = {**stream[0], undriven: 1} if explicit_warmup else None
    initial = None
    if resume:
        initial = [0] * compile_circuit(c).n_nets
        initial[undriven] = 1
        initial[inputs[0]] = 1

    cur = [initial[n] for n in inputs] if initial else [0] * len(inputs)
    rest = list(stream)
    if warmup is not None:
        _resolve_vector(warmup, inputs, input_set, cur)
    elif initial is None:
        _resolve_vector(rest.pop(0), inputs, input_set, cur)
    rows = [_resolve_vector(v, inputs, input_set, cur) for v in rest]
    want = [(len(chunk), _pack(chunk)) for chunk in _chunks(rows, 16)]

    for source in (stream, [dict(v) for v in stream]):
        engine = _RecordingEngine(c, 16)
        run_batches(engine, source, warmup, initial, None)
        assert engine.batches == want


# ---------------------------------------------------------------------------
# Engines, shards and batch sizes see one stream
# ---------------------------------------------------------------------------

def _engines():
    engines = [LanesBackend]
    if numpy_available():
        from repro.sim.vector import VectorBackend

        engines.append(VectorBackend)
    return engines


@pytest.mark.parametrize("zero", [False, True])
@pytest.mark.parametrize("engine", _engines(), ids=lambda e: e.name)
def test_engines_equal_on_stream_and_dicts(engine, zero):
    from repro.sim.delays import ZeroDelay

    rng = random.Random(21)
    for _ in range(4):
        c = random_dag_circuit(rng, n_inputs=6, n_gates=20, with_ffs=True)
        inputs = list(c.inputs)
        stim = WordStimulus({"a": inputs[:4], "b": inputs[4:5]})  # one undriven
        stream = UniformStimulus(seed=rng.randint(0, 99)).vectors(stim, 150)
        backend = engine(c, ZeroDelay() if zero else None)
        from_stream = backend.run(stream)
        from_dicts = backend.run([dict(v) for v in stream])
        assert from_stream == from_dicts
        head = backend.run(stream[:60])
        resumed = [
            backend.run(
                source, warmup={inputs[5]: 1},
                initial_values=head.final_values,
                initial_ff_state=head.final_ff_state,
            )
            for source in (stream[60:], [dict(v) for v in stream[60:]])
        ]
        assert resumed[0] == resumed[1]


@pytest.mark.parametrize("backend", ["lanes", "vector", "event"])
def test_sharded_stream_is_byte_identical(backend):
    if backend == "vector" and not numpy_available():
        pytest.skip("vector backend needs numpy")
    circuit, stim = build_named_circuit("array4")
    stream = CorrelatedStimulus(seed=8, flip_probability=0.3).vectors(stim, 301)
    run = ActivityRun(circuit, backend=backend)
    whole = json.dumps(encode_result(run.run(stream)), sort_keys=True)
    for shards in (2, 5):
        sharded = run.run_sharded(stream, shards)
        assert json.dumps(encode_result(sharded), sort_keys=True) == whole


@needs_numpy
class TestVectorBatchRule:
    def test_rule(self):
        from repro.sim.vector import BATCH_BUDGET, batch_cycles_for

        assert batch_cycles_for(10**6, 40) == 64  # far over the cap
        assert batch_cycles_for(1, 1) == 64 * (BATCH_BUDGET // 8)
        assert batch_cycles_for(100, 0) == batch_cycles_for(100, 1)
        assert batch_cycles_for(0, 0) >= 64

    def test_oversized_circuit_gets_64_cycle_batches(self):
        from repro.sim.vector import BATCH_CAP, VectorBackend

        circuit, _ = build_multiplier_circuit(64, "array")
        backend = VectorBackend(circuit)
        assert backend._cc.n_nets * backend._W * 8 * 4 > BATCH_CAP
        assert backend.batch_cycles == 64

    def test_mid_size_circuit_keeps_256_cycle_batches(self):
        from repro.sim.vector import BATCH_BUDGET, VectorBackend

        circuit, _ = build_multiplier_circuit(32, "array")
        backend = VectorBackend(circuit)
        word = backend._cc.n_nets * backend._W * 8
        assert BATCH_BUDGET // word < 4  # the budget alone gives less
        assert backend.batch_cycles == 256

    def test_sweep_circuit_gets_more_than_256(self):
        from repro.sim.vector import BATCH_BUDGET, VectorBackend

        circuit, _ = build_named_circuit("array16")
        backend = VectorBackend(circuit)
        assert backend.batch_cycles > 256
        assert backend.batch_cycles % 64 == 0
        # The waveform of one batch fits the budget.
        words = backend.batch_cycles // 64
        assert backend._cc.n_nets * backend._W * words * 8 <= BATCH_BUDGET
        assert VectorBackend(circuit, batch_cycles=100).batch_cycles == 100

    def test_feedback_loop_in_one_long_batch(self):
        """A register loop makes the settle fixpoint iterate once per
        cycle of a batch; a rule-sized batch still matches the event
        engine and small batches exactly."""
        from repro.sim.vector import VectorBackend

        rng = random.Random(5)
        for _ in range(3):
            c = random_dag_circuit(rng, n_inputs=4, n_gates=14, loops=2)
            stim = WordStimulus({"x": list(c.inputs)})
            stream = UniformStimulus(seed=rng.randint(0, 99)).vectors(stim, 700)
            rule = VectorBackend(c)
            assert rule.batch_cycles >= len(stream)  # one batch
            stats = rule.run(stream)
            assert stats == VectorBackend(c, batch_cycles=64).run(stream)
            assert stats == EventDrivenBackend(c).run(stream)


# ---------------------------------------------------------------------------
# Stimulus fingerprints
# ---------------------------------------------------------------------------

#: Fingerprints over array16's word layout, as every store already
#: holds them; a change here orphans every cached run.
PINNED_FINGERPRINTS = {
    UniformStimulus(): (
        "c8d5ff84a100e897299bd9901af73a15512f739ec2587c5669b3ad94ad050614"
    ),
    CorrelatedStimulus(): (
        "61cdfd650d24fc77b5f21d4b18899b40c4bc5f1acdcfb6dc10a708422dbba522"
    ),
    BurstMarkovStimulus(): (
        "893b579d86d9563b89eb4d83cfd4f025c51c736a44fb819610de39db9a23ec60"
    ),
    UniformStimulus(seed=7): (
        "928e25c2d5ae59a92ce4a22ce098ea5f22f0ea50287207190dcbe03ce7759794"
    ),
    CorrelatedStimulus(seed=3, flip_probability=0.25): (
        "8acbd14578cf4f0b1b069fd780ee30e062fb39857af232de4766443c1a737c3a"
    ),
    BurstMarkovStimulus(seed=5, p_burst=0.5, p_end=0.125): (
        "5878e995d9e0597a13ed4466b4efbb156672de1577c30e9a69c7bd0151d6ed29"
    ),
}


def test_stimulus_fingerprints_unchanged():
    circuit, stim = build_named_circuit("array16")
    layout = word_layout(circuit, stim)
    for spec, digest in PINNED_FINGERPRINTS.items():
        assert spec.fingerprint(layout) == digest, spec
