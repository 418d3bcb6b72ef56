"""Equivalence suite for the lanes engine's zero-delay mode.

A ``ZeroDelay`` model switches the lanes backend (``repro.sim.lanes``)
to settled batch evaluation, one lane per clock cycle.  Its contract:
settled values and flipflop state equal the event-driven engine's, and
every counted transition is a settled-value change, so per-net toggle
counts equal the event engine's *useful* counts under any timed delay
model — across circuits, batch sizes, monitors, resume and sharded
runs.  The glitch mode has its own suite,
``tests/test_sim_waveform.py``.  This file keeps the name of the
generated-kernel engine that the lanes engine replaced.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.activity import ActivityRun
from repro.core.transitions import NodeActivity
from repro.netlist.cells import CellKind
from repro.sim.backends import (
    EventDrivenBackend,
    LanesBackend,
    SimBackend,
    get_backend,
)
from repro.sim.delays import (
    LoadDelay,
    PerKindDelay,
    SumCarryDelay,
    UnitDelay,
    ZeroDelay,
)

from tests.conftest import random_dag_circuit


def _random_vectors(rng, circuit, count):
    return [
        [rng.randint(0, 1) for _ in circuit.inputs] for _ in range(count)
    ]


def _delay_models(rng, circuit):
    return [
        UnitDelay(),
        SumCarryDelay(dsum=2, dcarry=1),
        SumCarryDelay(dsum=3, dcarry=1, other=2),
        PerKindDelay({CellKind.XOR: 3, CellKind.FA: 2}, default=1),
        LoadDelay(circuit, base=1, extra_per_load=rng.randint(1, 2)),
    ]


def _zero_delay(circuit, **kwargs):
    return LanesBackend(circuit, ZeroDelay(), **kwargs)


def _assert_stats_equal(a, b):
    assert a.cycles == b.cycles
    assert a.per_node == b.per_node
    assert a.final_values == b.final_values
    assert a.final_ff_state == b.final_ff_state


def _assert_matches_event_useful(zero, event):
    """Zero-delay stats vs a timed event-driven run of the same stream."""
    assert zero.cycles == event.cycles
    assert zero.final_values == event.final_values
    assert zero.final_ff_state == event.final_ff_state
    useful = {n: a.useful for n, a in event.per_node.items() if a.useful}
    assert {n: a.toggles for n, a in zero.per_node.items()} == useful
    for act in zero.per_node.values():
        assert act.useless == 0
        assert act.useful == act.toggles == act.cycles_active


def _functional_oracle(circuit, vectors):
    """Zero-delay RunStats fields computed cycle by cycle from
    :meth:`Circuit.evaluate` — the bit-parallel contract, from scratch."""
    monitored = [n.index for n in circuit.nets if n.driver is not None]
    values, state = circuit.evaluate(vectors[0], state={})
    per_node = {}
    for vec in vectors[1:]:
        new, state = circuit.evaluate(vec, state=dict(state))
        for net in monitored:
            if new[net] != values[net]:
                act = per_node.setdefault(net, NodeActivity())
                act.toggles += 1
                act.useful += 1
                act.cycles_active += 1
                act.rises += new[net]
        values = new
    return per_node, [values[n] for n in range(len(circuit.nets))]


class TestProtocolAndRegistry:
    def test_satisfies_protocol(self, xor_chain):
        assert isinstance(_zero_delay(xor_chain), SimBackend)

    def test_registered(self, xor_chain):
        glitch = get_backend("lanes", xor_chain)
        settled = get_backend("lanes", xor_chain, ZeroDelay())
        assert type(glitch) is type(settled) is LanesBackend
        assert LanesBackend.exact_glitches is True
        assert glitch.exact_glitches and not settled.exact_glitches
        # One batch_cycles default per mode: glitch-mode masks are W
        # times wider than zero-delay ones.
        assert glitch.batch_cycles == 32
        assert settled.batch_cycles == 256

    def test_rejects_bad_batch_size(self, xor_chain):
        with pytest.raises(ValueError, match="batch_cycles"):
            _zero_delay(xor_chain, batch_cycles=0)

    def test_rejects_sub_unit_delay(self, xor_chain):
        sneaky = PerKindDelay({CellKind.XOR: 0}, default=1)
        with pytest.raises(ValueError, match="delays >= 1"):
            get_backend("lanes", xor_chain, delay_model=sneaky)

    def test_empty_stream(self, xor_chain):
        stats = _zero_delay(xor_chain).run(iter([]))
        assert stats.cycles == 0 and stats.per_node == {}
        assert stats.final_values == [0] * len(xor_chain.nets)


class TestEquivalenceWithEventDriven:
    def test_glitchy_and_counts(self, glitchy_and):
        vectors = [[k % 2] for k in range(9)]
        ev = EventDrivenBackend(glitchy_and).run(iter(vectors))
        zl = _zero_delay(glitchy_and).run(iter(vectors))
        _assert_matches_event_useful(zl, ev)
        # Every transition on y is a glitch: zero delay sees none.
        y = glitchy_and.net("y")
        assert ev.per_node[y].toggles > 0 and y not in zl.per_node

    def test_random_circuits_and_delay_models(self, rng):
        """Useful counts do not depend on the delay model."""
        for trial in range(10):
            c = random_dag_circuit(
                rng,
                n_inputs=rng.randint(2, 6),
                n_gates=rng.randint(4, 40),
                with_ffs=trial % 2 == 1,
            )
            vectors = _random_vectors(rng, c, rng.randint(2, 40))
            zl = _zero_delay(c).run(iter(vectors))
            for dm in _delay_models(rng, c):
                ev = EventDrivenBackend(c, dm).run(iter(vectors))
                _assert_matches_event_useful(zl, ev)

    def test_batch_size_invariance(self, rng):
        c = random_dag_circuit(rng, n_inputs=4, n_gates=20, with_ffs=True)
        vectors = _random_vectors(rng, c, 33)
        results = [
            _zero_delay(c, batch_cycles=b).run(iter(vectors))
            for b in (1, 2, 7, 32, 256)
        ]
        for other in results[1:]:
            _assert_stats_equal(results[0], other)

    def test_zero_mode_matches_bitparallel(self, rng):
        """RunStats equal a cycle-by-cycle functional-evaluation oracle."""
        for trial in range(6):
            c = random_dag_circuit(
                rng, n_inputs=4, n_gates=20, with_ffs=trial % 2 == 1
            )
            vectors = _random_vectors(rng, c, 33)
            zl = _zero_delay(c, batch_cycles=8).run(iter(vectors))
            per_node, final_values = _functional_oracle(c, vectors)
            assert zl.cycles == len(vectors) - 1
            assert zl.per_node == per_node
            assert zl.final_values == final_values

    def test_monitor_restriction(self, rng):
        c = random_dag_circuit(rng, n_inputs=4, n_gates=15)
        vectors = _random_vectors(rng, c, 20)
        watch = [c.cells[0].outputs[0], c.cells[-1].outputs[0]]
        full = _zero_delay(c).run(iter(vectors))
        part = _zero_delay(c, monitor=watch).run(iter(vectors))
        assert set(part.per_node) <= set(watch)
        assert part.per_node == {
            n: a for n, a in full.per_node.items() if n in watch
        }
        assert part.final_values == full.final_values


class TestWarmupAndResume:
    def test_initial_state_resume_matches_full_run(self, rng):
        for trial in range(6):
            c = random_dag_circuit(
                rng, n_inputs=4, n_gates=18, with_ffs=True
            )
            vectors = _random_vectors(rng, c, 24)
            cut = rng.randint(1, len(vectors) - 1)
            whole = _zero_delay(c).run(iter(vectors))
            head = _zero_delay(c).run(iter(vectors[:cut]))
            tail = _zero_delay(c).run(
                iter(vectors[cut:]),
                initial_values=head.final_values,
                initial_ff_state=head.final_ff_state,
            )
            assert head.cycles + tail.cycles == whole.cycles
            assert tail.final_values == whole.final_values
            assert tail.final_ff_state == whole.final_ff_state
            merged = {}
            for stats in (head, tail):
                for n, act in stats.per_node.items():
                    merged[n] = merged[n] + act if n in merged else act
            assert merged == whole.per_node

    def test_explicit_warmup_on_resume_matches_event(self, rng):
        c = random_dag_circuit(rng, n_inputs=3, n_gates=10, with_ffs=True)
        vectors = _random_vectors(rng, c, 10)
        start = _random_vectors(rng, c, 1)[0]
        kwargs = dict(
            warmup=start, initial_values=[0] * len(c.nets),
            initial_ff_state={},
        )
        ev = EventDrivenBackend(c).run(iter(vectors), **kwargs)
        zl = _zero_delay(c).run(iter(vectors), **kwargs)
        _assert_matches_event_useful(zl, ev)


class TestActivitySession:
    def test_sharded_codegen_equals_unsharded_event(self, rng):
        c = random_dag_circuit(rng, n_inputs=5, n_gates=25, with_ffs=True)
        vectors = _random_vectors(rng, c, 41)
        reference = ActivityRun(c, backend="event").run(iter(vectors))
        sharded = ActivityRun(
            c, delay_model=ZeroDelay(), backend="lanes"
        ).run_sharded(iter(vectors), shards=3)
        assert sharded.cycles == reference.cycles
        assert sharded.useless == 0
        assert {n: a.toggles for n, a in sharded.per_node.items()} == {
            n: a.useful for n, a in reference.per_node.items() if a.useful
        }

    def test_zero_delay_session_uses_settled_mode(self, rng):
        c = random_dag_circuit(rng, n_inputs=4, n_gates=18, with_ffs=True)
        vectors = _random_vectors(rng, c, 25)
        run = ActivityRun(c, delay_model=ZeroDelay(), backend="lanes")
        assert run.backend_name == "lanes"
        assert run.exact_glitches is False
        assert isinstance(run.delay_model, ZeroDelay)
        result = run.run(iter(vectors))
        assert result.delay_description == "zero delay"
        reference = _zero_delay(c).run(iter(vectors))
        assert result.per_node == reference.per_node

    def test_figure5_pinned_with_codegen_backend(self):
        """Figure 5's useful count, from the zero-delay mode alone."""
        from repro.circuits.adders import build_rca_circuit
        from repro.sim.vectors import WordStimulus

        circuit, ports = build_rca_circuit(16, with_cin=False)
        stim = WordStimulus({"a": ports["a"], "b": ports["b"]})
        result = ActivityRun(
            circuit, delay_model=ZeroDelay(), backend="lanes"
        ).run(stim.random(random.Random(1995), 4001))
        summary = result.summary()
        assert summary["cycles"] == 4000
        assert summary["total"] == summary["useful"] == 63200
        assert summary["useless"] == 0


@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_codegen_equals_event_property(data):
    """Hypothesis: zero-delay stats == event useful counts and state."""
    seed = data.draw(st.integers(min_value=0, max_value=2**31))
    rng = random.Random(seed)
    c = random_dag_circuit(
        rng,
        n_inputs=data.draw(st.integers(min_value=2, max_value=5)),
        n_gates=data.draw(st.integers(min_value=3, max_value=25)),
        with_ffs=data.draw(st.booleans()),
    )
    dm = data.draw(
        st.sampled_from([
            UnitDelay(),
            SumCarryDelay(dsum=2, dcarry=1),
            PerKindDelay({CellKind.AND: 2}, default=1),
        ])
    )
    n_cycles = data.draw(st.integers(min_value=1, max_value=12))
    vectors = [
        [data.draw(st.integers(min_value=0, max_value=1)) for _ in c.inputs]
        for _ in range(n_cycles + 1)
    ]
    batch = data.draw(st.integers(min_value=1, max_value=6))
    ev = EventDrivenBackend(c, dm).run(iter(vectors))
    zl = _zero_delay(c, batch_cycles=batch).run(iter(vectors))
    _assert_matches_event_useful(zl, ev)
