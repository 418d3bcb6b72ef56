"""Unit tests for the pluggable simulation backends."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.netlist.cells import CellKind
from repro.netlist.circuit import Circuit
from repro.sim.backends import (
    EventDrivenBackend,
    LanesBackend,
    SimBackend,
    get_backend,
)
from repro.sim.delays import SumCarryDelay, UnitDelay, ZeroDelay
from repro.sim.engine import Simulator

from tests.conftest import random_dag_circuit


def _random_vectors(rng, circuit, count):
    return [
        [rng.randint(0, 1) for _ in circuit.inputs] for _ in range(count)
    ]


def _zero_delay(circuit, **kwargs):
    """The lanes engine in zero-delay mode (the retired bit-parallel)."""
    return LanesBackend(circuit, ZeroDelay(), **kwargs)


class TestProtocol:
    def test_both_backends_satisfy_protocol(self, xor_chain):
        for cls in (EventDrivenBackend, LanesBackend):
            assert isinstance(cls(xor_chain), SimBackend)
        assert isinstance(_zero_delay(xor_chain), SimBackend)

    def test_get_backend_aliases(self, xor_chain):
        assert isinstance(get_backend("event", xor_chain), EventDrivenBackend)
        assert isinstance(
            get_backend("event-driven", xor_chain), EventDrivenBackend
        )
        for alias in ("bitparallel", "bit-parallel", "batch"):
            backend = get_backend(alias, xor_chain)
            assert isinstance(backend, LanesBackend)
            assert backend.exact_glitches is False

    def test_get_backend_unknown(self, xor_chain):
        with pytest.raises(ValueError, match="unknown simulation backend"):
            get_backend("verilator", xor_chain)

    def test_bitparallel_rejects_timed_model(self, xor_chain):
        for alias in ("bitparallel", "bit-parallel", "batch"):
            with pytest.raises(ValueError, match="zero-delay"):
                get_backend(alias, xor_chain, delay_model=UnitDelay())
            get_backend(alias, xor_chain, delay_model=ZeroDelay())


class TestEventDrivenBackend:
    def test_counts_match_manual_simulator_loop(self, rng):
        c = random_dag_circuit(rng, n_inputs=5, n_gates=18)
        vectors = _random_vectors(rng, c, 40)
        stats = EventDrivenBackend(c).run(iter(vectors))

        sim = Simulator(c)
        sim.settle(vectors[0])
        toggles = {}
        for vec in vectors[1:]:
            trace = sim.step(vec)
            for net, n in trace.toggles.items():
                toggles[net] = toggles.get(net, 0) + n
        assert stats.cycles == 39
        assert {n: a.toggles for n, a in stats.per_node.items()} == toggles
        assert stats.final_values == sim.values
        assert stats.final_ff_state == sim.ff_state

    def test_empty_stream(self, xor_chain):
        stats = EventDrivenBackend(xor_chain).run(iter([]))
        assert stats.cycles == 0 and stats.per_node == {}


class TestBitParallelBackend:
    """The lanes engine's zero-delay mode (the retired bit-parallel)."""

    def test_final_values_match_event_driven(self, rng):
        """Settled values after any stream equal the exact engine's."""
        for _ in range(5):
            c = random_dag_circuit(rng, n_inputs=4, n_gates=14)
            vectors = _random_vectors(rng, c, 25)
            bp = _zero_delay(c, batch_cycles=7).run(iter(vectors))
            ev = EventDrivenBackend(c).run(iter(vectors))
            assert bp.final_values == ev.final_values
            assert bp.final_ff_state == ev.final_ff_state

    def test_toggles_equal_event_driven_useful(self, rng):
        """Zero-delay toggles == settled changes == useful transitions."""
        c = random_dag_circuit(rng, n_inputs=5, n_gates=20)
        vectors = _random_vectors(rng, c, 50)
        bp = _zero_delay(c).run(iter(vectors))
        ev = EventDrivenBackend(c, SumCarryDelay()).run(iter(vectors))
        useful = {n: a.useful for n, a in ev.per_node.items() if a.useful}
        assert {n: a.toggles for n, a in bp.per_node.items()} == useful
        for act in bp.per_node.values():
            assert act.useless == 0 and act.useful == act.toggles

    def test_sequential_fixpoint(self):
        """Shift register: zero-delay lanes reproduce the exact latency."""
        c = Circuit("shift")
        n = c.add_input("d")
        for i in range(3):
            n = c.add_dff(n, name=f"ff{i}")
        c.mark_output(n, "q")
        stream = [1, 0, 1, 1, 0, 1, 0, 0]
        vectors = [[0]] + [[b] for b in stream]

        bp = _zero_delay(c, batch_cycles=3).run(iter(vectors))
        ev = EventDrivenBackend(c).run(iter(vectors))
        assert bp.final_values == ev.final_values
        assert bp.final_ff_state == ev.final_ff_state
        bp_counts = {n: a.toggles for n, a in bp.per_node.items()}
        ev_counts = {n: a.toggles for n, a in ev.per_node.items()}
        assert bp_counts == ev_counts  # FF chains never glitch

    def test_toggle_flipflop(self):
        """NOT-loop flipflop alternates; counted once per cycle."""
        c = Circuit("toggle")
        q = c.new_net("q")
        nq = c.gate(CellKind.NOT, q, name="inv")
        c.add_cell(CellKind.DFF, [nq], [q], name="ff")
        c.mark_output(q)
        stats = _zero_delay(c, batch_cycles=4).run(
            [[]] * 7, warmup=[]
        )
        assert stats.cycles == 7
        assert stats.per_node[q].toggles == 7

    def test_batch_size_invariance(self, rng):
        c = random_dag_circuit(rng, n_inputs=4, n_gates=12)
        vectors = _random_vectors(rng, c, 33)
        results = [
            _zero_delay(c, batch_cycles=b).run(iter(vectors))
            for b in (1, 5, 64, 256)
        ]
        for other in results[1:]:
            assert other.per_node == results[0].per_node
            assert other.final_values == results[0].final_values

    def test_mapping_vectors_with_carry_over(self, xor_chain):
        in0 = xor_chain.net("in0")
        out = xor_chain.net("out")
        bp = _zero_delay(xor_chain).run(
            [{in0: 1}], warmup=[1, 0, 0]
        )
        # in0 was already 1: nothing changes anywhere.
        assert bp.per_node.get(out) is None
        assert bp.final_values[out] == 1

    def test_mapping_key_validation(self, xor_chain):
        internal = xor_chain.net("x1")
        with pytest.raises(ValueError, match="not a primary input"):
            _zero_delay(xor_chain).run(
                [{internal: 1}], warmup=[0, 0, 0]
            )


class TestSimulatorInputValidation:
    def test_step_rejects_non_input_mapping_keys(self, xor_chain):
        sim = Simulator(xor_chain)
        sim.settle([0, 0, 0])
        internal = xor_chain.net("x1")
        with pytest.raises(ValueError, match="not a primary input"):
            sim.step({internal: 1})

    def test_settle_rejects_non_input_mapping_keys(self, xor_chain):
        sim = Simulator(xor_chain)
        with pytest.raises(ValueError, match="not a primary input"):
            sim.settle({xor_chain.net("out"): 1})

    def test_input_mapping_still_accepted(self, xor_chain):
        sim = Simulator(xor_chain)
        sim.settle({xor_chain.net("in1"): 1})
        assert sim.values[xor_chain.net("in1")] == 1


@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_bitparallel_equals_functional_eval_property(data):
    """Hypothesis: zero-delay lanes settled values == functional eval."""
    seed = data.draw(st.integers(min_value=0, max_value=2**31))
    rng = random.Random(seed)
    c = random_dag_circuit(rng, n_inputs=4, n_gates=10)
    n_cycles = data.draw(st.integers(min_value=1, max_value=9))
    vectors = [
        [data.draw(st.integers(min_value=0, max_value=1)) for _ in c.inputs]
        for _ in range(n_cycles + 1)
    ]
    batch = data.draw(st.integers(min_value=1, max_value=4))
    stats = _zero_delay(c, batch_cycles=batch).run(iter(vectors))
    state = {}
    for vec in vectors:
        values, state = c.evaluate(vec, state=dict(state))
    for net, v in values.items():
        assert stats.final_values[net] == v
