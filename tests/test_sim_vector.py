"""Equivalence + availability suite for the numpy vector backend.

Two contracts under test:

* **Bit-identity.**  In glitch mode the vector backend must reproduce
  the event-driven engine's RunStats exactly — per-net toggle, rise,
  useful, useless and active-cycle counts, settled values and flipflop
  state — across circuits, delay models, batch sizes (including the
  64-cycle word-boundary sizes its packing is built around), sharded
  runs and resume.  In zero-delay mode it must match the lanes
  engine's zero-delay mode the same way.
* **Graceful absence.**  numpy is an optional ``[perf]`` extra: with
  it missing (simulated here by monkeypatching the module's probe),
  the registry reports the backend unavailable, ``auto`` falls back to
  the pure-Python lanes engine, and constructing the backend raises
  :class:`BackendUnavailableError` with an actionable message.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.activity import ActivityRun
from repro.netlist.cells import CellKind
from repro.netlist.circuit import Circuit
from repro.netlist.compiled import compile_circuit
from repro.sim.backends import (
    BackendUnavailableError,
    EventDrivenBackend,
    LanesBackend,
    SimBackend,
    available_backends,
    backend_unavailable_reason,
    get_backend,
    select_backend,
)
from repro.sim.delays import (
    LoadDelay,
    PerKindDelay,
    SumCarryDelay,
    UnitDelay,
    ZeroDelay,
)
from repro.sim.vector import VectorBackend, numpy_available

from tests.conftest import random_dag_circuit, random_table_delay

needs_numpy = pytest.mark.skipif(
    not numpy_available(),
    reason="vector backend needs the [perf] extra (numpy >= 2.0)",
)


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


def _assert_stats_equal(a, b):
    assert a.cycles == b.cycles
    assert a.per_node == b.per_node
    assert a.final_values == b.final_values
    assert a.final_ff_state == b.final_ff_state


@needs_numpy
class TestProtocolAndRegistry:
    def test_satisfies_protocol(self, xor_chain):
        assert isinstance(VectorBackend(xor_chain), SimBackend)

    def test_registered(self, xor_chain):
        glitch = get_backend("vector", xor_chain)
        settled = get_backend("vector", xor_chain, ZeroDelay())
        assert type(glitch) is type(settled) is VectorBackend
        assert VectorBackend.exact_glitches is True
        assert glitch.exact_glitches and not settled.exact_glitches

    def test_listed_available(self):
        assert available_backends() == ["event", "lanes", "vector"]
        assert backend_unavailable_reason("vector") is None

    def test_rejects_bad_batch_size(self, xor_chain):
        with pytest.raises(ValueError, match="batch_cycles"):
            VectorBackend(xor_chain, batch_cycles=0)

    def test_empty_stream(self, xor_chain):
        stats = VectorBackend(xor_chain).run(iter([]))
        assert stats.cycles == 0 and stats.per_node == {}


@needs_numpy
class TestEquivalenceWithEventDriven:
    def test_glitchy_and_counts(self, glitchy_and):
        vectors = [[k % 2] for k in range(9)]
        ev = EventDrivenBackend(glitchy_and).run(iter(vectors))
        vc = VectorBackend(glitchy_and).run(iter(vectors))
        _assert_stats_equal(ev, vc)
        y = glitchy_and.net("y")
        assert vc.per_node[y].useless == vc.per_node[y].toggles

    def test_random_circuits_and_delay_models(self, rng):
        for trial in range(12):
            c = random_dag_circuit(
                rng,
                n_inputs=rng.randint(2, 6),
                n_gates=rng.randint(4, 40),
                with_ffs=trial % 2 == 1,
            )
            vectors = _random_vectors(rng, c, rng.randint(2, 40))
            for dm in _delay_models(rng, c):
                ev = EventDrivenBackend(c, dm).run(iter(vectors))
                vc = VectorBackend(c, dm).run(iter(vectors))
                _assert_stats_equal(ev, vc)

    def test_windowless_nets_and_two_output_windows(self):
        """Per net: a gate fed only by a constant and one fed by an
        undriven net (neither net can ever change, so neither has an
        arrival window), logic mixing such a net with an input, and a
        full adder whose sum and carry have different delays, hence
        different windows."""
        c = Circuit("windows")
        a, b, cin = (c.add_input(n) for n in ("a", "b", "cin"))
        one = c.gate(CellKind.CONST1, name="one")
        from_const = c.gate(CellKind.NOT, one, name="from_const")
        floating = c.new_net("floating")
        from_floating = c.gate(CellKind.NOT, floating, name="from_floating")
        mixed = c.gate(CellKind.OR, from_const, a, name="mixed")
        fa = c.add_cell(CellKind.FA, [a, b, cin], name="fa")
        skew = c.gate(CellKind.XOR, *fa.outputs, name="skew")
        for net in (from_const, from_floating, mixed, skew):
            c.mark_output(net)
        rng = random.Random(5)
        vectors = _random_vectors(rng, c, 70)
        dm = SumCarryDelay(dsum=2, dcarry=1)
        ev = EventDrivenBackend(c, dm).run(iter(vectors))
        for batch in (1, 7, 64, 256):
            vc = VectorBackend(c, dm, batch_cycles=batch).run(iter(vectors))
            _assert_stats_equal(ev, vc)
        zero = LanesBackend(c, ZeroDelay()).run(iter(vectors))
        _assert_stats_equal(zero, VectorBackend(c, ZeroDelay()).run(iter(vectors)))

    def test_batch_size_invariance_at_word_boundaries(self, rng):
        """Lane packing is per-64-cycle word; straddle every edge."""
        c = random_dag_circuit(rng, n_inputs=4, n_gates=20, with_ffs=True)
        vectors = _random_vectors(rng, c, 140)
        results = [
            VectorBackend(c, batch_cycles=b).run(iter(vectors))
            for b in (1, 7, 63, 64, 65, 128, 256)
        ]
        for other in results[1:]:
            _assert_stats_equal(results[0], other)

    def test_zero_mode_matches_bitparallel(self, rng):
        for trial in range(6):
            c = random_dag_circuit(
                rng, n_inputs=4, n_gates=20, with_ffs=trial % 2 == 1
            )
            vectors = _random_vectors(rng, c, 33)
            zl = LanesBackend(c, ZeroDelay()).run(iter(vectors))
            vc = VectorBackend(c, ZeroDelay()).run(iter(vectors))
            _assert_stats_equal(zl, vc)

    def test_per_instance_delays_match_event(self, rng):
        """A model that overrides ``delay`` per cell splits one level's
        cells of a kind into groups by delay, each with its own rows."""
        split = False
        for trial in range(8):
            c = random_dag_circuit(
                rng, n_inputs=rng.randint(2, 6), n_gates=rng.randint(10, 40),
                with_ffs=trial % 2 == 1,
            )
            vectors = _random_vectors(rng, c, rng.randint(2, 40))
            dm = random_table_delay(rng, c, max_len=2)
            split |= len(compile_circuit(c, dm).cell_groups) > len(
                compile_circuit(c).cell_groups
            )
            ev = EventDrivenBackend(c, dm).run(iter(vectors))
            vc = VectorBackend(c, dm).run(iter(vectors))
            _assert_stats_equal(ev, vc)
        assert split

    def test_settled_plan_reads_no_windows(self, rng):
        """A settled snapshot (``max_delay`` 0) plans without an
        arrival-window pass; a timed one reads the windows."""
        from repro.sim.vector import _plan_for

        c = random_dag_circuit(rng, n_inputs=4, n_gates=20, with_ffs=True)
        vectors = _random_vectors(rng, c, 10)
        for model, timed in ((ZeroDelay(), False), (UnitDelay(), True)):
            VectorBackend(c, model).run(iter(vectors))
            cc = compile_circuit(c, model)
            assert bool(cc.max_delay) is timed
            assert ("arrival_windows" in cc.__dict__) is timed
            rows = [g.rows is not None for g in _plan_for(cc).groups]
            assert any(rows) is timed

    def test_monitor_restriction(self, rng):
        c = random_dag_circuit(rng, n_inputs=4, n_gates=15)
        vectors = _random_vectors(rng, c, 20)
        watch = [c.cells[0].outputs[0]]
        ev = EventDrivenBackend(c, monitor=watch).run(iter(vectors))
        vc = VectorBackend(c, monitor=watch).run(iter(vectors))
        _assert_stats_equal(ev, vc)
        assert set(vc.per_node) <= set(watch)

    def test_mapping_vectors_with_carry_over(self, xor_chain):
        in0 = xor_chain.net("in0")
        in2 = xor_chain.net("in2")
        vectors = [{in0: 1}, {in2: 1}, {in0: 0, in2: 0}]
        ev = EventDrivenBackend(xor_chain).run(
            iter(vectors), warmup=[0, 1, 0]
        )
        vc = VectorBackend(xor_chain).run(
            iter(vectors), warmup=[0, 1, 0]
        )
        _assert_stats_equal(ev, vc)


@needs_numpy
class TestWarmupAndResume:
    def test_initial_state_resume_matches_full_run(self, rng):
        for trial in range(6):
            c = random_dag_circuit(
                rng, n_inputs=4, n_gates=18, with_ffs=True
            )
            vectors = _random_vectors(rng, c, 24)
            cut = rng.randint(1, len(vectors) - 1)
            whole = VectorBackend(c).run(iter(vectors))

            head = VectorBackend(c).run(iter(vectors[:cut]))
            tail = VectorBackend(c).run(
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
                    if n in merged:
                        merged[n] = merged[n] + act
                    else:
                        merged[n] = act
            assert merged == whole.per_node

    def test_zero_delay_boundary_handoff(self, rng):
        """Fast-forward in zero mode, continue glitch-exact."""
        c = random_dag_circuit(rng, n_inputs=4, n_gates=16, with_ffs=True)
        vectors = _random_vectors(rng, c, 30)
        ff = VectorBackend(c, ZeroDelay(), monitor=()).run(
            iter(vectors[:20])
        )
        vc = VectorBackend(c).run(
            iter(vectors[20:]),
            initial_values=ff.final_values,
            initial_ff_state=ff.final_ff_state,
        )
        ev = EventDrivenBackend(c).run(
            iter(vectors[20:]),
            initial_values=ff.final_values,
            initial_ff_state=ff.final_ff_state,
        )
        _assert_stats_equal(ev, vc)


@needs_numpy
class TestWarmupSettle:
    """The vector engine settles the warm-up vector in its own one-lane
    zero pass; the values equal ``evaluate_flat``'s."""

    @pytest.mark.parametrize("seed", range(12))
    def test_settle_equals_evaluate_flat(self, seed):
        rng = random.Random(seed)
        c = random_dag_circuit(
            rng, n_inputs=5, n_gates=25, with_ffs=True, loops=seed % 3,
            consts=seed % 2 + 1,
        )
        cc = compile_circuit(c)
        state = {ci: rng.randint(0, 1) for ci in cc.ff_cells}
        for delay in (UnitDelay(), ZeroDelay()):
            engine = VectorBackend(c, delay)
            for _ in range(4):
                bits = [rng.randint(0, 1) for _ in c.inputs]
                got = engine._settle_vector(bits, state).tolist()
                assert got == cc.evaluate_flat(bits, state)[0]


@needs_numpy
class TestActivitySession:
    def test_sharded_vector_equals_unsharded_event(self, rng):
        for shards, processes in ((3, None), (4, 2)):
            c = random_dag_circuit(
                rng, n_inputs=5, n_gates=25, with_ffs=True
            )
            vectors = _random_vectors(rng, c, 41)
            reference = ActivityRun(c, backend="event").run(iter(vectors))
            run = ActivityRun(c, backend="vector")
            sharded = run.run_sharded(
                iter(vectors), shards=shards, processes=processes
            )
            assert sharded.cycles == reference.cycles
            assert sharded.per_node == reference.per_node

    def test_zero_delay_session_uses_settled_mode(self, rng):
        """Dual-mode: a ZeroDelay session is accepted, not rejected."""
        c = random_dag_circuit(rng, n_inputs=4, n_gates=18, with_ffs=True)
        vectors = _random_vectors(rng, c, 25)
        run = ActivityRun(c, delay_model=ZeroDelay(), backend="vector")
        assert run.exact_glitches is False
        reference = ActivityRun(
            c, delay_model=ZeroDelay(), backend="lanes"
        ).run(iter(vectors))
        result = run.run(iter(vectors))
        assert result.per_node == reference.per_node
        assert result.cycles == reference.cycles

    def test_figure5_pinned_with_vector_backend(self):
        """The paper's Figure 5 numbers, bit-exact on the vector tier."""
        from repro.circuits.adders import build_rca_circuit
        from repro.sim.vectors import WordStimulus

        circuit, ports = build_rca_circuit(16, with_cin=False)
        stim = WordStimulus({"a": ports["a"], "b": ports["b"]})
        result = ActivityRun(circuit, backend="vector").run(
            stim.random(random.Random(1995), 4001)
        )
        summary = result.summary()
        assert summary["cycles"] == 4000
        assert summary["total"] == 117990
        assert summary["useful"] == 63200
        assert summary["useless"] == 54790
        assert summary["rises"] == 58994
        assert summary["L/F"] == pytest.approx(0.8669, abs=1e-4)


@needs_numpy
@pytest.mark.integration
class TestFarmWorkload:
    def test_farm16_glitch_exact_matches_event(self):
        """The ≥100k-cell stress case, bit-exact vs the reference.

        The event-driven cross-check uses a short stream (it runs at
        a few cycles per second at this size); the vector backend then
        completes the full 20-cycle run on its own — the acceptance
        workload — in seconds.
        """
        from repro.circuits.catalog import build_named_circuit
        from repro.sim.vectors import UniformStimulus

        circuit, stim = build_named_circuit("farm16")
        assert len(circuit.cells) >= 100_000
        vectors = [
            dict(v) for v in UniformStimulus(seed=7).vectors(stim, 21)
        ]
        ev = EventDrivenBackend(circuit).run(iter(vectors[:4]))
        vc = VectorBackend(circuit).run(iter(vectors[:4]))
        _assert_stats_equal(ev, vc)

        full = ActivityRun(circuit, backend="vector").run(iter(vectors))
        assert full.cycles == 20
        assert full.total_transitions > 0


class TestWithoutNumpy:
    """Behaviour when the [perf] extra is absent (simulated)."""

    @pytest.fixture(autouse=True)
    def no_numpy(self, monkeypatch):
        monkeypatch.setattr(
            "repro.sim.vector._NUMPY_ERROR",
            "numpy is not installed (simulated by test)",
        )

    def test_probe_reports_unavailable(self):
        assert not numpy_available()
        assert "vector" not in available_backends()
        assert available_backends() == ["event", "lanes"]
        reason = backend_unavailable_reason("vector")
        assert "'vector' backend is unavailable" in reason
        assert "numpy" in reason

    def test_auto_policy_falls_back_to_pure_python(self):
        assert select_backend() == "lanes"

    def test_constructor_raises(self, xor_chain):
        with pytest.raises(BackendUnavailableError, match="numpy"):
            VectorBackend(xor_chain)
        with pytest.raises(BackendUnavailableError, match="numpy"):
            get_backend("vector", xor_chain)

    def test_activity_run_fails_fast(self, xor_chain):
        with pytest.raises(BackendUnavailableError, match="numpy"):
            ActivityRun(xor_chain, backend="vector")

    def test_auto_session_still_works(self, xor_chain):
        run = ActivityRun(xor_chain, backend="auto")
        assert run.backend_name == "lanes"
        stats = run.run(iter([[0, 0, 0], [1, 0, 1], [0, 1, 1]]))
        assert stats.cycles == 2

    def test_settled_engine_falls_back(self, xor_chain):
        """Shard fast-forwards and ``ff_activity`` take ``auto``'s
        engine under ZeroDelay: lanes without numpy."""
        backend = get_backend(select_backend(), xor_chain, ZeroDelay())
        assert isinstance(backend, LanesBackend)
        assert backend.exact_glitches is False
        vectors = [[0, 0, 0], [1, 0, 1], [0, 1, 1], [1, 1, 0], [0, 0, 1]]
        run = ActivityRun(xor_chain, backend="lanes")
        assert run.run_sharded(iter(vectors), shards=2) == run.run(
            iter(vectors)
        )


@needs_numpy
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_vector_equals_event_property(data):
    """Hypothesis: RunStats identity on random circuit/delay/stream."""
    seed = data.draw(st.integers(min_value=0, max_value=2**31))
    rng = random.Random(seed)
    c = random_dag_circuit(
        rng,
        n_inputs=data.draw(st.integers(min_value=2, max_value=5)),
        n_gates=data.draw(st.integers(min_value=3, max_value=25)),
        with_ffs=data.draw(st.booleans()),
        loops=data.draw(st.integers(min_value=0, max_value=2)),
    )
    # LoadDelay gives the members of one vector group different
    # arrival windows.
    dm = data.draw(
        st.sampled_from([
            UnitDelay(),
            SumCarryDelay(dsum=2, dcarry=1),
            PerKindDelay({CellKind.AND: 2}, default=1),
            LoadDelay(c),
        ])
    )
    n_cycles = data.draw(st.integers(min_value=1, max_value=12))
    vectors = [
        [data.draw(st.integers(min_value=0, max_value=1)) for _ in c.inputs]
        for _ in range(n_cycles + 1)
    ]
    batch = data.draw(st.integers(min_value=1, max_value=6))
    ev = EventDrivenBackend(c, dm).run(iter(vectors))
    vc = VectorBackend(c, dm, batch_cycles=batch).run(iter(vectors))
    _assert_stats_equal(ev, vc)
