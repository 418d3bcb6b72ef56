"""Property-based equivalence suite for the lanes engine's glitch mode.

With a timed delay model the lanes backend (``repro.sim.lanes``) runs
the waveform-lane algorithm.  Its contract is *bit-identity* with the
event-driven reference on every aggregated statistic: per-net toggle,
rise, useful, useless and active-cycle counts, settled values and
flipflop state — across circuits, delay models, batch sizes, warm-up
and mid-stream resume semantics, and sharded runs.  The zero-delay
mode has its own suite, ``tests/test_sim_codegen.py``; the two files
keep the names of the retired ``waveform`` and ``codegen`` engines,
which are now aliases of ``lanes``.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.activity import ActivityRun
from repro.sim.backends import (
    EventDrivenBackend,
    LanesBackend,
    SimBackend,
    get_backend,
    select_backend,
)
from repro.sim.vector import numpy_available
from repro.sim.delays import (
    HintedDelay,
    LoadDelay,
    PerKindDelay,
    SumCarryDelay,
    UnitDelay,
    ZeroDelay,
)
from repro.netlist.cells import CellKind

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
        HintedDelay(),
    ]


def _assert_stats_equal(a, b):
    assert a.cycles == b.cycles
    assert a.per_node == b.per_node
    assert a.final_values == b.final_values
    assert a.final_ff_state == b.final_ff_state


class TestProtocolAndRegistry:
    def test_satisfies_protocol(self, xor_chain):
        assert isinstance(LanesBackend(xor_chain), SimBackend)

    def test_registered_with_aliases(self, xor_chain):
        for alias in ("lanes", "waveform", "wave", "codegen"):
            backend = get_backend(alias, xor_chain)
            assert isinstance(backend, LanesBackend)
            assert backend.exact_glitches is True

    def test_exactness_flag(self, xor_chain):
        assert LanesBackend.exact_glitches is True
        assert LanesBackend(xor_chain).exact_glitches is True

    def test_rejects_zero_delay(self, xor_chain):
        # Only an explicit ZeroDelay selects the settled mode; a timed
        # model that assigns zero delays is a glitch-mode error.
        all_zero = PerKindDelay({}, default=0)
        with pytest.raises(ValueError, match="delays >= 1"):
            LanesBackend(xor_chain, delay_model=all_zero)

    def test_rejects_sub_unit_per_kind_delay(self, xor_chain):
        sneaky = PerKindDelay({CellKind.XOR: 0}, default=1)
        with pytest.raises(ValueError, match="delays >= 1"):
            LanesBackend(xor_chain, delay_model=sneaky)

    def test_rejects_bad_batch_size(self, xor_chain):
        with pytest.raises(ValueError, match="batch_cycles"):
            LanesBackend(xor_chain, batch_cycles=0)

    def test_empty_stream(self, xor_chain):
        stats = LanesBackend(xor_chain).run(iter([]))
        assert stats.cycles == 0 and stats.per_node == {}


class TestSelectBackendPolicy:
    def test_aggregate_glitch_exact_runs_use_fastest(self):
        # With the [perf] extra the vector backend wins everywhere;
        # without numpy the policy falls back to the lanes engine.
        expected = "vector" if numpy_available() else "lanes"
        assert select_backend() == expected
        assert select_backend(UnitDelay()) == expected
        assert select_backend(SumCarryDelay()) == expected

    def test_traces_and_vcd_fall_back_to_event(self):
        assert select_backend(record_events=True) == "event"
        assert select_backend(want_traces=True) == "event"
        assert select_backend(UnitDelay(), record_events=True) == "event"

    def test_zero_delay_uses_fastest_settled_engine(self):
        expected = "vector" if numpy_available() else "lanes"
        assert select_backend(ZeroDelay()) == expected

    def test_activity_run_resolves_auto(self, xor_chain):
        glitch = "vector" if numpy_available() else "lanes"
        settled = glitch
        assert ActivityRun(xor_chain, backend="auto").backend_name == glitch
        run = ActivityRun(
            xor_chain, delay_model=ZeroDelay(), backend="auto"
        )
        assert run.backend_name == settled
        assert run.exact_glitches is False
        assert run.delay_model is None

    def test_auto_session_still_produces_event_traces(self, glitchy_and):
        run = ActivityRun(glitchy_and, backend="auto")
        a = glitchy_and.net("a")
        traces = run.step_traces([{a: k % 2} for k in range(4)])
        assert len(traces) == 3  # first vector consumed as warm-up


#: Retired engine names: the glitch-capable ones alias ``lanes``, the
#: bit-parallel ones alias its zero-delay mode.
GLITCH_NAMES = ("waveform", "wave", "codegen")
SETTLED_NAMES = ("bitparallel", "bit-parallel", "batch")


class TestRetiredNames:
    @pytest.mark.parametrize("name", GLITCH_NAMES + SETTLED_NAMES)
    def test_activity_run_resolves_to_lanes(self, xor_chain, name):
        run = ActivityRun(xor_chain, backend=name)
        assert run.backend_name == "lanes"
        assert run.exact_glitches is (name in GLITCH_NAMES)
        assert not run.failover  # a named backend, not the auto policy


class TestEquivalenceWithEventDriven:
    def test_glitchy_and_counts(self, glitchy_and):
        vectors = [[k % 2] for k in range(9)]
        ev = EventDrivenBackend(glitchy_and).run(iter(vectors))
        wf = LanesBackend(glitchy_and).run(iter(vectors))
        _assert_stats_equal(ev, wf)
        y = glitchy_and.net("y")
        assert wf.per_node[y].useless == wf.per_node[y].toggles

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
                wf = LanesBackend(c, dm).run(iter(vectors))
                _assert_stats_equal(ev, wf)

    def test_batch_size_invariance(self, rng):
        c = random_dag_circuit(rng, n_inputs=4, n_gates=20, with_ffs=True)
        vectors = _random_vectors(rng, c, 33)
        results = [
            LanesBackend(c, batch_cycles=b).run(iter(vectors))
            for b in (1, 2, 7, 32, 256)
        ]
        for other in results[1:]:
            _assert_stats_equal(results[0], other)

    def test_monitor_restriction(self, rng):
        c = random_dag_circuit(rng, n_inputs=4, n_gates=15)
        vectors = _random_vectors(rng, c, 20)
        watch = [c.cells[0].outputs[0]]
        ev = EventDrivenBackend(c, monitor=watch).run(iter(vectors))
        wf = LanesBackend(c, monitor=watch).run(iter(vectors))
        _assert_stats_equal(ev, wf)
        assert set(wf.per_node) <= set(watch)

    def test_mapping_vectors_with_carry_over(self, xor_chain):
        in0 = xor_chain.net("in0")
        in2 = xor_chain.net("in2")
        vectors = [{in0: 1}, {in2: 1}, {in0: 0, in2: 0}]
        ev = EventDrivenBackend(xor_chain).run(
            iter(vectors), warmup=[0, 1, 0]
        )
        wf = LanesBackend(xor_chain).run(
            iter(vectors), warmup=[0, 1, 0]
        )
        _assert_stats_equal(ev, wf)

    def test_mapping_key_validation(self, xor_chain):
        internal = xor_chain.net("x1")
        with pytest.raises(ValueError, match="not a primary input"):
            LanesBackend(xor_chain).run(
                [{internal: 1}], warmup=[0, 0, 0]
            )


class TestWarmupAndResume:
    def test_initial_state_resume_matches_full_run(self, rng):
        """Splitting any stream at any point is invisible in the merge."""
        for trial in range(6):
            c = random_dag_circuit(
                rng, n_inputs=4, n_gates=18, with_ffs=True
            )
            vectors = _random_vectors(rng, c, 24)
            cut = rng.randint(1, len(vectors) - 1)
            whole = LanesBackend(c).run(iter(vectors))

            head = LanesBackend(c).run(iter(vectors[:cut]))
            tail = LanesBackend(c).run(
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

    def test_explicit_warmup_on_resume_matches_event(self, rng):
        c = random_dag_circuit(rng, n_inputs=3, n_gates=10, with_ffs=True)
        vectors = _random_vectors(rng, c, 10)
        start = _random_vectors(rng, c, 1)[0]
        ev = EventDrivenBackend(c).run(
            iter(vectors), warmup=start,
            initial_values=[0] * len(c.nets), initial_ff_state={},
        )
        wf = LanesBackend(c).run(
            iter(vectors), warmup=start,
            initial_values=[0] * len(c.nets), initial_ff_state={},
        )
        _assert_stats_equal(ev, wf)

    def test_bitparallel_boundary_handoff(self, rng):
        """Fast-forward in zero-delay mode, continue glitch-exact."""
        c = random_dag_circuit(rng, n_inputs=4, n_gates=16, with_ffs=True)
        vectors = _random_vectors(rng, c, 30)
        ff = LanesBackend(c, ZeroDelay(), monitor=()).run(
            iter(vectors[:20])
        )
        wf = LanesBackend(c).run(
            iter(vectors[20:]),
            initial_values=ff.final_values,
            initial_ff_state=ff.final_ff_state,
        )
        ev = EventDrivenBackend(c).run(
            iter(vectors[20:]),
            initial_values=ff.final_values,
            initial_ff_state=ff.final_ff_state,
        )
        _assert_stats_equal(ev, wf)


class TestActivitySession:
    def test_sharded_waveform_equals_unsharded_event(self, rng):
        for shards, processes in ((3, None), (4, 2)):
            c = random_dag_circuit(
                rng, n_inputs=5, n_gates=25, with_ffs=True
            )
            vectors = _random_vectors(rng, c, 41)
            reference = ActivityRun(c, backend="event").run(iter(vectors))
            run = ActivityRun(c, backend="lanes")
            sharded = run.run_sharded(
                iter(vectors), shards=shards, processes=processes
            )
            assert sharded.cycles == reference.cycles
            assert sharded.per_node == reference.per_node

    def test_zero_delay_session_rejected(self, xor_chain):
        # Dual-mode: ZeroDelay selects the settled mode rather than an
        # error; only the event engine, which has no such mode,
        # rejects a zero-delay session.
        run = ActivityRun(
            xor_chain, delay_model=ZeroDelay(), backend="waveform"
        )
        assert run.backend_name == "lanes" and not run.exact_glitches
        with pytest.raises(ValueError, match="ZeroDelay hides"):
            ActivityRun(xor_chain, delay_model=ZeroDelay(), backend="event")

    def test_figure5_pinned_with_waveform_backend(self):
        """The paper's Figure 5 numbers, bit-exact on the lanes engine."""
        from repro.circuits.adders import build_rca_circuit
        from repro.sim.vectors import WordStimulus

        circuit, ports = build_rca_circuit(16, with_cin=False)
        stim = WordStimulus({"a": ports["a"], "b": ports["b"]})
        result = ActivityRun(circuit, backend="lanes").run(
            stim.random(random.Random(1995), 4001)
        )
        summary = result.summary()
        assert summary["cycles"] == 4000
        assert summary["total"] == 117990
        assert summary["useful"] == 63200
        assert summary["useless"] == 54790
        assert summary["rises"] == 58994
        assert summary["L/F"] == pytest.approx(0.8669, abs=1e-4)


@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_waveform_equals_event_property(data):
    """Hypothesis: RunStats identity on random circuit/delay/stream."""
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
    wf = LanesBackend(c, dm, batch_cycles=batch).run(iter(vectors))
    _assert_stats_equal(ev, wf)
