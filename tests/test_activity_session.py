"""Tests for the ActivityRun session API: sharding, merging, regression.

The sharding tests assert *exact* equality with the unsharded run —
shard boundaries are fast-forwarded with the zero-delay engine, which
provably reproduces the event-driven settled state, so merged results
must be bit-identical, not merely statistically close.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.circuits.adders import build_rca_circuit
from repro.circuits.direction_detector import build_direction_detector
from repro.core.activity import ActivityResult, ActivityRun, analyze
from repro.core.transitions import NodeActivity
from repro.experiments.detector import detector_stimulus
from repro.retime.pipeline import pipeline_circuit
from repro.sim.backends import available_backends
from repro.sim.delays import SumCarryDelay, ZeroDelay
from repro.sim.engine import Simulator
from repro.sim.vectors import WordStimulus


def _rca(n_bits=8):
    circuit, ports = build_rca_circuit(n_bits, with_cin=False)
    stim = WordStimulus({"a": ports["a"], "b": ports["b"]})
    return circuit, stim


class TestRunBasics:
    def test_run_equals_analyze(self):
        circuit, stim = _rca()
        vectors = [dict(v) for v in stim.random(random.Random(1), 51)]
        a = ActivityRun(circuit).run(iter(vectors))
        b = analyze(circuit, iter(vectors))
        assert a.per_node == b.per_node
        assert a.summary() == b.summary()

    def test_event_backend_rejects_zero_delay(self):
        circuit, _ = _rca(4)
        with pytest.raises(ValueError, match="ZeroDelay"):
            ActivityRun(circuit, delay_model=ZeroDelay(), backend="event")

    def test_unknown_backend_rejected(self):
        circuit, _ = _rca(4)
        with pytest.raises(ValueError, match="unknown simulation backend"):
            ActivityRun(circuit, backend="spice")

    def test_bitparallel_counts_only_useful(self):
        circuit, stim = _rca()
        vectors = [dict(v) for v in stim.random(random.Random(2), 81)]
        ev = ActivityRun(circuit).run(iter(vectors))
        bp = ActivityRun(circuit, backend="bitparallel").run(iter(vectors))
        assert bp.useless == 0
        assert bp.total_transitions == ev.useful
        assert bp.delay_description == "zero delay (lanes)"

    def test_bitparallel_rejects_timed_delay_model(self):
        circuit, _ = _rca(4)
        for name in ("bitparallel", "bit-parallel", "batch"):
            with pytest.raises(ValueError, match="zero-delay"):
                ActivityRun(circuit, delay_model=SumCarryDelay(), backend=name)

    def test_step_exception_leaves_no_stale_events(self):
        """A failed step must not corrupt subsequent cycles."""
        circuit, stim = _rca(4)
        vectors = [dict(v) for v in stim.random(random.Random(13), 6)]
        clean = Simulator(circuit)
        clean.settle(vectors[0])
        reference = [clean.step(v).toggles for v in vectors[1:]]

        sim = Simulator(circuit)
        sim.settle(vectors[0])
        with pytest.raises(ValueError):
            sim.step({-1: 1})  # rejected before any event is queued
        got = [sim.step(v).toggles for v in vectors[1:]]
        assert got == reference

    def test_step_traces_requires_event_backend(self):
        circuit, stim = _rca(4)
        run = ActivityRun(circuit, backend="bitparallel")
        with pytest.raises(ValueError, match="event-driven"):
            run.step_traces([stim.vector(a=1, b=2)])


class TestShardedEqualsSingle:
    @settings(max_examples=15, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**20),
        shards=st.integers(min_value=1, max_value=7),
        n_vectors=st.integers(min_value=1, max_value=40),
    )
    def test_rca_property(self, seed, shards, n_vectors):
        circuit, stim = _rca(6)
        vectors = [
            dict(v) for v in stim.random(random.Random(seed), n_vectors + 1)
        ]
        single = ActivityRun(circuit).run(iter(vectors))
        sharded = ActivityRun(circuit).run_sharded(
            iter(vectors), shards=shards
        )
        assert sharded.cycles == single.cycles
        assert sharded.per_node == single.per_node

    def test_detector_deterministic(self):
        circuit, ports = build_direction_detector(width=8)
        stim = detector_stimulus(ports)
        vectors = [dict(v) for v in stim.random(random.Random(7), 61)]
        single = ActivityRun(circuit).run(iter(vectors))
        sharded = ActivityRun(circuit).run_sharded(iter(vectors), shards=4)
        assert sharded.per_node == single.per_node
        assert sharded.summary() == single.summary()

    def test_sequential_circuit_state_fast_forward(self):
        """Pipelined detector: boundary FF state must be replayed exactly."""
        base, ports = build_direction_detector(width=8, register_inputs=True)
        pipelined = pipeline_circuit(base, 2).circuit
        stim = detector_stimulus(ports)
        vectors = [dict(v) for v in stim.random(random.Random(9), 41)]
        single = ActivityRun(pipelined).run(iter(vectors))
        sharded = ActivityRun(pipelined).run_sharded(iter(vectors), shards=5)
        assert sharded.per_node == single.per_node

    def test_non_unit_delay_model(self):
        circuit, stim = _rca(6)
        vectors = [dict(v) for v in stim.random(random.Random(4), 31)]
        model = SumCarryDelay(dsum=2, dcarry=1)
        single = ActivityRun(circuit, delay_model=model).run(iter(vectors))
        sharded = ActivityRun(circuit, delay_model=model).run_sharded(
            iter(vectors), shards=3
        )
        assert sharded.per_node == single.per_node

    def test_multiprocessing_workers(self):
        circuit, stim = _rca(8)
        vectors = [dict(v) for v in stim.random(random.Random(5), 61)]
        single = ActivityRun(circuit).run(iter(vectors))
        sharded = ActivityRun(circuit).run_sharded(
            iter(vectors), shards=4, processes=2
        )
        assert sharded.per_node == single.per_node

    def test_explicit_warmup(self):
        circuit, stim = _rca(6)
        warm = stim.vector(a=0, b=0)
        vectors = [dict(v) for v in stim.random(random.Random(6), 20)]
        single = ActivityRun(circuit).run(iter(vectors), warmup=warm)
        sharded = ActivityRun(circuit).run_sharded(
            iter(vectors), shards=3, warmup=warm
        )
        assert sharded.per_node == single.per_node
        assert sharded.cycles == 20  # nothing consumed as implicit warm-up

    def test_more_shards_than_vectors(self):
        circuit, stim = _rca(4)
        vectors = [dict(v) for v in stim.random(random.Random(8), 4)]
        single = ActivityRun(circuit).run(iter(vectors))
        sharded = ActivityRun(circuit).run_sharded(iter(vectors), shards=16)
        assert sharded.per_node == single.per_node

    def test_bad_shard_count(self):
        circuit, stim = _rca(4)
        with pytest.raises(ValueError, match="shards"):
            ActivityRun(circuit).run_sharded([], shards=0)

    def test_empty_stream(self):
        circuit, _ = _rca(4)
        result = ActivityRun(circuit).run_sharded(iter([]), shards=3)
        assert result.cycles == 0 and result.per_node == {}


class TestMergeErrorPaths:
    def _result(self, name="c", delay="unit delay"):
        r = ActivityResult(name, delay, cycles=5)
        r.per_node[0] = NodeActivity(
            toggles=3, rises=2, useful=1, useless=2, cycles_active=2
        )
        return r

    def test_merge_different_circuits_rejected(self):
        a, b = self._result("c1"), self._result("c2")
        with pytest.raises(ValueError, match="different circuits"):
            a.merge(b)

    def test_merge_different_delay_models_rejected(self):
        a = self._result(delay="unit delay")
        b = self._result(delay="dsum=2, dcarry=1 (others 1)")
        with pytest.raises(ValueError, match="different delay models"):
            a.merge(b)

    def test_merge_accumulates(self):
        a, b = self._result(), self._result()
        a.merge(b)
        assert a.cycles == 10
        assert a.per_node[0].toggles == 6
        assert a.per_node[0].useful == 2

    def test_merge_disjoint_nodes_copies(self):
        a = self._result()
        b = self._result()
        b.per_node = {1: NodeActivity(toggles=1, rises=1, useful=1)}
        a.merge(b)
        assert set(a.per_node) == {0, 1}
        # The copy must be independent of the source record.
        b.per_node[1].toggles = 99
        assert a.per_node[1].toggles == 1


class TestFfActivity:
    def test_matches_manual_simulator_measurement(self):
        base, ports = build_direction_detector(width=8, register_inputs=True)
        circuit = pipeline_circuit(base, 1).circuit
        stim = detector_stimulus(ports)
        vectors = [dict(v) for v in stim.random(random.Random(11), 41)]

        sim = Simulator(circuit)
        sim.settle(vectors[0])
        ff_d = [c.inputs[0] for c in circuit.flipflops]
        prev = [sim.values[n] for n in ff_d]
        changes = 0
        for vec in vectors[1:]:
            sim.step(vec)
            cur = [sim.values[n] for n in ff_d]
            changes += sum(1 for p, q in zip(prev, cur) if p != q)
            prev = cur
        expected = changes / (len(ff_d) * 40)

        got = ActivityRun(circuit).ff_activity(iter(vectors))
        assert got["flipflops"] == len(ff_d)
        assert got["cycles"] == 40
        assert got["mean_d_activity"] == pytest.approx(expected, abs=1e-12)

    def test_combinational_circuit(self):
        circuit, stim = _rca(4)
        got = ActivityRun(circuit).ff_activity(
            stim.random(random.Random(1), 10)
        )
        assert got == {"flipflops": 0, "cycles": 0, "mean_d_activity": 0.0}


class TestFigure5Regression:
    """Pin the seed's Figure 5 numbers bit-exactly.

    The paper reports 119002 total and L/F = 0.88 for the 16-bit RCA
    under 4000 random vectors; this reproduction's seeded stimulus
    gives 117990 / 0.8669 (within 1% of the paper).  Any engine change
    that shifts these counts by even one transition is a semantics
    regression, not noise.
    """

    def test_rca16_4000_vectors_pinned(self):
        from repro.experiments.rca import figure5_experiment

        data = figure5_experiment(n_bits=16, n_vectors=4000, seed=1995)
        sim = data["simulated"]
        assert sim["cycles"] == 4000
        assert sim["total"] == 117990
        assert sim["useful"] == 63200
        assert sim["useless"] == 54790
        assert sim["rises"] == 58994
        assert sim["glitches"] == 27395
        assert sim["L/F"] == pytest.approx(0.8669, abs=1e-4)

    @pytest.mark.parametrize("backend", available_backends())
    def test_pinned_on_every_engine(self, backend):
        circuit, stim = _rca(16)
        result = ActivityRun(circuit, backend=backend).run(
            stim.random(random.Random(1995), 4001)
        )
        summary = result.summary()
        assert (summary["cycles"], summary["total"]) == (4000, 117990)
        assert (summary["useful"], summary["useless"]) == (63200, 54790)
        assert summary["L/F"] == pytest.approx(0.8669, abs=1e-4)
