"""Tests for the design-space exploration subsystem (:mod:`repro.explore`)."""

import collections
import dataclasses
import gc
import random
import weakref

import pytest

from repro.circuits.adders import build_rca_circuit
from repro.circuits.catalog import build_named_circuit
from repro.core.activity import ActivityRun
from repro.explore.cost import (
    CostContext,
    CostVector,
    estimated_cost,
    rank_agreement,
    simulated_cost,
    transition_instants,
)
from repro.explore.pareto import dominated_with_margin, pareto_front
from repro.explore.search import ExploreResult, explore, explore_key
from repro.explore.specs import (
    ExploreSpace,
    TransformSpec,
    apply_chain,
    default_space,
    describe_chain,
)
from repro.netlist.cells import CellKind
from repro.netlist.circuit import Circuit
from repro.netlist.io import words_from_inputs
from repro.opt.balance import balance_paths
from repro.retime.pipeline import pipeline_circuit
from repro.service.jobs import CircuitTask, run_circuit_tasks
from repro.service.store import EXPLORE, ResultStore, payload_summary
from repro.obs import trace as obs
from repro.sim.delays import UnitDelay
from repro.sim.engine import Simulator
from repro.sim.vectors import UniformStimulus, WordStimulus


def _equivalent(c1: Circuit, c2: Circuit, rng, trials=40) -> bool:
    for _ in range(trials):
        bits = [rng.randint(0, 1) for _ in c1.inputs]
        v1, _ = c1.evaluate(bits)
        v2, _ = c2.evaluate(bits)
        if [v1[n] for n in c1.outputs] != [v2[n] for n in c2.outputs]:
            return False
    return True


class TestTransformSpec:
    def test_make_describe_roundtrip(self):
        spec = TransformSpec.make("retime", stages=2)
        assert spec.describe() == "retime(stages=2)"
        assert TransformSpec.from_dict(spec.to_dict()) == spec
        assert hash(spec) == hash(TransformSpec.make("retime", stages=2))

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown transform"):
            TransformSpec.make("fuse_everything")

    def test_bad_retime_stages_rejected(self):
        base, _ = build_rca_circuit(4, with_cin=False)
        spec = TransformSpec.make("retime", stages=-1)
        with pytest.raises(ValueError, match="stages"):
            spec.apply(base, UnitDelay())

    def test_apply_preserves_function(self, rng):
        base, _ = build_rca_circuit(6, with_cin=False)
        for spec in (
            TransformSpec.make("balance"),
            TransformSpec.make("cleanup"),
            TransformSpec.make("strip_buffers"),
        ):
            out, _ = spec.apply(base, UnitDelay())
            assert _equivalent(base, out, rng)

    def test_chain_latency_sums(self):
        base, _ = build_rca_circuit(4, with_cin=False)
        chain = (
            TransformSpec.make("retime", stages=1),
            TransformSpec.make("retime", stages=2),
        )
        circuit, info = apply_chain(base, chain, UnitDelay())
        assert info["latency"] == 3
        assert circuit.num_flipflops > 0
        assert describe_chain(chain) == "retime(stages=1)+retime(stages=2)"
        assert describe_chain(()) == "original"

    def test_space_fingerprint_roundtrip(self):
        space = default_space(max_stages=1, max_depth=2)
        assert space.fingerprint() == ExploreSpace.from_dict(
            space.to_dict()
        ).fingerprint()
        assert space.fingerprint() != default_space(max_depth=1).fingerprint()

    def test_space_validation(self):
        with pytest.raises(ValueError, match="max_depth"):
            ExploreSpace(
                transforms=(TransformSpec.make("balance"),), max_depth=0
            )
        with pytest.raises(ValueError, match="at least one"):
            ExploreSpace(transforms=(), max_depth=1)


class TestTransitionInstants:
    def test_balanced_circuit_single_instant(self):
        base, _ = build_rca_circuit(8, with_cin=False)
        balanced, _ = balance_paths(base)
        counts = transition_instants(balanced, UnitDelay())
        driven = [
            n.index for n in balanced.nets if n.driver is not None
        ]
        assert all(counts[n] == 1 for n in driven)

    def test_glitchy_and_two_instants(self, glitchy_and):
        counts = transition_instants(glitchy_and, UnitDelay())
        # AND sees a at t=0 and NOT(a) at t=1 -> output can change at 1, 2.
        assert counts[glitchy_and.net("y")] == 2

    def test_rca_carry_chain_grows(self):
        base, ports = build_rca_circuit(8, with_cin=False)
        counts = transition_instants(base, UnitDelay())
        sums = [counts[n] for n in ports["sums"]]
        # One extra potential evaluation per ripple stage.
        assert sums == list(range(1, 9))

    def test_constant_and_undriven_nets_never_transition(self):
        c = Circuit("t")
        a = c.add_input("a")
        one = c.add_cell(CellKind.CONST1, [], name="k").outputs[0]
        y = c.gate(CellKind.AND, a, one, name="g")
        c.mark_output(y)
        counts = transition_instants(c, UnitDelay())
        assert counts[one] == 0
        assert counts[y] == 1


class TestCostModel:
    def test_estimate_matches_sim_on_balanced_fanout_tree(self):
        # A fanout tree has no reconvergence and, balanced, no
        # glitches: both cost paths see the same per-net rates, so the
        # power figures agree closely.
        base, _ = build_rca_circuit(6, with_cin=False)
        balanced, _ = balance_paths(base)
        context = CostContext()
        spec = UniformStimulus()
        est = estimated_cost(balanced, UnitDelay(), spec, context)
        stim = WordStimulus(words_from_inputs(balanced))
        activity = ActivityRun(balanced, delay_model=UnitDelay()).run(
            spec.vectors(stim, 401)
        )
        sim = simulated_cost(balanced, activity, UnitDelay(), context)
        assert est.area_mm2 == sim.area_mm2
        assert est.period == sim.period
        assert est.power_mw == pytest.approx(sim.power_mw, rel=0.15)

    def test_glitchy_costs_more_than_balanced_estimate(self):
        circuit, _ = build_named_circuit("array4")
        context = CostContext()
        spec = UniformStimulus()
        est_orig = estimated_cost(circuit, UnitDelay(), spec, context)
        balanced, _ = balance_paths(circuit)
        est_bal = estimated_cost(balanced, UnitDelay(), spec, context)
        # The glitch multiplier only ever inflates the original's logic
        # term; the balanced variant pays buffers instead.
        assert est_orig.power_mw > 0
        assert est_bal.area_mm2 > est_orig.area_mm2

    def test_estimate_builds_no_density_pass(self, monkeypatch):
        """The candidate estimate reads useful rates only: it never
        runs the transition-density pass, and its costs are the same
        with that pass made to fail."""
        from repro.estimate import density
        from repro.estimate.workload import estimate_workload

        def costs():
            array8, _ = build_named_circuit("array8")
            estimate = estimated_cost(
                array8, UnitDelay(), UniformStimulus(), CostContext()
            )
            rca8, _ = build_named_circuit("rca8")
            result = explore(rca8, n_vectors=24)
            return estimate, [
                (c.label, c.estimate, c.exact) for c in result.candidates
            ]

        expected = costs()

        def refuse(steps, p, d):
            raise AssertionError("density pass run")

        monkeypatch.setattr(density, "density_pass", refuse)
        # The patch is live: a full estimate does run the density pass.
        with pytest.raises(AssertionError, match="density pass run"):
            estimate_workload(build_named_circuit("rca4")[0])
        assert costs() == expected

    def test_dominates(self):
        a = CostVector(1.0, 1.0, 0, period=4)
        b = CostVector(2.0, 1.0, 0, period=4)
        c = CostVector(0.5, 2.0, 0, period=4)
        assert a.dominates(b)
        assert not b.dominates(a)
        assert not a.dominates(c) and not c.dominates(a)
        assert not a.dominates(a)

    def test_cost_vector_roundtrip(self):
        v = CostVector(1.25, 0.5, 2, period=7)
        assert CostVector.from_dict(v.to_dict()) == v

    def test_rank_agreement(self):
        assert rank_agreement([1, 2, 3], [10, 20, 30]) == 1.0
        assert rank_agreement([1, 2, 3], [30, 20, 10]) == -1.0
        assert rank_agreement([1.0], [5.0]) == 1.0
        with pytest.raises(ValueError):
            rank_agreement([1, 2], [1])


class TestPareto:
    def test_front_extraction(self):
        costs = {
            "a": CostVector(1.0, 3.0, 0, period=5),
            "b": CostVector(2.0, 1.0, 0, period=5),
            "c": CostVector(2.5, 1.5, 0, period=5),  # dominated by b
            "d": CostVector(3.0, 3.0, 0, period=2),  # best period
        }
        front = pareto_front(list(costs), lambda k: costs[k])
        assert front == ["a", "b", "d"]

    def test_exact_ties_both_kept(self):
        costs = [CostVector(1.0, 1.0, 0, 3), CostVector(1.0, 1.0, 1, 3)]
        assert len(pareto_front([0, 1], lambda i: costs[i])) == 2

    def test_dominated_with_margin(self):
        base = CostVector(1.0, 1.0, 0, period=5)
        worse = CostVector(1.2, 1.0, 0, period=5)
        slightly = CostVector(1.04, 1.0, 0, period=5)
        assert dominated_with_margin(worse, [base, worse], 0.05)
        assert not dominated_with_margin(slightly, [base, slightly], 0.05)
        # Better on power but worse on an exact axis: never pruned.
        fast = CostVector(3.0, 1.0, 0, period=2)
        assert not dominated_with_margin(fast, [base, fast], 0.05)


class TestRunCircuitTasks:
    def test_matches_direct_run(self):
        circuit, _ = build_named_circuit("rca6")
        spec = UniformStimulus()
        task = CircuitTask.from_circuit(circuit, "unit", spec, 50)
        (result,) = run_circuit_tasks([task])
        stim = WordStimulus(words_from_inputs(circuit))
        direct = ActivityRun(circuit, delay_model=UnitDelay()).run(
            spec.vectors(stim, 51)
        )
        assert result.cycles == direct.cycles
        assert result.summary()["total"] == direct.total_transitions

    def test_fingerprint_identical_tasks_computed_once(self, tmp_path):
        circuit, _ = build_named_circuit("rca4")
        spec = UniformStimulus()
        store = ResultStore(tmp_path)
        tasks = [
            CircuitTask.from_circuit(circuit, "unit", spec, 30, label="one"),
            CircuitTask.from_circuit(circuit, "unit", spec, 30, label="two"),
        ]
        results = run_circuit_tasks(tasks, store=store)
        assert results[0] == results[1]
        assert len(store) == 1  # one digest for both labels

    def test_warm_resume_serves_from_store(self, tmp_path, monkeypatch):
        circuit, _ = build_named_circuit("rca4")
        spec = UniformStimulus()
        store = ResultStore(tmp_path)
        task = CircuitTask.from_circuit(circuit, "unit", spec, 30)
        (cold,) = run_circuit_tasks([task], store=store)
        import repro.service.jobs as jobs

        def _boom(task):
            raise AssertionError("warm resume must not simulate")

        # In process, a miss is computed by _simulate_circuit_task.
        monkeypatch.setattr(jobs, "_simulate_circuit_task", _boom)
        (warm,) = run_circuit_tasks([task], store=ResultStore(tmp_path))
        assert warm == cold


class TestExplore:
    def test_rejects_bad_inputs(self):
        circuit, _ = build_named_circuit("rca4")
        with pytest.raises(ValueError, match="strategy"):
            explore(circuit, strategy="random-walk")
        with pytest.raises(ValueError, match="beam_width"):
            explore(circuit, beam_width=0)
        with pytest.raises(ValueError, match="glitch-capable"):
            explore(circuit, space=default_space(delay="zero"))

    def test_exhaustive_front_contains_original_unless_shrunk(self):
        circuit, _ = build_named_circuit("rca4")
        result = explore(circuit, strategy="exhaustive", n_vectors=40)
        original = result.candidate("original")
        # The original has minimum area among unconstrained candidates
        # (transforms only ever add cells on an RCA), so it is
        # non-dominated.
        assert original.on_front

    def test_duplicate_chains_merged_by_fingerprint(self):
        circuit, _ = build_named_circuit("rca4")
        result = explore(circuit, strategy="exhaustive", n_vectors=30)
        original = result.candidate("original")
        # cleanup is a structural no-op on an RCA: its chains collapse
        # into the original candidate.
        assert "cleanup" in original.merged
        assert result.candidate("cleanup") is original
        labels = [c.label for c in result.candidates]
        assert len(labels) == len(set(labels))

    def test_constraints_exclude_candidates_from_front(self):
        circuit, _ = build_named_circuit("rca4")
        free = explore(circuit, strategy="exhaustive", n_vectors=30)
        biggest = max(
            (c for c in free.candidates if c.exact is not None),
            key=lambda c: c.exact.area_mm2,
        )
        tight = explore(
            circuit,
            space=default_space(max_area_mm2=biggest.exact.area_mm2 * 0.99),
            strategy="exhaustive",
            n_vectors=30,
        )
        infeasible = tight.candidate(biggest.label)
        assert not infeasible.feasible
        assert not infeasible.on_front
        assert infeasible.exact is None  # constraints also skip its sim

    def test_latency_constraint(self):
        circuit, _ = build_named_circuit("rca4")
        result = explore(
            circuit,
            space=default_space(max_latency=0),
            strategy="exhaustive",
            n_vectors=30,
        )
        for c in result.candidates:
            if c.latency > 0:
                assert not c.feasible

    def test_greedy_is_beam_width_one(self):
        circuit, _ = build_named_circuit("rca4")
        result = explore(circuit, strategy="greedy", n_vectors=30)
        assert result.beam_width == 1
        assert result.strategy == "greedy"

    def test_payload_roundtrip(self):
        circuit, _ = build_named_circuit("rca4")
        result = explore(circuit, strategy="beam", n_vectors=30)
        payload = result.to_payload()
        back = ExploreResult.from_payload(payload)
        assert back.summary() == result.summary()
        assert [c.label for c in back.front()] == [
            c.label for c in result.front()
        ]
        # Serialized costs are rounded to reporting precision.
        assert back.candidate("original").exact == CostVector.from_dict(
            result.candidate("original").exact.to_dict()
        )

    def test_payload_summary_shape(self):
        circuit, _ = build_named_circuit("rca4")
        result = explore(circuit, strategy="beam", n_vectors=30)
        summary = payload_summary(result.to_payload())
        assert summary["candidates"] == len(result.candidates)
        assert summary["simulated"] == result.n_simulated
        assert summary["front"] >= 1
        assert "total" in summary  # the key every store surface tabulates

    def test_whole_result_cached(self, tmp_path, monkeypatch):
        circuit, _ = build_named_circuit("rca4")
        store = ResultStore(tmp_path)
        cold = explore(circuit, strategy="beam", n_vectors=30, store=store)
        key = explore_key(
            circuit, default_space(), UniformStimulus(), 30, "beam", 4,
            CostContext(), 0.05,
        )
        assert key.result_class == EXPLORE
        assert key in store
        # A warm run must neither estimate nor simulate anything.
        import repro.explore.search as search

        monkeypatch.setattr(
            search, "_expand_candidates",
            lambda *a, **k: pytest.fail("warm explore must not expand"),
        )
        monkeypatch.setattr(
            search, "run_circuit_tasks",
            lambda *a, **k: pytest.fail("warm explore must not simulate"),
        )
        warm = explore(
            circuit, strategy="beam", n_vectors=30,
            store=ResultStore(tmp_path),
        )
        assert warm.summary() == cold.summary()

    def test_custom_cost_models_bypass_whole_result_cache(self, tmp_path):
        from repro.tech.library import TechnologyLibrary

        circuit, _ = build_named_circuit("rca4")
        store = ResultStore(tmp_path)
        context = CostContext(tech=TechnologyLibrary())
        assert not context.cacheable
        explore(
            circuit, strategy="beam", n_vectors=30, store=store,
            context=context,
        )
        # Candidate sims cached, but no explore-class entry (a custom
        # model subclass could change costs without changing the key).
        classes = {e["key"]["result_class"] for e in store.entries()}
        assert EXPLORE not in classes
        assert "glitch-exact" in classes

    def test_payload_with_delta_reuse_frac_decodes(self):
        # Payloads stored by earlier versions carry a reuse statistic
        # this version neither writes nor reads.
        circuit, _ = build_named_circuit("rca4")
        result = explore(
            circuit, default_space(max_depth=1), strategy="beam",
            beam_width=2, n_vectors=8,
        )
        payload = result.to_payload()
        assert "delta_reuse_frac" not in payload
        payload["delta_reuse_frac"] = 0.75
        back = ExploreResult.from_payload(payload)
        assert back.summary() == result.summary()
        assert [c.label for c in back.front()] == [
            c.label for c in result.front()
        ]

    def test_deduplicated_chains_skip_estimate_work(self, monkeypatch):
        import repro.explore.search as search

        calls = []
        real = search.estimated_cost

        def counting(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(search, "estimated_cost", counting)
        circuit, _ = build_named_circuit("rca4")
        with obs.capture() as rec:
            result = explore(
                circuit, default_space(max_depth=2), strategy="beam",
                beam_width=4, n_vectors=8,
            )
        # Estimation ran at most once per *unique* candidate; the
        # fingerprint-collapsed chains cost no estimator work and were
        # charged to the prune counter.
        assert len(calls) <= len(result.candidates)
        collapsed = result.n_enumerated - len(result.candidates)
        assert collapsed > 0
        counters = rec.metrics.snapshot()["counters"]
        assert counters.get("explore.pruned", 0) >= collapsed

    def test_second_explore_on_same_circuit_applies_no_transform(
        self, monkeypatch
    ):
        circuit, _ = build_named_circuit("rca4")
        space = default_space(max_depth=2)
        first = explore(circuit, space, strategy="beam", n_vectors=8)
        calls = []
        real = TransformSpec.apply

        def counting(self, *args, **kwargs):
            calls.append(self)
            return real(self, *args, **kwargs)

        monkeypatch.setattr(TransformSpec, "apply", counting)
        second = explore(circuit, space, strategy="beam", n_vectors=8)
        assert calls == []
        assert second.summary() == first.summary()
        # A fresh build of the same netlist is a different parent
        # object, so its transforms do run.
        fresh, _ = build_named_circuit("rca4")
        explore(fresh, space, strategy="beam", n_vectors=8)
        assert calls

    def test_memos_release_explored_circuits(self):
        # The transform and retiming-graph memos are weak-keyed by
        # circuit; no memo value may point back at its key, or the root
        # and every candidate it spawned would live until exit.
        circuit, _ = build_named_circuit("array8")
        root = weakref.ref(circuit)
        explore(circuit, n_vectors=24)
        del circuit
        gc.collect()
        assert root() is None

    def test_explore_pays_once_per_distinct_candidate(self, monkeypatch):
        """No transform rebuilds a circuit only for it to merge into its
        parent, and such a result is merged without a fingerprint."""
        import repro.explore.specs as specs
        import repro.netlist.compiled as compiled
        import repro.opt.balance as balance_module

        fingerprinted, balanced = [], []
        real_fp, real_balance = compiled.circuit_fingerprint, specs.balance_paths

        def fingerprint(circuit):
            fingerprinted.append(circuit.name)
            return real_fp(circuit)

        def balance(circuit, *args, **kwargs):
            out = real_balance(circuit, *args, **kwargs)
            balanced.append(out[1].buffers_inserted)
            return out

        monkeypatch.setattr(compiled, "circuit_fingerprint", fingerprint)
        monkeypatch.setattr(specs, "balance_paths", balance)
        monkeypatch.setattr(
            specs, "propagate_constants",
            lambda *a: pytest.fail("cleanup rebuilt a circuit it reproduces"),
        )
        monkeypatch.setattr(  # the check and the pass share one lookup
            balance_module, "compile_circuit",
            lambda *a: pytest.fail("balance looked its levels up again"),
        )
        circuit, _ = build_named_circuit("array8")
        with obs.capture() as rec:
            result = explore(circuit, default_space(max_depth=3), n_vectors=8)
        assert (len(result.candidates), result.n_enumerated) == (16, 33)
        # balance ran on the three unbalanced parents it was applied to,
        # and no-op'd on the balanced ones.
        assert len(balanced) == 3 and min(balanced) > 0
        outcomes = collections.Counter(
            (e["args"]["kind"], e["args"]["outcome"])
            for e in rec.find("explore.transform")
        )
        assert outcomes == {
            ("cleanup", "noop"): 8, ("balance", "noop"): 5,
            ("balance", "rebuilt"): 3, ("retime", "rebuilt"): 16,
        }
        # The root and the 19 rebuilt results, each fingerprinted once.
        assert len(fingerprinted) == 20

    @pytest.mark.parametrize("delay", ["unit", "sumcarry"])
    def test_explore_compiles_each_circuit_once(self, delay):
        """The estimator reads structure from the unit-delay snapshot and
        the timing reads the explored model's; both share one structural
        pass per circuit, the one ``compile`` span."""
        circuit, _ = build_named_circuit("array8")
        with obs.capture() as rec:
            result = explore(circuit, default_space(delay, max_depth=3), n_vectors=8)
        compiles = collections.Counter(e["args"]["circuit"] for e in rec.find("compile"))
        assert len(compiles) == len(result.candidates)  # the root included
        assert set(compiles.values()) == {1}

    def test_v1_explore_entries_are_not_served(self, tmp_path):
        """An explore entry stored before costs were stored unrounded sits
        under the ``explore-v1`` key, which this build no longer reads."""
        from repro.netlist.compiled import content_digest

        circuit, _ = build_named_circuit("rca4")
        args = (default_space(), UniformStimulus(), 30, "beam", 4, CostContext(), 0.05)
        key = explore_key(circuit, *args)
        space, stimulus, _, strategy, width, context, margin = args
        v1 = dataclasses.replace(key, stimulus_fp=content_digest((
            "explore-v1", space.fingerprint(), stimulus.fingerprint(),
            strategy, width, margin, context.fingerprint_fields(),
        )))
        # The digest the previous build filed this request under.
        assert v1.digest() == (
            "f053c78db07e47bfa067de1d766fa8ca1e4928af3801a17682720bf0e5c17dfd"
        )
        assert key.digest() != v1.digest()
        cold = explore(circuit, strategy="beam", n_vectors=30)
        stale = cold.to_payload()
        stale["n_simulated"] = 999
        store = ResultStore(tmp_path)
        store.put(v1, stale)
        warm = explore(circuit, strategy="beam", n_vectors=30, store=store)
        assert warm.n_simulated == cold.n_simulated
        assert key in store

    def test_candidate_sims_shared_between_strategies(self, tmp_path):
        circuit, _ = build_named_circuit("rca4")
        beam_store = ResultStore(tmp_path)
        beam = explore(
            circuit, strategy="beam", n_vectors=30, store=beam_store
        )
        resumed = ResultStore(tmp_path)
        explore(
            circuit, strategy="exhaustive", n_vectors=30, store=resumed
        )
        # Every beam-simulated candidate was a warm hit for exhaustive.
        assert resumed.hits >= beam.n_simulated


@pytest.mark.integration
class TestAcceptanceArray8:
    """The PR's acceptance criterion, on the 8-bit array multiplier."""

    N_VECTORS = 100

    @pytest.fixture(scope="class")
    def runs(self):
        circuit, _ = build_named_circuit("array8")
        exhaustive = explore(
            circuit, strategy="exhaustive", n_vectors=self.N_VECTORS
        )
        beam = explore(circuit, strategy="beam", n_vectors=self.N_VECTORS)
        return circuit, exhaustive, beam

    def test_balanced_matches_balance_experiment_bit_exactly(self, runs):
        circuit, exhaustive, _ = runs
        candidate = exhaustive.candidate("balance")
        assert candidate.on_front
        # The balancing experiment's invariant: zero useless transitions.
        assert candidate.activity["useless"] == 0
        # Bit-exact against a direct balance_paths + ActivityRun pass
        # over the identical declarative stimulus.
        balanced, _ = balance_paths(circuit, UnitDelay())
        stim = WordStimulus(words_from_inputs(balanced))
        direct = ActivityRun(balanced, delay_model=UnitDelay()).run(
            UniformStimulus().vectors(stim, self.N_VECTORS + 1)
        )
        assert candidate.activity["useful"] == direct.useful
        assert candidate.activity["useless"] == direct.useless
        assert candidate.activity["total"] == direct.total_transitions

    def test_balanced_realizes_reduction_bound(self, runs):
        # 1 + L/F is the idealized glitch-free bound: the balanced
        # variant's transitions on the original nets equal the
        # original's useful count exactly.
        circuit, exhaustive, _ = runs
        original = exhaustive.candidate("original")
        balanced, _ = balance_paths(circuit, UnitDelay())
        stim = WordStimulus(words_from_inputs(balanced))
        direct = ActivityRun(balanced, delay_model=UnitDelay()).run(
            UniformStimulus().vectors(stim, self.N_VECTORS + 1)
        )
        original_nets = {n.name for n in circuit.nets}
        shared = sum(
            act.toggles
            for net, act in direct.per_node.items()
            if direct.node_names[net] in original_nets
        )
        assert shared == original.activity["useful"]

    def test_retimed_matches_retiming_power_methodology(self, runs):
        circuit, exhaustive, _ = runs
        candidate = exhaustive.candidate("retime(stages=1)")
        assert candidate.on_front
        pipelined = pipeline_circuit(circuit, 1, delay_model=UnitDelay())
        stim = WordStimulus(words_from_inputs(pipelined.circuit))
        direct = ActivityRun(
            pipelined.circuit, delay_model=UnitDelay()
        ).run(UniformStimulus().vectors(stim, self.N_VECTORS + 1))
        assert candidate.activity["useful"] == direct.useful
        assert candidate.activity["useless"] == direct.useless
        assert candidate.exact.period == pipelined.period

    def test_beam_reaches_same_front_with_strictly_fewer_sims(self, runs):
        _, exhaustive, beam = runs
        front_ex = sorted(c.label for c in exhaustive.front())
        front_beam = sorted(c.label for c in beam.front())
        assert front_ex == front_beam
        assert beam.n_simulated < exhaustive.n_simulated
        assert exhaustive.n_simulated == len(
            [c for c in exhaustive.candidates if c.feasible]
        )

    def test_rank_agreement_recorded(self, runs):
        _, exhaustive, beam = runs
        assert exhaustive.rank_agreement is not None
        assert exhaustive.rank_agreement > 0.5
        assert beam.rank_agreement is not None


#: Beam search on array8 (width 3, depth 3, 24 vectors): for every
#: unique candidate, in expansion order, its estimated and simulated
#: ``(power_mw, area_mm2, latency, period)`` (``None`` when the beam
#: pruned its simulation).
ARRAY8_BEAM3 = (
    ("original",
     (1.6507878400067408, 0.3195384615384615, 0, 15),
     (0.9977343750000012, 0.3195384615384615, 0, 15)),
    ("balance",
     (0.8984177184285143, 0.45307692307692304, 0, 15),
     (0.9162760416666679, 0.45307692307692304, 0, 15)),
    ("retime(stages=1)",
     (2.0502892470259724, 0.37538461538461537, 1, 8),
     (1.4601302083333338, 0.37538461538461537, 1, 8)),
    ("retime(stages=2)",
     (2.5753322551617943, 0.482, 2, 5),
     (2.34359375, 0.482, 2, 5)),
    ("balance+retime(stages=1)",
     (1.4739069434989231, 0.5089230769230769, 1, 8),
     (1.4961718750000004, 0.5089230769230769, 1, 8)),
    ("balance+retime(stages=2)",
     (2.546336230255555, 0.6155384615384616, 2, 5),
     None),
    ("retime(stages=1)+balance",
     (1.4616022559989224, 0.5046153846153847, 1, 8),
     (1.485234375000001, 0.5046153846153847, 1, 8)),
    ("retime(stages=1)+retime(stages=2)",
     (3.2500986715324354, 0.5505384615384615, 3, 4),
     (3.029713541666667, 0.5505384615384615, 3, 4)),
    ("retime(stages=2)+balance",
     (2.3285808639008296, 0.5398461538461539, 2, 5),
     (2.342526041666668, 0.5398461538461539, 2, 5)),
    ("retime(stages=2)+retime(stages=2)",
     (4.164531771239087, 0.6596923076923077, 4, 3),
     (4.057213541666667, 0.6596923076923077, 4, 3)),
    ("retime(stages=1)+balance+retime(stages=1)",
     (2.536473405522513, 0.6112307692307692, 2, 5),
     None),
    ("retime(stages=1)+balance+retime(stages=2)",
     (3.232242841648635, 0.6797692307692308, 3, 4),
     (3.257708333333334, 0.6797692307692308, 3, 4)),
    ("balance+retime(stages=1)+retime(stages=2)",
     (3.242574416381677, 0.684076923076923, 3, 4),
     (3.2670312500000005, 0.684076923076923, 3, 4)),
    ("retime(stages=2)+balance+retime(stages=1)",
     (3.166890107649604, 0.6083846153846154, 3, 4),
     (3.111510416666667, 0.6083846153846154, 3, 4)),
    ("retime(stages=2)+balance+retime(stages=2)",
     (4.236143238493905, 0.7175384615384616, 4, 3),
     (4.1967187500000005, 0.7175384615384616, 4, 3)),
)

ARRAY8_BEAM3_FRONT = [
    "balance", "original", "retime(stages=1)", "retime(stages=2)+balance",
    "retime(stages=2)", "retime(stages=1)+retime(stages=2)",
    "retime(stages=2)+retime(stages=2)",
]


#: The same kind of pin under the paper's Table 2 delays (dsum = 2,
#: dcarry = 1): array8, beam width 3, depth 2, 24 vectors.  The split
#: sum/carry delays move every period and glitch multiplier off the
#: unit-delay values above.
ARRAY8_SUMCARRY_BEAM2 = (
    ("original",
     (2.36805257039661, 0.3195384615384615, 0, 22),
     (1.154348958333334, 0.3195384615384615, 0, 22)),
    ("balance",
     (1.155314458767025, 0.5478461538461539, 0, 22),
     (1.1787760416666688, 0.5478461538461539, 0, 22)),
    ("retime(stages=1)",
     (2.615277823935685, 0.37538461538461537, 1, 15),
     (1.5866406250000005, 0.37538461538461537, 1, 15)),
    ("retime(stages=2)",
     (2.895228806577547, 0.482, 2, 9),
     (2.4238020833333334, 0.482, 2, 9)),
    ("balance+retime(stages=1)",
     (1.8637575947439347, 0.6113076923076923, 1, 18),
     None),
    ("balance+retime(stages=2)",
     (3.284328919855866, 0.7077692307692308, 2, 12),
     None),
    ("retime(stages=1)+balance",
     (1.6445910476304142, 0.5735384615384616, 1, 15),
     (1.673125, 0.5735384615384616, 1, 15)),
    ("retime(stages=1)+retime(stages=2)",
     (3.5407834792807913, 0.5505384615384615, 3, 8),
     (3.1122395833333334, 0.5505384615384615, 3, 8)),
    ("retime(stages=2)+balance",
     (2.449447326950638, 0.5872307692307693, 2, 9),
     (2.467526041666667, 0.5872307692307693, 2, 9)),
    ("retime(stages=2)+retime(stages=2)",
     (4.339301881791552, 0.6596923076923077, 4, 6),
     (4.1121875, 0.6596923076923077, 4, 6)),
)

ARRAY8_SUMCARRY_BEAM2_FRONT = [
    "original", "retime(stages=1)", "retime(stages=2)",
    "retime(stages=1)+retime(stages=2)", "retime(stages=2)+retime(stages=2)",
]


def _assert_cost(got, want, what):
    if want is None:
        assert got is None, what
        return
    power, area, latency, period = want
    assert got.power_mw == pytest.approx(power, rel=1e-12), what
    assert (got.area_mm2, got.latency, got.period) == (
        area, latency, period
    ), what


class TestPinnedFront:
    def test_array8_beam_depth3_front_pinned(self):
        circuit, _ = build_named_circuit("array8")
        result = explore(
            circuit, default_space(max_depth=3), strategy="beam",
            beam_width=3, n_vectors=24,
        )
        assert [c.label for c in result.candidates] == [
            row[0] for row in ARRAY8_BEAM3
        ]
        assert result.n_enumerated == 29
        assert [c.label for c in result.front()] == ARRAY8_BEAM3_FRONT
        for cand, (label, estimate, exact) in zip(
            result.candidates, ARRAY8_BEAM3
        ):
            _assert_cost(cand.estimate, estimate, f"{label} estimate")
            _assert_cost(cand.exact, exact, f"{label} exact")

    def test_array8_beam_depth2_sumcarry_front_pinned(self):
        circuit, _ = build_named_circuit("array8")
        result = explore(
            circuit, default_space(delay="sumcarry", max_depth=2),
            strategy="beam", beam_width=3, n_vectors=24,
        )
        assert [c.label for c in result.candidates] == [
            row[0] for row in ARRAY8_SUMCARRY_BEAM2
        ]
        assert result.n_enumerated == 17
        assert [c.label for c in result.front()] == ARRAY8_SUMCARRY_BEAM2_FRONT
        for cand, (label, estimate, exact) in zip(
            result.candidates, ARRAY8_SUMCARRY_BEAM2
        ):
            _assert_cost(cand.estimate, estimate, f"{label} estimate")
            _assert_cost(cand.exact, exact, f"{label} exact")


class TestChainEquivalence:
    """Every candidate explore emits implements its input, mod latency."""

    WARMUP = 6
    COMPARED = 24

    @pytest.mark.parametrize("name", ["rca4", "array4"])
    def test_exhaustive_depth2_candidates_sequentially_equivalent(
        self, name
    ):
        base, _ = build_named_circuit(name)
        result = explore(
            base, default_space(max_depth=2), strategy="exhaustive",
            n_vectors=8,
        )
        assert any(len(c.chain) == 2 for c in result.candidates)
        rng = random.Random(1995)
        for cand in result.candidates:
            lat = cand.latency
            n = self.WARMUP + self.COMPARED + lat
            vectors = [
                [rng.randint(0, 1) for _ in base.inputs] for _ in range(n)
            ]
            sim_ref = Simulator(base)
            sim_cand = Simulator(cand.circuit)
            sim_ref.settle(vectors[0])
            sim_cand.settle(vectors[0])
            ref, got = [], []
            for vec in vectors:
                sim_ref.step(vec)
                ref.append([sim_ref.values[o] for o in base.outputs])
                sim_cand.step(vec)
                got.append(
                    [sim_cand.values[o] for o in cand.circuit.outputs]
                )
            for k in range(self.WARMUP, n - lat):
                assert got[k + lat] == ref[k], (cand.label, k)
