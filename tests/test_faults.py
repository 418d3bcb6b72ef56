"""Chaos suite: sweeps under injected faults equal fault-free runs.

The acceptance property of the fault-tolerant execution layer: arm a
seeded :class:`~repro.service.faults.FaultPlan` combining worker
crashes, torn store writes, and a backend ``MemoryError``, run a real
catalog sweep through the batch scheduler, and every aggregate equals
the fault-free run bit for bit — because tasks are pure, retried
attempts recompute identical payloads, and the degradation chain's
tiers share one result class.  Store corruption that slips past the
run (torn writes land *after* the checksum is recorded) is then fully
detected by ``verify`` and healed by ``repair`` without touching
valid entries.
"""

import json
import os
import warnings

import pytest

from repro.service import faults
from repro.service.faults import FaultPlan, FaultSpec
from repro.service.jobs import BatchScheduler, JobSpec
from repro.service.pool import RetryPolicy
from repro.service.store import ResultStore, StoreWriteWarning
from repro.sim.backends import BackendDegradedWarning


#: CI pins this (REPRO_CHAOS_SEED) so a red chaos job replays exactly;
#: locally, vary it to explore other fault schedules — every assertion
#: below must hold for any seed.
CHAOS_SEED = int(os.environ.get("REPRO_CHAOS_SEED", "2026"))


@pytest.fixture(autouse=True)
def _disarmed():
    faults.disarm()
    yield
    faults.disarm()


class TestFaultPlanDeterminism:
    def test_decision_is_pure(self):
        plan = FaultPlan(
            seed=42, faults={"worker.crash": FaultSpec(rate=0.5)}
        )
        first = [
            plan.decides("worker.crash", f"key-{i}") for i in range(64)
        ]
        again = [
            plan.decides("worker.crash", f"key-{i}") for i in range(64)
        ]
        assert first == again
        assert any(first) and not all(first)  # rate 0.5 splits the keys

    def test_rate_extremes(self):
        always = FaultPlan(faults={"worker.crash": FaultSpec(rate=1.0)})
        never = FaultPlan(faults={"worker.crash": FaultSpec(rate=0.0)})
        for i in range(16):
            assert always.decides("worker.crash", f"k{i}")
            assert not never.decides("worker.crash", f"k{i}")

    def test_seed_changes_the_fired_set(self):
        keys = [f"key-{i}" for i in range(128)]
        fired = lambda seed: {  # noqa: E731
            k for k in keys
            if FaultPlan(
                seed=seed, faults={"worker.crash": FaultSpec(rate=0.5)}
            ).decides("worker.crash", k)
        }
        assert fired(1) != fired(2)

    def test_max_attempt_gates_retries(self):
        plan = FaultPlan(faults={"worker.crash": FaultSpec(rate=1.0)})
        assert plan.decides("worker.crash", "k", attempt=0)
        assert not plan.decides("worker.crash", "k", attempt=1)

    def test_key_whitelist(self):
        plan = FaultPlan(faults={
            "backend.memoryerror": FaultSpec(rate=1.0, keys=("vector",)),
        })
        assert plan.decides("backend.memoryerror", "vector")
        assert not plan.decides("backend.memoryerror", "event")

    def test_unknown_point_rejected(self):
        with pytest.raises(ValueError):
            FaultPlan(faults={"nonsense.point": FaultSpec()})

    def test_json_round_trip(self):
        plan = FaultPlan(seed=9, faults={
            "worker.crash": FaultSpec(rate=0.25, max_attempt=2),
            "store.torn_write": FaultSpec(
                rate=0.5, keys=("abc",), max_fires=3
            ),
        })
        clone = FaultPlan.from_json(plan.to_json())
        assert clone == plan
        assert json.loads(clone.to_json()) == json.loads(plan.to_json())

    def test_env_propagation(self, monkeypatch):
        plan = FaultPlan(seed=3, faults={"store.bitflip": FaultSpec()})
        faults.arm(plan)
        import os

        assert os.environ[faults.ENV_VAR] == plan.to_json()
        # A process that never armed adopts the env plan lazily.
        monkeypatch.setattr(faults, "_ACTIVE", None)
        monkeypatch.setattr(faults, "_ACTIVE_INIT", False)
        assert faults.active_plan() == plan
        faults.disarm()
        assert faults.ENV_VAR not in os.environ

    def test_worker_faults_never_fire_in_parent(self):
        plan = FaultPlan(faults={"worker.crash": FaultSpec(rate=1.0)})
        with faults.armed(plan):
            # Would os._exit(66) if the worker gate were broken.
            faults.worker_faults("any-key", attempt=0)

    def test_max_fires_caps_per_process(self):
        plan = FaultPlan(faults={
            "store.bitflip": FaultSpec(rate=1.0, max_fires=2),
        })
        with faults.armed(plan):
            fired = [
                faults.fired("store.bitflip", f"k{i}") for i in range(5)
            ]
        assert sum(fired) == 2


class TestInjectionEffects:
    def test_raise_if_raises_the_requested_type(self):
        plan = FaultPlan(faults={
            "backend.memoryerror": FaultSpec(rate=1.0),
        })
        with faults.armed(plan):
            with pytest.raises(MemoryError):
                faults.raise_if(
                    "backend.memoryerror", "vector", exc_type=MemoryError
                )

    def test_corrupt_payload_torn_and_bitflip(self):
        data = json.dumps({"k": list(range(50))})
        torn_plan = FaultPlan(faults={
            "store.torn_write": FaultSpec(rate=1.0),
        })
        with faults.armed(torn_plan):
            torn = faults.corrupt_payload(data, key="d1")
        assert len(torn) < len(data)

        flip_plan = FaultPlan(faults={"store.bitflip": FaultSpec(rate=1.0)})
        with faults.armed(flip_plan):
            flipped = faults.corrupt_payload(data, key="d1")
        assert len(flipped) == len(data) and flipped != data
        diff = [i for i, (a, b) in enumerate(zip(data, flipped)) if a != b]
        assert len(diff) == 1  # exactly one character flipped

    def test_disarmed_is_a_no_op(self):
        data = "payload"
        assert faults.corrupt_payload(data, key="x") == data
        faults.raise_if("store.write_oserror", "x")  # must not raise


def _run_sweep(store, plan=None, processes=2):
    spec = JobSpec(
        circuit="rca16", n_vectors=60,
        sweep={"seed": [1, 2, 3, 4], "delay": ["unit", "sumcarry"]},
    )
    scheduler = BatchScheduler(
        store, processes=processes,
        policy=RetryPolicy(max_attempts=3, backoff_base_s=0.0, seed=1),
    )
    if plan is None:
        return scheduler.run(spec)
    with faults.armed(plan):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", BackendDegradedWarning)
            warnings.simplefilter("ignore", StoreWriteWarning)
            return scheduler.run(spec)


class TestChaosSweep:
    def test_sweep_under_faults_is_bit_identical(self, tmp_path):
        """The tentpole acceptance: crashes + torn writes + a backend
        MemoryError, and the sweep's aggregates don't move."""
        baseline = _run_sweep(ResultStore(tmp_path / "clean"))
        assert baseline.n_failed == 0

        from repro.sim.backends import select_backend
        from repro.sim.delays import UnitDelay

        first_tier = select_backend(UnitDelay())
        plan = FaultPlan(seed=CHAOS_SEED, faults={
            "worker.crash": FaultSpec(rate=0.5),
            "store.torn_write": FaultSpec(rate=0.4),
            "backend.memoryerror": FaultSpec(
                rate=1.0, keys=(first_tier,), max_fires=1
            ),
        })
        chaotic_store = ResultStore(tmp_path / "chaos")
        chaotic = _run_sweep(chaotic_store, plan=plan)

        assert chaotic.n_failed == 0 and not chaotic.interrupted
        assert len(chaotic.outcomes) == len(baseline.outcomes)
        for clean, dirty in zip(baseline.outcomes, chaotic.outcomes):
            assert clean.point == dirty.point
            assert clean.summary == dirty.summary  # bit-identical

    def test_verify_detects_every_injected_corruption(self, tmp_path):
        plan = FaultPlan(seed=CHAOS_SEED, faults={
            "store.torn_write": FaultSpec(rate=0.5),
        })
        store = ResultStore(tmp_path)
        _run_sweep(store, plan=plan)

        # The plan is pure, so the exact set of corrupted objects is
        # computable in the parent: detection must be 100% of it.
        expected = {
            e["digest"] for e in store.entries()
            if plan.decides("store.torn_write", e["digest"])
        }
        assert expected  # rate 0.5 over 8 entries: statistically sure
        report = store.verify()
        found = {
            p["digest"] for p in report["problems"]
            if p["kind"] == "checksum-mismatch"
        }
        assert found == expected
        assert report["ok"] == report["entries"] - len(expected)

    def test_repair_preserves_valid_entries(self, tmp_path):
        plan = FaultPlan(seed=CHAOS_SEED, faults={
            "store.torn_write": FaultSpec(rate=0.5),
        })
        store = ResultStore(tmp_path)
        baseline = _run_sweep(store, plan=plan)
        n_corrupt = len(store.verify()["problems"])
        n_valid = len(store) - n_corrupt

        fixed = store.repair()
        assert fixed["dropped"] == n_corrupt
        assert len(store.verify()["problems"]) == 0
        assert len(store) == n_valid

        # Valid entries still serve; dropped ones recompute to the
        # same aggregates (purity) — and this time, cleanly.
        resumed = _run_sweep(ResultStore(tmp_path))
        assert resumed.n_hits == n_valid
        assert resumed.n_computed == n_corrupt
        for clean, again in zip(baseline.outcomes, resumed.outcomes):
            assert clean.summary == again.summary

    def test_write_oserror_degrades_to_uncached(self, tmp_path):
        plan = FaultPlan(seed=1, faults={
            "store.write_oserror": FaultSpec(rate=1.0),
        })
        store = ResultStore(tmp_path)
        spec = JobSpec(circuit="rca16", n_vectors=40)
        with faults.armed(plan):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                report = BatchScheduler(store).run(spec)
        # The computation survived the unwritable store...
        assert report.n_computed == 1 and report.n_failed == 0
        assert any(
            issubclass(w.category, StoreWriteWarning) for w in caught
        )
        # ...it just wasn't cached.
        assert len(store) == 0


class TestFigure5UnderInjection:
    def test_fig5_pin_holds_under_chaos(self, tmp_path):
        """The paper's headline number is immune to the injected
        faults: Figure 5's 16-bit RCA totals pin to the same values
        the fault-free suite asserts (117990 transitions, L/F 0.8669)
        while the first-choice backend dies with MemoryError and every
        store write is torn."""
        from repro.experiments.rca import figure5_experiment
        from repro.sim.backends import select_backend
        from repro.sim.delays import UnitDelay

        plan = FaultPlan(seed=1995, faults={
            "backend.memoryerror": FaultSpec(
                rate=1.0, keys=(select_backend(UnitDelay()),), max_fires=1
            ),
            "store.torn_write": FaultSpec(rate=1.0),
        })
        store = ResultStore(tmp_path)
        with faults.armed(plan):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", BackendDegradedWarning)
                out = figure5_experiment(
                    n_vectors=4000, seed=1995, store=store
                )
        sim = out["simulated"]
        assert sim["total"] == 117990
        assert sim["useful"] == 63200
        assert sim["useless"] == 54790
        assert sim["L/F"] == pytest.approx(0.8669, abs=1e-4)
        # Every cached object was torn; verify flags all of them.
        report = store.verify()
        assert len(report["problems"]) == len(store)


class TestBackendDegradation:
    def test_degradation_emits_warning_and_matches_event(self, xor_chain):
        from repro.core.activity import ActivityRun
        from repro.sim.backends import select_backend
        from repro.sim.delays import UnitDelay

        vecs = [[(i >> b) & 1 for b in range(3)] for i in range(32)]
        reference = ActivityRun(xor_chain, backend="event").run(vecs)

        first_tier = select_backend(UnitDelay())
        plan = FaultPlan(seed=4, faults={
            "backend.memoryerror": FaultSpec(
                rate=1.0, keys=(first_tier,), max_attempt=99
            ),
        })
        run = ActivityRun(xor_chain, backend="auto")
        assert run.failover
        with faults.armed(plan):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                degraded = run.run(vecs)
        emitted = [
            w for w in caught
            if issubclass(w.category, BackendDegradedWarning)
        ]
        assert emitted
        assert emitted[0].message.from_backend == first_tier
        assert run.degraded and run.backend_name != first_tier
        assert degraded.total_transitions == reference.total_transitions
        assert degraded.per_node == reference.per_node

    def test_zero_delay_auto_session_degrades_to_lanes(self, xor_chain):
        from repro.core.activity import ActivityRun
        from repro.sim.delays import ZeroDelay
        from repro.sim.vector import numpy_available

        if not numpy_available():
            pytest.skip("the zero-delay chain starts at the vector tier")
        vecs = [[(i >> b) & 1 for b in range(3)] for i in range(32)]
        reference = ActivityRun(
            xor_chain, delay_model=ZeroDelay(), backend="lanes"
        ).run(vecs)
        plan = FaultPlan(seed=4, faults={
            "backend.memoryerror": FaultSpec(
                rate=1.0, keys=("vector",), max_attempt=99
            ),
        })
        run = ActivityRun(xor_chain, delay_model=ZeroDelay(), backend="auto")
        assert run.backend_name == "vector" and run.failover
        with faults.armed(plan):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                degraded = run.run(vecs)
        emitted = [
            w.message for w in caught
            if issubclass(w.category, BackendDegradedWarning)
        ]
        assert [(w.from_backend, w.to_backend) for w in emitted] == [
            ("vector", "lanes")
        ]
        assert run.degraded == ["vector->lanes"]
        assert degraded.cycles == reference.cycles
        assert degraded.per_node == reference.per_node
        assert degraded.delay_description == "zero delay (vector)"

        # The same fallback, one level down: whole RunStats.
        from repro.core.activity import _stats_with_failover
        from repro.sim.backends import LanesBackend

        expected = LanesBackend(xor_chain, ZeroDelay()).run(vecs)
        with faults.armed(plan):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", BackendDegradedWarning)
                ran_on, stats = _stats_with_failover(
                    xor_chain, ZeroDelay(), "vector", None, vecs,
                    None, None, None, True,
                )
        assert ran_on == "lanes"
        assert stats == expected

    def test_explicit_backend_does_not_degrade(self, xor_chain):
        from repro.core.activity import ActivityRun
        from repro.sim.backends import select_backend
        from repro.sim.delays import UnitDelay

        first_tier = select_backend(UnitDelay())
        plan = FaultPlan(seed=4, faults={
            "backend.memoryerror": FaultSpec(
                rate=1.0, keys=(first_tier,), max_attempt=99
            ),
        })
        run = ActivityRun(xor_chain, backend=first_tier)
        assert not run.failover
        with faults.armed(plan):
            with pytest.raises(MemoryError):
                run.run([[0, 0, 0], [1, 1, 1]])

    def test_last_tier_failure_propagates(self, xor_chain):
        from repro.core.activity import ActivityRun

        plan = FaultPlan(seed=4, faults={
            # Every tier raises: nothing left to degrade to.
            "backend.memoryerror": FaultSpec(rate=1.0, max_attempt=99),
        })
        run = ActivityRun(xor_chain, backend="auto")
        with faults.armed(plan):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", BackendDegradedWarning)
                with pytest.raises(MemoryError):
                    run.run([[0, 0, 0], [1, 1, 1]])
