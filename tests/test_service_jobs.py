"""Batch scheduler: sweep expansion, partial-hit resume, job records.

Also pins the service acceptance property: a warm-cache re-run of the
Figure 5 experiment reproduces the pinned RunStats bit-exactly with
*zero* simulation work (enforced by making every backend run raise).
"""

import pytest

from repro.service.jobs import (
    BatchScheduler,
    JobPoint,
    JobSpec,
    load_job_records,
    resolve_delay,
)
from repro.service.store import ResultStore
from repro.sim.delays import DELAY_MODELS, SumCarryDelay, UnitDelay, ZeroDelay
from repro.sim.vectors import CorrelatedStimulus, UniformStimulus


class TestJobSpec:
    def test_no_sweep_is_one_point(self):
        points = JobSpec(circuit="rca4", n_vectors=50).points()
        assert points == [
            JobPoint("rca4", "unit", UniformStimulus(seed=1995), 50)
        ]

    def test_sweep_product(self):
        spec = JobSpec(
            circuit="rca4",
            n_vectors=50,
            sweep={"circuit": ["rca4", "rca8"], "n_vectors": [10, 20, 30]},
        )
        points = spec.points()
        assert len(points) == 6
        assert {(p.circuit, p.n_vectors) for p in points} == {
            (c, n) for c in ("rca4", "rca8") for n in (10, 20, 30)
        }

    def test_seed_axis_reseeds_stimulus(self):
        spec = JobSpec(
            stimulus=CorrelatedStimulus(seed=1, flip_probability=0.2),
            sweep={"seed": [1, 2]},
        )
        stimuli = [p.stimulus for p in spec.points()]
        assert stimuli == [
            CorrelatedStimulus(seed=1, flip_probability=0.2),
            CorrelatedStimulus(seed=2, flip_probability=0.2),
        ]

    def test_unknown_axis_rejected(self):
        with pytest.raises(ValueError, match="unknown sweep axis"):
            JobSpec(sweep={"voltage": [1]}).points()

    def test_empty_axis_rejected(self):
        with pytest.raises(ValueError, match="has no values"):
            JobSpec(sweep={"circuit": []}).points()

    def test_bad_delay_rejected_at_expansion(self):
        with pytest.raises(ValueError, match="unknown delay model"):
            JobSpec(sweep={"delay": ["unit", "nonsense"]}).points()

    def test_point_roundtrips_through_dict(self):
        point = JobPoint(
            "array8", "sumcarry", CorrelatedStimulus(seed=3), 120
        )
        assert JobPoint.from_dict(point.to_dict()) == point

    def test_resolve_delay(self):
        assert isinstance(resolve_delay("unit"), UnitDelay)
        assert isinstance(resolve_delay("sumcarry"), SumCarryDelay)
        assert isinstance(resolve_delay("zero"), ZeroDelay)


class TestBatchScheduler:
    def test_cold_batch_computes_everything(self, tmp_path):
        store = ResultStore(tmp_path)
        report = BatchScheduler(store).run(
            JobSpec(circuit="rca4", n_vectors=30,
                    sweep={"circuit": ["rca4", "rca6"]})
        )
        assert report.n_computed == 2 and report.n_hits == 0
        assert len(store) == 2

    def test_partial_hit_resume(self, tmp_path):
        """Overlapping sweeps only simulate the cache-missing points."""
        store = ResultStore(tmp_path)
        sched = BatchScheduler(store)
        sched.run(JobSpec(n_vectors=30, sweep={"circuit": ["rca4", "rca6"]}))
        report = sched.run(JobSpec(
            n_vectors=30, sweep={"circuit": ["rca4", "rca6", "rca8"]}
        ))
        assert report.n_hits == 2
        assert report.n_computed == 1
        by_point = {o.point.circuit: o.status for o in report.outcomes}
        assert by_point == {
            "rca4": "hit", "rca6": "hit", "rca8": "computed"
        }

    def test_hits_equal_computed_summaries(self, tmp_path):
        store = ResultStore(tmp_path)
        sched = BatchScheduler(store)
        spec = JobSpec(n_vectors=40, sweep={"circuit": ["rca4", "rca8"]})
        first = sched.run(spec)
        second = sched.run(spec)
        assert second.n_hits == 2 and second.n_computed == 0
        assert [o.summary for o in first.outcomes] == [
            o.summary for o in second.outcomes
        ]

    def test_multiprocessing_matches_sequential(self, tmp_path):
        spec = JobSpec(n_vectors=30, sweep={"circuit": ["rca4", "rca6"]})
        seq = BatchScheduler(ResultStore(tmp_path / "a")).run(spec)
        par = BatchScheduler(
            ResultStore(tmp_path / "b"), processes=2
        ).run(spec)
        assert [o.summary for o in seq.outcomes] == [
            o.summary for o in par.outcomes
        ]

    @pytest.mark.parametrize("delay", list(DELAY_MODELS))
    def test_point_counts_equal_a_direct_run(self, delay, tmp_path):
        """A point runs the model its delay name names: ``zero`` points
        count settled transitions, as ``ActivityRun`` does directly."""
        from repro.circuits.catalog import build_named_circuit
        from repro.core.activity import ActivityRun

        spec = JobSpec(
            circuit="rca8", delay=delay, n_vectors=60, backend="lanes"
        )
        [outcome] = BatchScheduler(ResultStore(tmp_path)).run(spec).outcomes
        circuit, stim = build_named_circuit("rca8")
        direct = ActivityRun(
            circuit, resolve_delay(delay), backend="lanes"
        ).run(spec.stimulus.vectors(stim, 61))
        assert outcome.status == "computed"
        assert outcome.summary == direct.summary()

    def test_no_store_still_runs(self):
        report = BatchScheduler(store=None).run(
            JobSpec(circuit="rca4", n_vectors=20)
        )
        assert report.n_computed == 1

    def test_job_records_persisted(self, tmp_path):
        store = ResultStore(tmp_path)
        sched = BatchScheduler(store)
        r1 = sched.run(JobSpec(circuit="rca4", n_vectors=20))
        r2 = sched.run(JobSpec(circuit="rca6", n_vectors=20))
        records = load_job_records(store)
        assert [r["job_id"] for r in records] == [r1.job_id, r2.job_id]
        assert records[0]["computed"] == 1
        assert records[0]["spec"]["circuit"] == "rca4"


class _SimulationForbidden(AssertionError):
    pass


def _forbid_simulation(monkeypatch):
    """Make every backend run raise: proves a path did zero sim work."""
    import repro.core.activity as activity_mod

    def boom(self, *args, **kwargs):
        raise _SimulationForbidden("simulation attempted on a warm cache")

    monkeypatch.setattr(activity_mod.ActivityRun, "run", boom)
    monkeypatch.setattr(activity_mod.ActivityRun, "run_sharded", boom)


class TestWarmCacheAcceptance:
    def test_fig5_warm_rerun_is_bit_identical_with_zero_sim_work(
        self, tmp_path, monkeypatch
    ):
        """ISSUE 3 acceptance: warm fig5 == pinned stats, no simulation."""
        from repro.experiments.rca import figure5_experiment

        store = ResultStore(tmp_path)
        cold = figure5_experiment(n_vectors=4000, seed=1995, store=store)
        _forbid_simulation(monkeypatch)
        warm = figure5_experiment(n_vectors=4000, seed=1995, store=store)
        assert store.hits == 1
        sim = warm["simulated"]
        assert sim["total"] == 117990
        assert sim["useful"] == 63200
        assert sim["useless"] == 54790
        assert sim["L/F"] == pytest.approx(0.8669, abs=1e-4)
        assert warm["simulated"] == cold["simulated"]
        assert warm["per_bit"] == cold["per_bit"]

    def test_warm_scheduler_batch_does_no_sim_work(
        self, tmp_path, monkeypatch
    ):
        store = ResultStore(tmp_path)
        spec = JobSpec(n_vectors=30, sweep={"circuit": ["rca4", "rca6"]})
        BatchScheduler(store).run(spec)
        _forbid_simulation(monkeypatch)
        report = BatchScheduler(store).run(spec)  # all hits: must not raise
        assert report.n_hits == 2 and report.n_computed == 0

    def test_cold_run_would_have_simulated(self, tmp_path, monkeypatch):
        """The guard itself works: a cold run trips it.

        Under the supervised pool a tripped guard surfaces as a
        quarantined point (the batch no longer aborts on a task
        exception), so the assertion reads the failure record."""
        from repro.service.pool import RetryPolicy

        _forbid_simulation(monkeypatch)
        report = BatchScheduler(
            ResultStore(tmp_path),
            policy=RetryPolicy(max_attempts=1, backoff_base_s=0.0),
        ).run(JobSpec(circuit="rca4", n_vectors=10))
        assert report.n_failed == 1
        assert "simulation attempted" in report.failures[0].error


class TestWorkerIsolation:
    def test_workers_never_touch_the_default_store(
        self, tmp_path, monkeypatch
    ):
        """A pool worker must not open REPRO_CACHE_DIR behind the
        scheduler's back — the parent is the store's single writer."""
        import os

        from repro.service.jobs import _compute_point

        env_store = tmp_path / "env-default-store"
        monkeypatch.setenv("REPRO_CACHE_DIR", str(env_store))
        point = JobPoint("rca4", "unit", UniformStimulus(seed=1), 10)
        payload = _compute_point(point.to_dict())
        assert payload["cycles"] == 10
        assert not os.path.exists(env_store)


class TestSweepValidation:
    def test_bad_circuit_rejected_at_expansion(self):
        with pytest.raises(ValueError, match="unknown circuit"):
            JobSpec(sweep={"circuit": ["rca4", "bogus"]}).points()

    def test_job_ids_never_overwrite_records(self, tmp_path):
        store = ResultStore(tmp_path)
        spec = JobSpec(circuit="rca4", n_vectors=10)
        r1 = BatchScheduler(store).run(spec)
        # Delete the only record, then re-run the same spec: the seq
        # counter restarts but the id must still be fresh on disk.
        (store.jobs_dir / f"{r1.job_id}.json").unlink()
        r2 = BatchScheduler(store).run(spec)
        r3 = BatchScheduler(store).run(spec)
        ids = {r.job_id for r in (r2, r3)}
        assert len(ids) == 2
        assert len(load_job_records(store)) == 2


class TestFaultToleranceSemantics:
    """Quarantine and interrupt salvage at the scheduler layer."""

    def test_quarantined_point_fails_batch_survives(
        self, tmp_path, monkeypatch
    ):
        import repro.service.jobs as jobs_mod
        from repro.service.pool import RetryPolicy

        real = jobs_mod._compute_point

        def poisoned(doc):
            if doc["stimulus"]["seed"] == 2:
                raise RuntimeError("this point is cursed")
            return real(doc)

        monkeypatch.setattr(jobs_mod, "_compute_point", poisoned)
        store = ResultStore(tmp_path)
        spec = JobSpec(
            circuit="rca4", n_vectors=20, sweep={"seed": [1, 2, 3]}
        )
        report = BatchScheduler(
            store, policy=RetryPolicy(max_attempts=2, backoff_base_s=0.0)
        ).run(spec)
        assert report.n_computed == 2 and report.n_failed == 1
        failed = [o for o in report.outcomes if o.status == "failed"]
        assert len(failed) == 1
        assert failed[0].point.stimulus.seed == 2
        # Failed rows render with the standard headline keys, zeroed.
        assert failed[0].summary == {
            "total": 0, "useful": 0, "useless": 0, "L/F": 0.0,
        }
        # The quarantine record is structured and persisted.
        assert len(report.failures) == 1
        assert report.failures[0].attempts == 2
        assert "cursed" in report.failures[0].error
        record = load_job_records(store)[-1]
        assert record["failed"] == 1
        assert record["failures"][0]["kind"] == "error"
        # Healthy points were cached despite the failure.
        assert len(store) == 2

    def test_interrupt_persists_completed_points(
        self, tmp_path, monkeypatch
    ):
        import repro.service.jobs as jobs_mod

        real = jobs_mod._compute_point
        computed = []

        def interrupting(doc):
            if doc["stimulus"]["seed"] == 3:
                raise KeyboardInterrupt
            payload = real(doc)
            computed.append(doc["stimulus"]["seed"])
            return payload

        monkeypatch.setattr(jobs_mod, "_compute_point", interrupting)
        store = ResultStore(tmp_path)
        spec = JobSpec(
            circuit="rca4", n_vectors=20, sweep={"seed": [1, 2, 3, 4]}
        )
        with pytest.raises(KeyboardInterrupt):
            BatchScheduler(store).run(spec)
        # Everything finished before the interrupt was salvaged...
        assert computed == [1, 2]
        assert len(store) == 2
        # ...and the partial job record marks the interruption.
        record = load_job_records(store)[-1]
        assert record["interrupted"] is True
        assert record["computed"] == 2
        # A clean re-run resumes: two hits, two to compute.
        monkeypatch.setattr(jobs_mod, "_compute_point", real)
        resumed = BatchScheduler(store).run(spec)
        assert resumed.n_hits == 2 and resumed.n_computed == 2

    def test_circuit_tasks_interrupt_salvages(self, tmp_path, monkeypatch):
        import repro.service.jobs as jobs_mod
        from repro.circuits.catalog import build_named_circuit
        from repro.service.jobs import CircuitTask, run_circuit_tasks

        circuit, _ = build_named_circuit("rca4")
        tasks = [
            CircuitTask.from_circuit(
                circuit, "unit", UniformStimulus(seed=s), 20,
                label=f"t{s}",
            )
            for s in (1, 2, 3)
        ]
        real = jobs_mod._simulate_circuit_task

        def interrupting(task):
            if task.label == "t3":
                raise KeyboardInterrupt
            return real(task)

        monkeypatch.setattr(
            jobs_mod, "_simulate_circuit_task", interrupting
        )
        store = ResultStore(tmp_path)
        with pytest.raises(KeyboardInterrupt):
            run_circuit_tasks(tasks, store=store)
        assert len(store) == 2  # completed tasks persisted
        # Resume: the two finished tasks hit, only t3 simulates.
        monkeypatch.setattr(jobs_mod, "_simulate_circuit_task", real)
        payloads = run_circuit_tasks(tasks, store=store)
        assert store.hits == 2
        assert all(p is not None for p in payloads)

    def test_circuit_tasks_quarantine_raises_after_persisting(
        self, tmp_path, monkeypatch
    ):
        import repro.service.jobs as jobs_mod
        from repro.circuits.catalog import build_named_circuit
        from repro.service.jobs import CircuitTask, run_circuit_tasks
        from repro.service.pool import RetryPolicy

        circuit, _ = build_named_circuit("rca4")
        tasks = [
            CircuitTask.from_circuit(
                circuit, "unit", UniformStimulus(seed=s), 20,
                label=f"t{s}",
            )
            for s in (1, 2)
        ]
        real = jobs_mod._simulate_circuit_task

        def broken(task):
            if task.label == "t2":
                raise ValueError("no such luck")
            return real(task)

        monkeypatch.setattr(jobs_mod, "_simulate_circuit_task", broken)
        store = ResultStore(tmp_path)
        with pytest.raises(RuntimeError, match="quarantined"):
            run_circuit_tasks(
                tasks, store=store,
                policy=RetryPolicy(max_attempts=2, backoff_base_s=0.0),
            )
        assert len(store) == 1  # the healthy task's result persisted
