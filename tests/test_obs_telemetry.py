"""Distribution-aware telemetry: gauges, logs, sampler, heartbeat, ledger.

Integration-level guarantees for the pieces the histogram layer plugs
into:

* gauge **merge policies** — queue-depth style gauges keep their
  high-water mark across worker merges instead of being overwritten by
  whichever blob lands last;
* the JSONL **event log** correlates supervisor and worker events under
  one ``run_id`` (quarantine events included), across process
  boundaries;
* the **resource sampler** records Chrome counter tracks that survive
  schema validation;
* manifest filenames never collide within a process (the ISSUE's
  same-second regression);
* the **heartbeat** line reports warm-hit ratio and latency percentiles
  with or without tracing armed;
* ``repro bench report`` renders the committed perf ledger and its
  ``--diff`` verdict matches :func:`repro.obs.ledger.compare_snapshots`.
"""

import io
import itertools
import json
import os
import time

import pytest

from repro.obs import log as obs_log
from repro.obs import manifest as obs_manifest
from repro.obs import sampler as obs_sampler
from repro.obs import trace
from repro.obs.metrics import MetricsRegistry
from repro.service import faults
from repro.service.pool import RetryPolicy, run_supervised


@pytest.fixture(autouse=True)
def _clean():
    """No recorder, log, or fault plan leaks between tests."""
    trace.disable()
    faults.disarm()
    yield
    trace.disable()
    faults.disarm()


def _square(x):
    return x * x


def _always_fails(x):
    raise RuntimeError(f"no dice: {x}")


class TestGaugePolicies:
    def test_default_policy_is_last(self):
        m = MetricsRegistry()
        m.gauge("pool.active", 5)
        m.gauge("pool.active", 2)
        assert m.gauges["pool.active"] == 2

    def test_depth_names_default_to_max(self):
        m = MetricsRegistry()
        m.gauge("pool.queue_depth", 7)
        m.gauge("pool.queue_depth", 3)  # drained — high water stays
        assert m.gauges["pool.queue_depth"] == 7

    def test_explicit_sum_policy_folds_across_registries(self):
        """``sum`` accumulates at merge time, not locally (that's a
        counter's job): each registry keeps its own newest reading and
        the supervisor adds the blobs together."""
        sup, wrk = MetricsRegistry(), MetricsRegistry()
        sup.gauge("workers.spawned", 2, policy="sum")
        wrk.gauge("workers.spawned", 3, policy="sum")
        wrk.gauge("workers.spawned", 4, policy="sum")  # local: last wins
        snap = wrk.snapshot()
        sup.merge(
            snap["counters"], snap["gauges"], snap.get("hists"),
            snap.get("gauge_policies"),
        )
        assert sup.gauges["workers.spawned"] == 6

    def test_bad_policy_rejected(self):
        with pytest.raises(ValueError):
            MetricsRegistry().gauge("g", 1, policy="median")

    def test_merge_respects_policies(self):
        sup, wrk = MetricsRegistry(), MetricsRegistry()
        sup.gauge("pool.queue_depth", 4)
        wrk.gauge("pool.queue_depth", 9)
        sup.gauge("phase", 1)
        wrk.gauge("phase", 2)
        snap = wrk.snapshot()
        sup.merge(
            snap["counters"], snap["gauges"], snap.get("hists"),
            snap.get("gauge_policies"),
        )
        assert sup.gauges["pool.queue_depth"] == 9  # max across blobs
        assert sup.gauges["phase"] == 2  # last wins

    def test_worker_high_water_survives_drain_absorb(self):
        """A worker's peak queue depth survives the blob round trip."""
        with trace.capture() as rec:
            trace.gauge("pool.queue_depth", 11)
            trace.gauge("pool.queue_depth", 1)
            blob = rec.drain_blob()
        with trace.capture() as sup_rec:
            trace.gauge("pool.queue_depth", 3)
            sup_rec.absorb(blob)
            assert sup_rec.metrics.gauges["pool.queue_depth"] == 11


class TestEventLog:
    def test_one_run_id_across_worker_pids(self, tmp_path, monkeypatch):
        """Supervisor and pool workers log under a single run_id."""
        path = str(tmp_path / "run.jsonl")
        trace.enable()
        obs_log.enable(path)
        run_id = obs_log.current_run_id()
        assert run_id
        try:
            result = run_supervised(
                _square, [1, 2, 3, 4], processes=2,
                policy=RetryPolicy(max_attempts=1, timeout_s=60),
            )
        finally:
            trace.disable()
        assert result.payloads == [1, 4, 9, 16]
        events = obs_log.read_events(path)
        assert events
        assert {e["run_id"] for e in events} == {run_id}
        assert len({e["pid"] for e in events}) >= 2
        assert os.environ.get("REPRO_LOG") is None  # disable() cleaned up

    def test_quarantine_events_carry_run_id(self, tmp_path):
        path = str(tmp_path / "chaos.jsonl")
        trace.enable()
        obs_log.enable(path)
        run_id = obs_log.current_run_id()
        try:
            result = run_supervised(
                _always_fails, ["x"], processes=2,
                policy=RetryPolicy(
                    max_attempts=2, timeout_s=60, backoff_base_s=0.0
                ),
            )
        finally:
            trace.disable()
        assert len(result.failures) == 1
        quarantines = [
            e for e in obs_log.read_events(path)
            if e["name"] == "pool.quarantine"
        ]
        assert quarantines and all(
            e["run_id"] == run_id for e in quarantines
        )

    def test_read_events_filters_by_run_id(self, tmp_path):
        path = str(tmp_path / "two.jsonl")
        for _ in range(2):
            trace.enable()
            obs_log.enable(path)
            trace.instant("tick")
            trace.disable()
        events = obs_log.read_events(path)
        run_ids = {e["run_id"] for e in events}
        assert len(run_ids) == 2
        one = next(iter(run_ids))
        assert all(
            e["run_id"] == one
            for e in obs_log.read_events(path, run_id=one)
        )


class TestResourceSampler:
    def test_counter_tracks_validate(self):
        with trace.capture() as rec:
            s = obs_sampler.ResourceSampler(interval_s=0.01, recorder=rec)
            with s:
                time.sleep(0.05)
        counters = [e for e in rec.events if e["ph"] == "C"]
        names = {e["name"] for e in counters}
        assert "proc.rss_mb" in names
        assert s.samples_taken >= 2
        assert trace.validate_chrome_trace(trace.chrome_trace(rec.events)) \
            == []

    def test_pool_registers_queue_depth_probe(self):
        """During a pooled run the sampler sees the live queue depth."""
        with trace.capture() as rec:
            s = obs_sampler.ResourceSampler(interval_s=0.005, recorder=rec)
            with s:
                run_supervised(
                    _square, [1, 2, 3, 4, 5, 6], processes=2,
                    policy=RetryPolicy(max_attempts=1, timeout_s=60),
                )
        depth_samples = [
            e for e in rec.events
            if e["ph"] == "C" and e["name"] == "pool.queue_depth"
        ]
        assert depth_samples, "pool probe never sampled"
        # Probe unregistered once the pool wound down.
        assert "pool.queue_depth" not in obs_sampler._PROBES

    def test_probe_withdrawn_between_ticks_is_sampled_once(self):
        """A probe registered and withdrawn while a sampler waits for
        its next tick still gets one sample, taken as it goes."""
        with trace.capture() as rec:
            s = obs_sampler.ResourceSampler(interval_s=60, recorder=rec)
            with s:
                while not s.samples_taken:  # the immediate first tick
                    time.sleep(0.001)
                obs_sampler.register_probe("test.brief", lambda: 7)
                obs_sampler.unregister_probe("test.brief")
        samples = [
            e for e in rec.events
            if e["ph"] == "C" and e["name"] == "test.brief"
        ]
        assert len(samples) == 1
        assert s.samples_taken == 1
        assert "test.brief" not in obs_sampler._PROBES

    def test_probe_exceptions_do_not_kill_sampling(self):
        def _bad():
            raise RuntimeError("broken probe")

        obs_sampler.register_probe("test.bad", _bad)
        try:
            with trace.capture() as rec:
                s = obs_sampler.ResourceSampler(
                    interval_s=0.01, recorder=rec
                )
                with s:
                    time.sleep(0.03)
            assert s.samples_taken >= 1
        finally:
            obs_sampler.unregister_probe("test.bad")


class TestManifestFilenames:
    def test_same_second_writes_do_not_collide(self, tmp_path):
        with trace.capture() as rec:
            with trace.span("x"):
                pass
        m = obs_manifest.build_manifest(rec, command="t")
        paths = {
            obs_manifest.write_manifest(str(tmp_path), m)
            for _ in range(5)
        }
        assert len(paths) == 5
        assert all(os.path.exists(p) for p in paths)

    def test_sequence_reset_still_avoids_collision(
        self, tmp_path, monkeypatch
    ):
        """Even a restarted sequence (pid reuse) skips existing names."""
        with trace.capture() as rec:
            with trace.span("x"):
                pass
        m = obs_manifest.build_manifest(rec, command="t")
        first = obs_manifest.write_manifest(str(tmp_path), m)
        monkeypatch.setattr(obs_manifest, "_SEQ", itertools.count())
        second = obs_manifest.write_manifest(str(tmp_path), m)
        assert first != second
        assert os.path.exists(first) and os.path.exists(second)

    def test_manifest_carries_run_id_when_logging(self, tmp_path):
        trace.enable()
        obs_log.enable(str(tmp_path / "m.jsonl"))
        run_id = obs_log.current_run_id()
        rec = trace.active()
        with trace.span("x"):
            pass
        m = obs_manifest.build_manifest(rec, command="t")
        trace.disable()
        assert m["run_id"] == run_id


class TestHeartbeat:
    def test_line_reports_warm_hits_and_percentiles(self):
        from repro.service.jobs import Heartbeat

        out = io.StringIO()
        hb = Heartbeat(total=10, interval_s=0.0, out=out, workers=2)
        for _ in range(4):
            hb.record_hit()
        for _ in range(5):
            hb.record("done", 0.2)
        hb.record("failed", None)
        hb.finish()
        last = out.getvalue().strip().splitlines()[-1]
        assert "10/10 points" in last
        assert "warm-hit 40%" in last
        assert "p50 0.2" in last and "p99 0.2" in last
        assert "ETA" in last
        assert "1 failed" in last

    def test_interval_gating(self):
        from repro.service.jobs import Heartbeat

        out = io.StringIO()
        hb = Heartbeat(total=100, interval_s=3600.0, out=out)
        for _ in range(50):
            hb.record("done", 0.01)
        hb.finish()
        # First resolution emits, the rest gate, finish forces one.
        assert len(out.getvalue().strip().splitlines()) == 2

    def test_scheduler_emits_heartbeat_without_tracing(self, tmp_path):
        from repro.service.jobs import BatchScheduler, JobSpec
        from repro.service.store import ResultStore

        spec = JobSpec(
            circuit="rca4", delay="unit", n_vectors=20,
            sweep={"seed": [1, 2]},
        )
        out = io.StringIO()
        store = ResultStore(tmp_path / "store")
        sched = BatchScheduler(store=store)
        sched.run(spec, heartbeat_s=0.0, heartbeat_out=out)
        cold = out.getvalue()
        assert "[heartbeat]" in cold and "warm-hit 0%" in cold
        out2 = io.StringIO()
        sched.run(spec, heartbeat_s=0.0, heartbeat_out=out2)
        assert "warm-hit 100%" in out2.getvalue()


class TestBenchReportCLI:
    def _snapshot(self, medians):
        return {
            "schema": 1,
            "python": "3.11",
            "machine": "x86_64",
            "results": {
                key: {
                    "backend": key.split("/")[0],
                    "workload": "w",
                    "median_s": m,
                    "cycles_per_s": round(1.0 / m, 1),
                }
                for key, m in medians.items()
            },
        }

    def test_report_renders_ledger(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "bench.json"
        path.write_text(json.dumps(self._snapshot({"event/8x8": 0.02})))
        assert main(["bench", "report", "--file", str(path)]) == 0
        out = capsys.readouterr().out
        assert "perf trajectory" in out and "event/8x8" in out

    def test_diff_matches_compare_gate(self, tmp_path, capsys):
        from repro.cli import main
        from repro.obs.ledger import compare_snapshots

        ref = self._snapshot({"event/8x8": 0.02, "vector/8x8": 0.001})
        cur = self._snapshot({"event/8x8": 0.05, "vector/8x8": 0.001})
        ref_p, cur_p = tmp_path / "ref.json", tmp_path / "cur.json"
        ref_p.write_text(json.dumps(ref))
        cur_p.write_text(json.dumps(cur))
        rc = main([
            "bench", "report", "--file", str(cur_p),
            "--diff", str(ref_p),
        ])
        out = capsys.readouterr().out
        gate = compare_snapshots(ref, cur, 0.25)
        assert (rc != 0) == bool(gate)
        assert rc == 1
        assert "<-- regressed" in out and "FAIL" in out

    def test_diff_passes_within_threshold(self, tmp_path, capsys):
        from repro.cli import main

        ref = self._snapshot({"event/8x8": 0.02})
        cur = self._snapshot({"event/8x8": 0.021})
        ref_p, cur_p = tmp_path / "ref.json", tmp_path / "cur.json"
        ref_p.write_text(json.dumps(ref))
        cur_p.write_text(json.dumps(cur))
        assert main([
            "bench", "report", "--file", str(cur_p),
            "--diff", str(ref_p),
        ]) == 0
        assert "no workload regressed" in capsys.readouterr().out

    def test_invalid_snapshot_rejected(self, tmp_path):
        from repro.cli import main

        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"schema": 1}))  # no results
        with pytest.raises(SystemExit):
            main(["bench", "report", "--file", str(path)])

    def test_committed_ledger_is_valid(self):
        from repro.obs.ledger import load_snapshot, validate_snapshot

        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        snap = load_snapshot(os.path.join(root, "BENCH_sim.json"))
        assert validate_snapshot(snap) == []
