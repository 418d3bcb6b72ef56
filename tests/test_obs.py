"""The observability layer itself: recorder, export, metrics, overhead.

The load-bearing guarantees tested here:

* span nesting and timing survive the round trip through the Chrome
  trace format (``events_from_chrome . chrome_trace`` rebuilds depth);
* the exported document conforms to the checked-in ``TRACE_SCHEMA``
  under the stdlib validator CI uses;
* the disabled path is cheap enough to leave compiled into every hot
  layer: hook-call count x per-call cost stays under 2% of an
  event-backend run (the ISSUE's overhead budget);
* worker blobs merge losslessly (events + counters).
"""

import json
import os
import time

import pytest
from hypothesis import given, settings, strategies as st

from repro.obs import manifest as obs_manifest
from repro.obs import trace
from repro.obs.metrics import MetricsRegistry


@pytest.fixture(autouse=True)
def _untraced():
    """No recorder (or REPRO_TRACE) leaks between tests."""
    trace.disable()
    yield
    trace.disable()


class TestRecorder:
    def test_span_records_complete_event(self):
        with trace.capture() as rec:
            with trace.span("phase.one", k="v"):
                pass
        (e,) = rec.events
        assert e["name"] == "phase.one"
        assert e["ph"] == "X"
        assert e["args"] == {"k": "v"}
        assert e["dur"] >= 0 and e["depth"] == 0
        assert e["pid"] == os.getpid()

    def test_nesting_depth(self):
        with trace.capture() as rec:
            with trace.span("outer"):
                with trace.span("inner"):
                    pass
                with trace.span("inner2"):
                    pass
        depths = {e["name"]: e["depth"] for e in rec.events}
        assert depths == {"outer": 0, "inner": 1, "inner2": 1}

    def test_span_set_attaches_attrs(self):
        with trace.capture() as rec:
            with trace.span("s") as sp:
                sp.set(backend="vector")
        assert rec.events[0]["args"]["backend"] == "vector"

    def test_span_records_error_on_exception(self):
        with trace.capture() as rec:
            with pytest.raises(ValueError):
                with trace.span("boom"):
                    raise ValueError("x")
        assert rec.events[0]["args"]["error"] == "ValueError"

    def test_complete_is_loop_friendly(self):
        with trace.capture() as rec:
            t0 = rec.now()
            rec.complete("batch", t0, cycles=64)
        (e,) = rec.events
        assert e["name"] == "batch" and e["args"]["cycles"] == 64
        assert e["dur"] >= 0

    def test_instant(self):
        with trace.capture() as rec:
            trace.instant("tick", n=1)
        (e,) = rec.events
        assert e["ph"] == "i" and e["dur"] == 0

    def test_timestamps_are_epoch_anchored(self):
        before = time.time_ns()
        with trace.capture() as rec:
            with trace.span("s"):
                pass
        after = time.time_ns()
        ts = rec.events[0]["ts"]
        assert before - 10**9 <= ts <= after + 10**9

    def test_find(self):
        with trace.capture() as rec:
            trace.instant("a")
            trace.instant("b")
            trace.instant("a")
        assert len(rec.find("a")) == 2


class TestEnablement:
    def test_disabled_hooks_are_noops(self):
        assert trace.active() is None
        assert trace.span("x") is trace.NULL_SPAN
        trace.instant("x")
        trace.inc("x")  # none of these raise or record

    def test_null_span_supports_protocol(self):
        with trace.NULL_SPAN as sp:
            assert sp.set(a=1) is trace.NULL_SPAN

    def test_enable_sets_env_for_workers(self):
        rec = trace.enable()
        assert os.environ.get(trace.ENV_VAR) == "1"
        assert trace.active() is rec
        trace.disable()
        assert os.environ.get(trace.ENV_VAR) is None

    def test_worker_adopts_from_env(self, monkeypatch):
        monkeypatch.setenv(trace.ENV_VAR, "1")
        trace._RECORDER = None
        trace._ENV_CHECKED = False
        rec = trace.active()
        assert rec is not None  # fresh process would start recording

    def test_capture_restores_prior_state(self):
        with trace.capture():
            with trace.capture():
                pass
            assert trace.enabled()  # outer capture still armed
        assert not trace.enabled()


class TestBlobMerge:
    def test_drain_and_absorb_round_trip(self):
        worker = trace.Recorder()
        with worker.span("w.task"):
            pass
        worker.metrics.inc("sim.vectors", 7)
        blob = worker.drain_blob()
        assert worker.events == []  # drained

        parent = trace.Recorder()
        parent.absorb(blob)
        assert [e["name"] for e in parent.events] == ["w.task"]
        assert parent.metrics.get("sim.vectors") == 7

    def test_empty_drain_is_none(self):
        assert trace.Recorder().drain_blob() is None
        trace.Recorder().absorb(None)  # tolerated


class TestChromeExport:
    def _sample(self):
        with trace.capture() as rec:
            with trace.span("sim.run", circuit="rca8"):
                with trace.span("sim.batch"):
                    pass
                trace.instant("store.miss")
        return rec.events

    def test_export_validates_against_schema(self):
        doc = trace.chrome_trace(self._sample())
        assert trace.validate_chrome_trace(doc) == []

    def test_export_units_and_metadata(self):
        events = self._sample()
        doc = trace.chrome_trace(events)
        rows = doc["traceEvents"]
        meta = [r for r in rows if r["ph"] == "M"]
        assert meta and meta[0]["args"]["name"].startswith("repro[")
        x = next(r for r in rows if r["name"] == "sim.run")
        src = next(e for e in events if e["name"] == "sim.run")
        assert x["ts"] == pytest.approx(src["ts"] / 1000.0)
        assert x["dur"] == pytest.approx(src["dur"] / 1000.0)
        assert x["cat"] == "sim"
        inst = next(r for r in rows if r["name"] == "store.miss")
        assert inst["ph"] == "i" and inst["s"] == "t"

    def test_write_is_loadable_json(self, tmp_path):
        path = tmp_path / "t.json"
        trace.write_chrome_trace(str(path), self._sample())
        doc = json.loads(path.read_text())
        assert trace.validate_chrome_trace(doc) == []

    def test_round_trip_rebuilds_depth(self):
        events = self._sample()
        back = trace.events_from_chrome(trace.chrome_trace(events))
        depths = {e["name"]: e["depth"] for e in back}
        assert depths["sim.run"] == 0
        assert depths["sim.batch"] == 1
        assert depths["store.miss"] == 1

    def test_validator_rejects_malformed(self):
        assert trace.validate_chrome_trace({"nope": 1})
        bad = {"traceEvents": [{"name": "x", "ph": "Q", "ts": 0,
                                "pid": 1, "tid": 1}]}
        errors = trace.validate_chrome_trace(bad)
        assert any("'Q'" in e for e in errors)
        # booleans are not numbers
        bad = {"traceEvents": [{"name": "x", "ph": "i", "ts": True,
                                "pid": 1, "tid": 1}]}
        assert trace.validate_chrome_trace(bad)


class TestFormatTree:
    def test_tree_indents_children(self):
        with trace.capture() as rec:
            with trace.span("outer"):
                with trace.span("inner"):
                    pass
                trace.instant("mark")
        text = trace.format_tree(rec.events)
        lines = text.splitlines()
        assert lines[0].startswith("outer ")
        assert lines[1].startswith("  inner ")
        assert "· mark" in lines[2]

    def test_min_ms_folds_fast_spans(self):
        with trace.capture() as rec:
            with trace.span("fast"):
                with trace.span("child"):
                    pass
        text = trace.format_tree(rec.events, min_ms=10_000.0)
        assert text == ""  # both folded (nothing takes 10s)


class TestMetrics:
    def test_inc_and_get(self):
        m = MetricsRegistry()
        m.inc("a")
        m.inc("a", 4)
        assert m.get("a") == 5
        assert m.get("missing") == 0

    def test_gauge_overwrites(self):
        m = MetricsRegistry()
        m.gauge("depth", 3)
        m.gauge("depth", 5)
        assert m.snapshot()["gauges"]["depth"] == 5

    def test_merge_adds_counters_overwrites_gauges(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.inc("n", 2)
        b.inc("n", 3)
        b.gauge("g", 9)
        snap = b.snapshot()
        a.merge(snap["counters"], snap["gauges"])
        assert a.get("n") == 5
        assert a.snapshot()["gauges"]["g"] == 9

    def test_snapshot_is_sorted_and_json_safe(self):
        m = MetricsRegistry()
        m.inc("z")
        m.inc("a")
        snap = m.snapshot()
        assert list(snap["counters"]) == ["a", "z"]
        json.dumps(snap)

    def test_format_table_lines_up(self):
        m = MetricsRegistry()
        m.inc("store.hit", 3)
        m.inc("pool.retry")
        text = m.format_table()
        assert "store.hit" in text and "3" in text
        assert "pool.retry" in text


class TestObsGauge:
    def test_gauge_hook_reaches_registry(self):
        with trace.capture() as rec:
            trace.gauge("x.y", 0.25)
            trace.gauge("x.y", 0.75)
        assert rec.metrics.snapshot()["gauges"]["x.y"] == 0.75

    def test_gauge_noop_when_disabled(self):
        trace.gauge("x.z", 1.0)  # must not raise


class TestWarnEvent:
    def test_warns_and_records(self):
        class CustomWarning(UserWarning):
            pass

        with trace.capture() as rec:
            with pytest.warns(CustomWarning, match="disk full"):
                trace.warn_event(CustomWarning("disk full"), digest="abc")
        (e,) = rec.find("warning")
        assert e["args"]["category"] == "CustomWarning"
        assert e["args"]["message"] == "disk full"
        assert e["args"]["digest"] == "abc"
        assert rec.metrics.get("warning.CustomWarning") == 1

    def test_warns_even_when_disabled(self):
        with pytest.warns(UserWarning):
            trace.warn_event(UserWarning("still visible"))


class TestDisabledOverhead:
    def test_disabled_cost_under_two_percent_of_event_run(self):
        """Hook-call count x per-call cost < 2% of the run it rides on.

        The instrumentation charges hot loops once per batch, so the
        number of hook invocations in a run is tiny; this pins that
        product against a real event-backend run so a regression that
        moves hooks into the inner loop fails loudly.
        """
        from repro.circuits.catalog import build_named_circuit
        from repro.core.activity import ActivityRun
        from repro.sim.vectors import UniformStimulus

        circuit, stim = build_named_circuit("rca16")
        vectors = list(UniformStimulus(seed=7).vectors(stim, 101))

        run = ActivityRun(circuit, backend="event")
        t0 = time.perf_counter()
        run.run(iter(vectors))
        t_run = time.perf_counter() - t0

        # Count hook invocations for the identical run.
        calls = {"n": 0}
        real_active = trace.active

        def counting_active():
            calls["n"] += 1
            return real_active()

        trace.active, saved = counting_active, trace.active
        try:
            ActivityRun(circuit, backend="event").run(iter(vectors))
        finally:
            trace.active = saved
        n_calls = max(
            calls["n"], 10
        )  # floor the count so the bound is never vacuous

        # Microbench the disabled per-call cost.
        reps = 50_000
        t0 = time.perf_counter()
        for _ in range(reps):
            trace.span("x")
        per_call = (time.perf_counter() - t0) / reps

        assert n_calls * per_call < 0.02 * t_run, (
            f"{n_calls} disabled hook calls x {per_call * 1e9:.0f}ns "
            f"= {n_calls * per_call * 1e3:.3f}ms "
            f">= 2% of {t_run * 1e3:.1f}ms run"
        )

    @settings(max_examples=20, deadline=None)
    @given(st.integers(min_value=0, max_value=1000))
    def test_disabled_hooks_record_nothing(self, n):
        trace.disable()
        for _ in range(n % 7):
            trace.inc("c")
            trace.instant("i")
            with trace.span("s"):
                pass
        assert trace.active() is None


class TestManifest:
    def test_build_manifest_shape(self):
        with trace.capture() as rec:
            with trace.span("sim.run"):
                pass
            rec.metrics.inc("store.hit")
        manifest = obs_manifest.build_manifest(
            rec, command="analyze", backend="event", seed=3,
        )
        assert manifest["schema"] == obs_manifest.MANIFEST_SCHEMA_VERSION
        assert manifest["command"] == "analyze"
        assert manifest["environment"]["python"]
        assert "sim.run" in manifest["phases"]
        assert manifest["metrics"]["counters"]["store.hit"] == 1
        assert manifest["fault_plan"] is None
        json.dumps(manifest)

    def test_manifest_records_armed_fault_plan(self):
        from repro.service import faults

        plan = faults.FaultPlan(
            seed=5,
            faults={"store.bitflip": faults.FaultSpec(rate=1.0)},
        )
        with trace.capture() as rec, faults.armed(plan):
            manifest = obs_manifest.build_manifest(rec, command="x")
        assert manifest["fault_plan"]["seed"] == 5
        assert "store.bitflip" in manifest["fault_plan"]["faults"]

    def test_span_coverage_full_when_one_span_covers(self):
        with trace.capture() as rec:
            with trace.span("everything"):
                with trace.span("inner"):
                    pass
        assert obs_manifest.span_coverage(rec.events) == pytest.approx(
            1.0, abs=1e-6
        )

    def test_span_coverage_sees_gaps(self):
        rec = trace.Recorder()
        base = rec._epoch_ns

        def ev(ts, dur):
            return {
                "name": "s", "ph": "X", "ts": base + ts, "dur": dur,
                "cpu": 0, "depth": 0, "pid": rec.pid, "args": {},
            }

        events = [ev(0, 100), ev(300, 100)]  # half the window is dark
        assert obs_manifest.span_coverage(events) == pytest.approx(0.5)

    def test_write_manifest_creates_directory(self, tmp_path):
        with trace.capture() as rec:
            pass
        manifest = obs_manifest.build_manifest(rec, command="analyze")
        path = obs_manifest.write_manifest(
            str(tmp_path / "manifests"), manifest
        )
        assert json.loads(open(path).read())["command"] == "analyze"
