"""Observability wired through the real layers: the ISSUE's acceptance.

* the pinned fig5 run's manifest accounts >=95% of wall time in spans;
* ``sim.cell_evals`` / ``sim.vectors`` equal cells x vectors exactly,
  on every available backend and through each retired engine name;
* a chaos-seeded run emits exactly the injected-fault events;
* pool retry and store hit/miss counters match injected scenarios;
* worker trace blobs merge into the parent timeline (processes=2);
* the CLI surface: ``--trace`` / ``--metrics`` and ``repro trace``.
"""

import json
import os

import pytest

from repro import cli
from repro.circuits.catalog import build_named_circuit
from repro.core.activity import ActivityRun
from repro.obs import trace
from repro.service import faults
from repro.service.pool import RetryPolicy, run_supervised
from repro.service.store import ResultStore, RunKey, GLITCH_EXACT
from repro.sim.backends import available_backends
from repro.sim.vectors import UniformStimulus


@pytest.fixture(autouse=True)
def _clean():
    trace.disable()
    faults.disarm()
    yield
    trace.disable()
    faults.disarm()


def _payload(n: int = 0, pad: int = 0) -> dict:
    return {
        "schema": 1,
        "circuit_name": f"circ{n}",
        "delay_description": "unit delay",
        "cycles": 100,
        "per_node": {f"net{n}x{'p' * pad}": [4, 2, 2, 2, 3]},
    }


def _run_events(circuit, stim, backend, n_vectors=60, seed=3):
    with trace.capture() as rec:
        run = ActivityRun(circuit, backend=backend)
        result = run.run(UniformStimulus(seed=seed).vectors(stim, n_vectors + 1))
    return rec, result


#: Retired engine names that still resolve to the lanes engine; the
#: counters must hold through every name a caller can pass.
_RETIRED_NAMES = ["bitparallel", "codegen", "waveform"]


class TestCountersMatchRunStats:
    @pytest.mark.parametrize(
        "backend", sorted(available_backends() + _RETIRED_NAMES)
    )
    def test_cell_evals_equal_cells_times_vectors(self, backend):
        circuit, stim = build_named_circuit("rca8")
        rec, result = _run_events(circuit, stim, backend)
        assert rec.metrics.get("sim.vectors") == result.cycles
        assert rec.metrics.get("sim.cell_evals") == (
            len(circuit.cells) * result.cycles
        )

    def test_batched_backends_accumulate_across_batches(self):
        # More vectors than one zero-delay lanes batch (256 cycles)
        # forces several sim.batch spans; counters must still total
        # exactly.
        circuit, stim = build_named_circuit("rca8")
        rec, result = _run_events(
            circuit, stim, "bitparallel", n_vectors=300
        )
        batches = rec.find("sim.batch")
        assert len(batches) >= 2
        assert sum(e["args"]["cycles"] for e in batches) == result.cycles
        assert rec.metrics.get("sim.cell_evals") == (
            len(circuit.cells) * result.cycles
        )


class TestChaosEventsExact:
    def test_trace_records_exactly_the_injected_faults(self, tmp_path):
        plan = faults.FaultPlan(
            seed=7,
            faults={"store.bitflip": faults.FaultSpec(rate=1.0, max_fires=2)},
        )
        key = RunKey("c", "d", "s", 10, GLITCH_EXACT)
        payload = _payload()
        with trace.capture() as rec, faults.armed(plan):
            store = ResultStore(tmp_path)
            store.put(key, payload)  # write 1: corrupted (fire 1)
            assert store.get(key) is None  # detected -> self-heal
            store.put(key, payload)  # write 2: corrupted (fire 2)
            assert store.get(key) is None
            store.put(key, payload)  # max_fires exhausted: clean
            assert store.get(key) == payload
        fired = rec.find("fault.fired")
        assert len(fired) == 2
        assert all(e["args"]["point"] == "store.bitflip" for e in fired)
        assert rec.metrics.get("fault.store.bitflip") == 2
        assert rec.metrics.get("store.self_heal") == 2

    def test_unarmed_run_emits_no_fault_events(self, tmp_path):
        with trace.capture() as rec:
            store = ResultStore(tmp_path)
            store.put(RunKey("c", "d", "s", 1, GLITCH_EXACT), _payload())
        assert rec.find("fault.fired") == []


class TestPoolAndStoreCounters:
    def test_store_hit_miss_counters_exact(self, tmp_path):
        key = RunKey("c", "d", "s", 10, GLITCH_EXACT)
        with trace.capture() as rec:
            store = ResultStore(tmp_path)
            assert store.get(key) is None  # miss 1
            store.put(key, _payload())  # put 1
            assert store.get(key) is not None  # hit 1
            assert store.get(key) is not None  # hit 2
        counters = rec.metrics.snapshot()["counters"]
        assert counters["store.miss"] == 1
        assert counters["store.put"] == 1
        assert counters["store.hit"] == 2

    def test_eviction_counter(self, tmp_path):
        one = len(json.dumps(_payload(0, pad=10)))
        with trace.capture() as rec:
            store = ResultStore(tmp_path, max_bytes=2 * one)
            for n in range(4):
                store.put(
                    RunKey(f"c{n}", "d", "s", 1, GLITCH_EXACT),
                    _payload(n, pad=10),
                )
        assert rec.metrics.get("store.eviction") == 2

    def test_sequential_retry_counters_match_scenario(self, tmp_path):
        marker = tmp_path / "tried"
        items = [(marker, 4)]
        policy = RetryPolicy(max_attempts=2, backoff_base_s=0.0)
        with trace.capture() as rec:
            result = run_supervised(_flaky, items, policy=policy)
        assert result.payloads == [16]
        assert rec.metrics.get("pool.error") == 1
        assert rec.metrics.get("pool.retry") == 1
        assert rec.metrics.get("pool.quarantine") == 0
        (retry,) = rec.find("pool.retry")
        assert retry["args"]["kind"] == "error"

    def test_sequential_quarantine_counter(self):
        policy = RetryPolicy(max_attempts=2, backoff_base_s=0.0)
        with trace.capture() as rec:
            result = run_supervised(_always_fails, [1], policy=policy)
        assert result.failures
        assert rec.metrics.get("pool.error") == 2  # both attempts failed
        assert rec.metrics.get("pool.retry") == 1
        assert rec.metrics.get("pool.quarantine") == 1


class TestWorkerBlobMerge:
    def test_pool_workers_ship_spans_and_counters(self):
        with trace.capture() as rec:
            result = run_supervised(_square, list(range(6)), processes=2)
        assert sorted(result.payloads) == [0, 1, 4, 9, 16, 25]
        tasks = rec.find("pool.task")
        assert len(tasks) == 6
        worker_pids = {e["pid"] for e in tasks}
        assert os.getpid() not in worker_pids  # spans recorded in workers
        assert rec.metrics.get("pool.dispatch") == 6

    def test_sharded_run_merges_worker_sim_counters(self):
        circuit, stim = build_named_circuit("rca8")
        vectors = list(UniformStimulus(seed=5).vectors(stim, 81))
        with trace.capture() as rec:
            run = ActivityRun(circuit, backend="event")
            result = run.run_sharded(iter(vectors), shards=2, processes=2)
        # Counters meter *work done*: the sharded total includes the
        # zero-delay fast-forward to each shard's boundary state, so it
        # exceeds result.cycles but must equal what the batch spans saw
        # — proving worker blobs merged losslessly.
        batches = rec.find("sim.batch")
        assert rec.metrics.get("sim.vectors") == sum(
            e["args"]["cycles"] for e in batches
        )
        assert rec.metrics.get("sim.vectors") >= result.cycles
        event_cycles = sum(
            e["args"]["cycles"] for e in batches
            if e["args"]["backend"] == "event"
        )
        assert event_cycles == result.cycles
        pids = {e["pid"] for e in rec.events}
        assert len(pids) >= 2  # parent + at least one worker timeline


class TestManifestCoverage:
    def test_fig5_manifest_covers_95_percent(self, tmp_path, capsys):
        trace_path = tmp_path / "fig5.json"
        status = cli.main([
            "experiment", "fig5", "--vectors", "300",
            "--cache", str(tmp_path / "cache"),
            "--trace", str(trace_path), "--metrics",
        ])
        assert status == 0
        manifests = os.listdir(tmp_path / "cache" / "manifests")
        assert len(manifests) == 1
        manifest = json.loads(
            (tmp_path / "cache" / "manifests" / manifests[0]).read_text()
        )
        assert manifest["span_coverage"] >= 0.95
        counters = manifest["metrics"]["counters"]
        assert counters["sim.vectors"] == 300
        assert counters["store.miss"] == 1
        phases = manifest["phases"]
        assert "experiment.fig5" in phases
        # The trace file on disk is schema-valid and loadable.
        doc = json.loads(trace_path.read_text())
        assert trace.validate_chrome_trace(doc) == []

    def test_warm_rerun_counts_a_hit(self, tmp_path, capsys):
        cache = str(tmp_path / "cache")
        cli.main(["experiment", "fig5", "--vectors", "120",
                  "--cache", cache])
        status = cli.main([
            "experiment", "fig5", "--vectors", "120", "--cache", cache,
            "--metrics",
        ])
        assert status == 0
        out = capsys.readouterr().out
        assert "store.hit" in out
        # Two manifests now sit next to the job records.
        assert len(os.listdir(tmp_path / "cache" / "manifests")) == 1


class TestCliTraceSurface:
    def test_analyze_trace_and_metrics(self, tmp_path, capsys):
        trace_path = tmp_path / "t.json"
        status = cli.main([
            "analyze", "--circuit", "rca8", "--vectors", "50",
            "--backend", "event", "--trace", str(trace_path), "--metrics",
        ])
        assert status == 0
        out = capsys.readouterr().out
        assert "[trace]" in out
        assert "sim.vectors" in out
        doc = json.loads(trace_path.read_text())
        assert trace.validate_chrome_trace(doc) == []
        names = {e["name"] for e in doc["traceEvents"]}
        assert "sim.run" in names and "sim.batch" in names

    def test_trace_subcommand_renders_tree(self, tmp_path, capsys):
        trace_path = tmp_path / "t.json"
        cli.main([
            "analyze", "--circuit", "rca8", "--vectors", "50",
            "--backend", "event", "--trace", str(trace_path),
        ])
        capsys.readouterr()
        assert cli.main(["trace", str(trace_path)]) == 0
        out = capsys.readouterr().out
        assert "sim.run" in out
        assert "  sim.batch" in out  # nested under sim.run

    def test_trace_subcommand_validate(self, tmp_path, capsys):
        trace_path = tmp_path / "t.json"
        cli.main([
            "analyze", "--circuit", "rca8", "--vectors", "20",
            "--backend", "event", "--trace", str(trace_path),
        ])
        capsys.readouterr()
        assert cli.main(["trace", str(trace_path), "--validate"]) == 0
        assert "valid" in capsys.readouterr().out

        bad = tmp_path / "bad.json"
        bad.write_text('{"traceEvents": [{"ph": "Q"}]}')
        assert cli.main(["trace", str(bad), "--validate"]) == 1

    def test_submit_with_trace_covers_pool(self, tmp_path, capsys):
        trace_path = tmp_path / "t.json"
        status = cli.main([
            "submit", "--circuit", "rca8", "--vectors", "40",
            "--cache", str(tmp_path / "cache"),
            "--trace", str(trace_path), "--metrics",
        ])
        assert status == 0
        doc = json.loads(trace_path.read_text())
        names = {e["name"] for e in doc["traceEvents"]}
        assert "jobs.batch" in names
        out = capsys.readouterr().out
        assert "[manifest]" in out

    def test_degraded_backend_appears_in_trace(self, tmp_path, capsys):
        # Poison only auto's first choice so the run degrades exactly
        # one hop down the fallback chain and still completes.
        from repro.sim.backends import select_backend

        first = select_backend()
        plan = faults.FaultPlan(
            faults={"backend.memoryerror": faults.FaultSpec(
                rate=1.0, keys=(first,),
            )},
        )
        circuit, stim = build_named_circuit("rca8")
        with trace.capture() as rec, faults.armed(plan):
            with pytest.warns(Warning):
                ActivityRun(circuit, backend="auto").run(
                    UniformStimulus(seed=1).vectors(stim, 21)
                )
        assert rec.metrics.get("backend.degraded") >= 1
        warning_events = rec.find("warning")
        assert any(
            e["args"]["category"] == "BackendDegradedWarning"
            for e in warning_events
        )


def _square(x):
    return x * x


def _flaky(arg):
    marker, x = arg
    if not marker.exists():
        marker.write_text("tried")
        raise ValueError(f"first attempt for {x} fails")
    return x * x


def _always_fails(x):
    raise RuntimeError(f"task {x} is broken")
