"""Fast tests of the benchmark's own machinery.

Run from the repository root::

    PYTHONPATH=src python -m pytest e2ebench -q
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

from e2ebench import harness, layers, metrics, workloads


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, dt: float) -> None:
        self.now += dt


@pytest.fixture
def fake_clock(monkeypatch):
    clock = FakeClock()
    monkeypatch.setattr(layers, "clock", clock)
    return clock


# -- nested-wrapper arithmetic ----------------------------------------------

def test_children_are_subtracted_and_self_times_sum_to_wall(tmp_path, fake_clock):
    tracer = layers.Tracer(str(tmp_path))

    def leaf():
        fake_clock.advance(2.0)

    def middle():
        fake_clock.advance(0.5)
        leaf()
        leaf()
        fake_clock.advance(0.25)

    def outer():
        fake_clock.advance(1.0)
        middle()
        fake_clock.advance(1.0)

    leaf = tracer.wrap("sim.kernel", leaf)
    middle = tracer.wrap("core.run", middle)
    outer = tracer.wrap("cli.command", outer)
    outer()

    assert tracer.self_s["sim.kernel"] == 4.0
    assert tracer.self_s["core.run"] == 0.75
    assert tracer.self_s["cli.command"] == 2.0
    assert sum(tracer.self_s.values()) == fake_clock.now
    assert tracer.stack == []


def test_recursion_within_one_layer_counts_once(tmp_path, fake_clock):
    tracer = layers.Tracer(str(tmp_path))

    def fib(n):
        fake_clock.advance(1.0)
        return n if n < 2 else fib(n - 1) + fib(n - 2)

    fib = tracer.wrap("retime.min_period", fib, counter="retime.feas_calls")
    assert fib(4) == 3
    assert tracer.self_s["retime.min_period"] == fake_clock.now == 9.0
    assert tracer.counts["retime.feas_calls"] == 9


def test_exceptions_still_charge_their_layer(tmp_path, fake_clock):
    tracer = layers.Tracer(str(tmp_path))

    def boom():
        fake_clock.advance(3.0)
        raise ValueError("x")

    boom = tracer.wrap("netlist.io", boom)
    with pytest.raises(ValueError):
        boom()
    assert tracer.self_s["netlist.io"] == 3.0
    assert tracer.stack == []


def test_attributed_frac_adds_process_layers(tmp_path):
    # cli.command is main's self time (everything no wrapper covers),
    # so it is reported but left out of the attributed share.
    merged = layers.merge([
        {"root": True,
         "self_s": {"cli.import": 1.0, "sim.kernel": 6.0, "cli.command": 1.5}},
    ])
    out = layers.layer_metrics(
        merged, traced_wall_s=10.0, untraced_wall_s=8.0, extra={},
        startup_s=0.5, exit_s=0.5,
    )
    assert out["trace.attributed_frac"] == pytest.approx(0.8)
    assert out["trace.overhead_frac"] == pytest.approx(0.25)
    assert out["sim.kernel_s"] == 6.0
    assert out["cli.command_s"] == 1.5


# -- per-pid records ----------------------------------------------------------

def test_merge_sums_workers_and_keeps_root_apart():
    records = [
        {"pid": 1, "root": True, "self_s": {"service.pool": 2.0},
         "counts": {"service.store_puts": 3}, "samples": {}},
        {"pid": 2, "root": False, "self_s": {"sim.kernel": 1.5},
         "counts": {"sim.cell_cycles": 100}, "samples": {"service.task": [0.5, 1.0]}},
        {"pid": 3, "root": False, "self_s": {"sim.kernel": 0.5},
         "counts": {"sim.cell_cycles": 50}, "samples": {"service.task": [1.0]}},
    ]
    merged = layers.merge(records)
    assert merged["self_s"]["sim.kernel"] == 2.0
    assert "sim.kernel" not in merged["root_self_s"]
    assert merged["counts"]["sim.cell_cycles"] == 150
    assert sorted(merged["samples"]["service.task"]) == [0.5, 1.0, 1.0]
    out = layers.layer_metrics(
        merged, traced_wall_s=4.0, untraced_wall_s=4.0,
        extra={"service.failed_points": 0},
    )
    assert out["service.task_s"] == 1.0  # nearest-rank p50 of [0.5, 1.0, 1.0]
    assert out["service.task_samples"] == 3
    assert out["trace.attributed_frac"] == 0.5


def test_forked_worker_flushes_its_own_record(tmp_path):
    tracer = layers.Tracer(str(tmp_path))
    work = tracer.wrap("sim.kernel", lambda item: item * 2)
    work(1)  # parent-side call before the fork: must stay out of the worker
    task = layers._TimedTask(work, tracer)
    pid = os.fork()
    if pid == 0:  # worker: exits like a pool worker, without atexit
        try:
            task(21)
        finally:
            os._exit(0)
    os.waitpid(pid, 0)
    task(2)  # in-process: no worker sample
    tracer.dump()

    records = {r["pid"]: r for r in layers.read_records(str(tmp_path))}
    assert set(records) == {os.getpid(), pid}
    worker, root = records[pid], records[os.getpid()]
    assert not worker["root"] and root["root"]
    assert len(worker["samples"]["service.task"]) == 1
    assert "service.task" not in root["samples"]
    merged = layers.merge(records.values())
    assert len(merged["samples"]["service.task"]) == 1


def test_tail_percentile_needs_ten_samples_beyond():
    assert layers.tail_percentile(9) is None
    assert layers.tail_percentile(20) == 50.0
    assert layers.tail_percentile(100) == 90.0
    assert layers.tail_percentile(1000) == 99.0


# -- output checks --------------------------------------------------------------

ANALYZE_OUT = """\
[cache] simulated: /somewhere/store
farm16: 500 random vectors, unit delay
============================
metric          | value
----------------+-----------
         cycles |        500
          total | 95,181,957
         useful | 29,026,059
        useless | 66,155,898
            L/F |       2.28
"""


def test_analyze_check_rejects_one_perturbed_count():
    w = workloads.WORKLOADS["analyze-farm16"]
    parsed = w.parse(ANALYZE_OUT)
    reference = dict(w.reference_of(parsed))
    assert w.check("cold", 0, parsed, reference, None, None).failed == 0
    reference["useless"] = "66,155,899"
    check = w.check("cold", 0, parsed, reference, None, None)
    assert check.failed == 1 and check.attempted == 1


def test_analyze_warm_pass_must_come_from_the_store():
    w = workloads.WORKLOADS["analyze-farm16"]
    cold = w.parse(ANALYZE_OUT)
    warm = w.parse(ANALYZE_OUT.replace("simulated:", "cache:"))
    assert w.check("warm", 0, warm, None, cold, cold).failed == 0
    assert w.check("warm", 0, cold, None, cold, cold).failed == 1


def _sweep_parsed(source="computed"):
    points = {}
    for i in range(workloads.SWEEP_POINTS):
        points[f"p{i}"] = {"source": source, "counts": [str(i), str(2 * i), str(i)]}
    return {"points": points}


def test_sweep_check_rejects_one_perturbed_count():
    w = workloads.WORKLOADS["sweep-catalog"]
    parsed = _sweep_parsed()
    reference = w.reference_of(parsed)
    check = w.check("cold", 0, parsed, reference, parsed, None)
    assert (check.attempted, check.failed) == (workloads.SWEEP_POINTS, 0)
    reference = json.loads(json.dumps(reference))
    reference["p7"][1] = "15"
    check = w.check("cold", 0, parsed, reference, parsed, None)
    assert check.failed == 1


def test_sweep_quarantined_point_fails_once():
    w = workloads.WORKLOADS["sweep-catalog"]
    cold = _sweep_parsed()
    bad = _sweep_parsed()
    bad["points"]["p3"] = {"source": "failed", "counts": ["0", "0", "0"]}
    check = w.check("cold", 1, bad, w.reference_of(cold), cold, None)
    assert check.failed == 1


def test_unparsable_output_fails_every_operation():
    w = workloads.WORKLOADS["sweep-catalog"]
    check = w.check("cold", 1, None, None, None, None)
    assert check.failed == check.attempted == workloads.SWEEP_POINTS


def test_explore_parse_reads_front_and_counts():
    out = (
        "array16x16: beam search, 16 unique candidate(s) (33 chains), 11 simulated\n"
        "\n"
        "Pareto front — power x area x critical path (rank agreement 0.5)\n"
        "=====\n"
        "point | power_mW | area_mm2 | period | latency | useful | useless | L/F\n"
        "------\n"
        "balance |     5.45 |     2.39 |     31 |       0 | 1 | 0 | 0\n"
        "original |     6.77 |     1.22 |     31 |       0 | 2 | 3 | 1.5\n"
        "\n"
        "delta reuse: 75% of candidate expansions served incrementally\n"
    )
    w = workloads.WORKLOADS["explore-array16"]
    parsed = w.parse(out)
    assert parsed["front"] == [
        ["balance", "5.45", "2.39", "31", "0"],
        ["original", "6.77", "1.22", "31", "0"],
    ]
    assert (parsed["candidates"], parsed["simulated"]) == (16, 11)
    assert parsed["delta_reuse_frac"] == 0.75
    assert w.check("cold", 0, parsed, w.reference_of(parsed), parsed, None).failed == 0
    perturbed = [row[:] for row in parsed["front"]]
    perturbed[0][1] = "5.46"
    assert w.check("cold", 0, parsed, perturbed, None, None).failed == 1


# -- seed plumbing --------------------------------------------------------------

def test_seed_reaches_the_program_inputs():
    from repro.cli import _parse_sweep, make_parser
    from repro.service.jobs import JobSpec

    for name, w in workloads.WORKLOADS.items():
        a, b = w.program_args(1), w.program_args(2)
        assert a == w.program_args(1)
        assert a != b
    analyze = workloads.WORKLOADS["analyze-farm16"]
    args = make_parser().parse_args(analyze.program_args(5))
    assert args.seed == workloads.derive_seeds("analyze-farm16", 5, 1)[0]

    sweep = workloads.WORKLOADS["sweep-catalog"]
    args = make_parser().parse_args(sweep.program_args(5))
    spec = JobSpec(n_vectors=args.vectors, sweep=_parse_sweep(args.sweep))
    seeds = sorted({p.stimulus.seed for p in spec.points()})
    assert seeds == sorted(workloads.derive_seeds("sweep-catalog", 5, workloads.SWEEP_SEEDS))
    assert len(spec.points()) == workloads.SWEEP_POINTS


# -- catalog consistency ----------------------------------------------------------

def test_benchmark_json_matches_the_metric_catalog():
    with open(os.path.join(harness.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        doc = json.load(fh)
    assert [w["name"] for w in doc["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in doc["end_to_end"]] == [
        (m.name, m.unit, m.better) for m in metrics.END_TO_END
    ]
    assert [(m["name"], m["unit"], m["better"]) for m in doc["per_layer"]] == [
        (m.name, m.unit, m.better) for m in metrics.PER_LAYER
    ]


def test_layer_metrics_cover_the_catalog():
    out = layers.layer_metrics(layers.merge([]), 1.0, 1.0, {})
    assert set(out) == {m.name for m in metrics.PER_LAYER}


def test_traced_launcher_wraps_the_real_program(tmp_path):
    trace_dir = tmp_path / "trace"
    trace_dir.mkdir()
    env = dict(harness.child_env(str(tmp_path)), **{layers.TRACE_DIR_ENV: str(trace_dir)})
    done = subprocess.run(
        harness.traced_argv([
            "analyze", "--circuit", "rca4", "--vectors", "20", "--backend", "auto",
            "--cache", str(tmp_path / "store"),
        ]),
        env=env, cwd=harness.ROOT, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    (record,) = layers.read_records(str(trace_dir))
    assert record["root"] and record["missing"] == []
    for layer in ("cli.import", "cli.command", "circuits.build", "netlist.compile",
                  "sim.plan", "sim.kernel", "service.store_put", "service.codec"):
        assert record["self_s"].get(layer, 0.0) > 0.0, layer
    assert record["counts"]["sim.cell_cycles"] > 0
    assert record["counts"]["service.store_puts"] == 1


def test_run_refuses_a_directory_without_the_program(tmp_path):
    bench = tmp_path / "e2ebench"
    bench.mkdir()
    here = os.path.dirname(os.path.abspath(__file__))
    for name in os.listdir(here):
        if name.endswith(".py") or name.endswith(".json"):
            with open(os.path.join(here, name), "rb") as src:
                (bench / name).write_bytes(src.read())
    done = subprocess.run(
        [sys.executable, str(bench / "run.py"), "--workload", "sweep-catalog",
         "--seed", "1", "--seconds", "1"],
        capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
