"""Every metric the benchmark reports, with its unit and direction.

End-to-end metrics come from untraced runs (``--trace 0``); per-layer
metrics from a traced run (``--trace 1``).  Each per-layer metric
records, before anything is measured, the end-to-end metric it should
move, the workload where a change to it should show (``large_on``) and
the workloads where the prediction is no change (``zero_on``).

Per-layer ``_s`` metrics are self times in seconds summed over every
process of one traced iteration (for ``analyze-farm16`` its cold and
warm pass; pool workers included); counts are summed the same way.
"""

from __future__ import annotations

from dataclasses import dataclass

ANALYZE, EXPLORE, SWEEP = "analyze-farm16", "explore-array16", "sweep-catalog"
ALL = "all"


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    meaning: str
    moves: str = ""
    large_on: str = ""
    zero_on: str = ""


END_TO_END = (
    Metric("wall_s", "s", "lower",
           "median spawn-to-exit wall time of the cold pass"),
    Metric("setup_s", "s", "lower",
           "median spawn-to-exit time of '<subcommand> --help': interpreter start, "
           "import repro.cli, argument parsing"),
    Metric("peak_rss_mb", "MB", "lower",
           "median over iterations of the largest resident set of any process "
           "in a pass's tree, pool workers included"),
)

#: Printed beside the end-to-end metrics, but not BENCHMARK.json
#: metrics: those must be reported by every workload and never be 0.
#: Only ``analyze-farm16`` has a warm pass.  ``failed_frac`` is 0
#: whenever nothing fails; the result's ``failed``/``attempted`` carry
#: it exactly.
WARM = Metric(
    "warm_s", "s", "lower",
    "median spawn-to-exit wall time of the warm pass served from the store",
)
FAILED_FRAC = Metric(
    "failed_frac", "ratio", "lower",
    "failed operations / attempted: non-zero exits, quarantined points, "
    "outputs that differ from the reference or the run's first cold pass",
)

_S = ("s", "lower")
_N = ("count", "lower")

PER_LAYER = (
    Metric("cli.import_s", *_S, "import repro.cli", "setup_s", ALL, "-"),
    Metric("cli.command_s", *_S,
           "repro.cli.main self time: argument parsing, output formatting, "
           "CLI glue between layers", "wall_s", ALL, "-"),
    Metric("circuits.build_s", *_S, "circuits.catalog.build_named_circuit",
           "wall_s, warm_s", ANALYZE, EXPLORE),
    Metric("netlist.compile_s", *_S, "compile_circuit",
           "wall_s, warm_s", ANALYZE, EXPLORE),
    Metric("netlist.compile_calls", *_N, "compile_circuit calls",
           "wall_s, warm_s", ANALYZE, EXPLORE),
    Metric("netlist.compile_delta_s", *_S, "compile_delta",
           "wall_s", EXPLORE, f"{ANALYZE}, {SWEEP}"),
    Metric("netlist.levelize_s", *_S,
           "level_groups, levelize_cells, levelize_cells_delta",
           "wall_s", ANALYZE, EXPLORE),
    Metric("netlist.codegen_s", *_S,
           "build_settle_pass, build_waveform_pass, build_prob_pass, "
           "build_density_pass", "wall_s", EXPLORE, ANALYZE),
    Metric("netlist.fingerprint_s", *_S, "circuit_fingerprint, delay_fingerprint",
           "warm_s, wall_s", f"{ANALYZE} (warm), {EXPLORE}", SWEEP),
    Metric("netlist.fingerprint_calls", *_N,
           "circuit_fingerprint and delay_fingerprint calls",
           "warm_s, wall_s", f"{ANALYZE} (warm), {EXPLORE}", SWEEP),
    Metric("netlist.delta_s", *_S, "CircuitDelta.apply, diff_circuits",
           "wall_s", EXPLORE, f"{ANALYZE}, {SWEEP}"),
    Metric("netlist.io_s", *_S, "circuit_to_json, circuit_from_json",
           "wall_s", EXPLORE, ANALYZE),
    Metric("sim.plan_s", *_S, "get_backend and engine constructors",
           "wall_s", ANALYZE, EXPLORE),
    Metric("sim.kernel_s", *_S, "run of the engine that ran",
           "wall_s", f"{SWEEP}, {ANALYZE} (cold)", f"{EXPLORE}, {ANALYZE} (warm)"),
    Metric("sim.cell_cycles", "count", "higher",
           "cells x cycles simulated; the count must never change",
           "wall_s", f"{SWEEP}, {ANALYZE}", EXPLORE),
    Metric("sim.cell_cycles_per_s", "1/s", "higher",
           "sim.cell_cycles / sim.kernel_s", "wall_s", f"{SWEEP}, {ANALYZE}", EXPLORE),
    Metric("core.run_s", *_S,
           "ActivityRun.run self time: stimulus expansion, result assembly",
           "wall_s", SWEEP, EXPLORE),
    Metric("estimate.full_s", *_S, "estimate_workload, workload_snapshot",
           "wall_s", f"{SWEEP} (estimate points), {EXPLORE}", ANALYZE),
    Metric("estimate.full_calls", *_N, "estimate_workload and workload_snapshot calls",
           "wall_s", f"{SWEEP} (estimate points), {EXPLORE}", ANALYZE),
    Metric("estimate.cone_s", *_S, "incremental_workload",
           "wall_s", EXPLORE, f"{ANALYZE}, {SWEEP}"),
    Metric("estimate.cone_calls", *_N, "incremental_workload calls",
           "wall_s", EXPLORE, f"{ANALYZE}, {SWEEP}"),
    Metric("opt.balance_s", *_S, "balance_paths, balance_paths_delta",
           "wall_s", EXPLORE, f"{ANALYZE}, {SWEEP}"),
    Metric("opt.cleanup_s", *_S,
           "propagate_constants, dead_cell_elimination, strip_buffers and "
           "their _delta forms", "wall_s", EXPLORE, f"{ANALYZE}, {SWEEP}"),
    Metric("retime.min_period_s", *_S, "minimum_period, feas",
           "wall_s", EXPLORE, f"{ANALYZE}, {SWEEP}"),
    Metric("retime.feas_calls", *_N, "feas calls",
           "wall_s", EXPLORE, f"{ANALYZE}, {SWEEP}"),
    Metric("retime.apply_s", *_S, "apply_retiming, apply_retiming_delta",
           "wall_s", EXPLORE, f"{ANALYZE}, {SWEEP}"),
    Metric("retime.pipeline_s", *_S, "pipeline_circuit self time",
           "wall_s", EXPLORE, f"{ANALYZE}, {SWEEP}"),
    Metric("explore.search_s", *_S, "explore self time",
           "wall_s", EXPLORE, f"{ANALYZE}, {SWEEP}"),
    Metric("explore.cost_s", *_S,
           "estimated_cost, estimated_cost_from, simulated_cost, "
           "transition_instant_sets, spliced_instant_state",
           "wall_s", EXPLORE, f"{ANALYZE}, {SWEEP}"),
    Metric("explore.candidates", *_N, "unique candidates explore prints",
           "wall_s", EXPLORE, f"{ANALYZE}, {SWEEP}"),
    Metric("explore.simulated", *_N, "simulated candidates explore prints",
           "wall_s", EXPLORE, f"{ANALYZE}, {SWEEP}"),
    Metric("explore.delta_reuse_frac", "ratio", "higher",
           "share of expansions served incrementally, as explore prints it",
           "wall_s", EXPLORE, f"{ANALYZE}, {SWEEP}"),
    Metric("service.store_put_s", *_S, "ResultStore.put",
           "wall_s", f"{ANALYZE} (cold), {SWEEP}", EXPLORE),
    Metric("service.store_puts", *_N, "ResultStore.put calls",
           "wall_s", f"{ANALYZE} (cold), {SWEEP}", EXPLORE),
    Metric("service.store_get_s", *_S, "ResultStore.get",
           "warm_s", f"{ANALYZE} (warm)", EXPLORE),
    Metric("service.store_hit_frac", "ratio", "higher",
           "ResultStore.get calls that hit / all calls",
           "warm_s", f"{ANALYZE} (warm)", EXPLORE),
    Metric("service.codec_s", *_S,
           "encode_result, decode_result, encode_estimate, decode_estimate",
           "warm_s, wall_s", ANALYZE, EXPLORE),
    Metric("service.pool_s", *_S,
           "run_supervised self time in the parent: dispatching and waiting",
           "wall_s", SWEEP, f"{ANALYZE}, {EXPLORE}"),
    Metric("service.worker_busy_frac", "ratio", "higher",
           "worker task time summed / (workers x pool wall)",
           "wall_s", SWEEP, f"{ANALYZE}, {EXPLORE}"),
    Metric("service.task_s", *_S,
           "median (nearest rank) worker-side wall time of one task",
           "wall_s", SWEEP, f"{ANALYZE}, {EXPLORE}"),
    Metric("service.task_tail_s", *_S,
           "worker-side task time at service.task_tail_pct, the highest of "
           "p50/p90/p99/p99.9 with at least 10 samples beyond it",
           "wall_s", SWEEP, f"{ANALYZE}, {EXPLORE}"),
    Metric("service.task_tail_pct", "%", "lower",
           "the percentile service.task_tail_s reports (0: too few samples)",
           "-", SWEEP, "-"),
    Metric("service.task_samples", *_N, "worker-side tasks timed",
           "-", SWEEP, "-"),
    Metric("service.retries", *_N, "retried tasks, from the pool result",
           "failed_frac", SWEEP, "-"),
    Metric("service.failed_points", *_N, "points the submit report marks failed",
           "failed_frac", SWEEP, "-"),
    Metric("process.startup_s", *_S,
           "spawn until the traced launcher's first line: interpreter "
           "start-up, timed from outside", "setup_s", ALL, "-"),
    Metric("process.exit_s", *_S,
           "repro.cli.main returned until the process was reaped: "
           "interpreter teardown, timed from outside", "wall_s", EXPLORE, "-"),
    Metric("trace.attributed_frac", "ratio", "higher",
           "named-layer self time in the root processes (process.* "
           "included, cli.command left out) / traced wall", "-", ALL, "-"),
    Metric("trace.overhead_frac", "ratio", "lower",
           "(traced - untraced wall) / untraced wall of one iteration", "-", ALL, "-"),
)
