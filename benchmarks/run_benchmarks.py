#!/usr/bin/env python
"""Refresh the committed simulator/estimator-throughput trajectory.

Runs ``bench_sim_throughput.py``, ``bench_estimate_throughput.py``,
``bench_explore.py``, ``bench_obs_overhead.py``, ``bench_retime.py``,
``bench_netlist.py``, ``bench_startup.py`` and ``bench_batch_size.py``
through pytest-benchmark's JSON export and normalizes the result into
``BENCH_sim.json`` at the repo root: one entry per (backend, workload)
with the median wall time and derived rates, plus per-workload
speedups relative to the event-driven reference (simulators) or the
seed dict-walking implementation (estimators).  Committing the file
after perf-relevant PRs gives the repo a reviewable perf trajectory —
a regression shows up as a diff, not as an anecdote.

Usage (from the repo root)::

    PYTHONPATH=src python benchmarks/run_benchmarks.py

The regression gate is ``repro bench report --diff REFERENCE.json``
(:func:`repro.obs.ledger.compare_snapshots`), which the CI bench job
runs against a baseline measured on the same runner.

Extra pytest arguments are passed through, e.g.::

    PYTHONPATH=src python benchmarks/run_benchmarks.py -k "16"
"""

from __future__ import annotations

import json
import platform
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

BENCHES = [
    Path(__file__).resolve().parent / "bench_sim_throughput.py",
    Path(__file__).resolve().parent / "bench_estimate_throughput.py",
    Path(__file__).resolve().parent / "bench_explore.py",
    Path(__file__).resolve().parent / "bench_obs_overhead.py",
    Path(__file__).resolve().parent / "bench_retime.py",
    Path(__file__).resolve().parent / "bench_netlist.py",
    Path(__file__).resolve().parent / "bench_startup.py",
    Path(__file__).resolve().parent / "bench_batch_size.py",
]

#: ``bench_netlist.py`` test -> (row backend, what one timed pass does).
NETLIST_ROWS = {
    "test_netlist_build_farm16": ("netlist-build", "build_named_circuit"),
    "test_compile_farm16": ("compile", "delay-resolved compile (unit delay)"),
    "test_fingerprint_farm16": (
        "fingerprint", "circuit + delay fingerprints of a compiled circuit"
    ),
    "test_codec_put_farm16": (
        "codec-put", "encode_result + put of one result into a fresh store"
    ),
    "test_codec_get_farm16": ("codec-get", "get + decode_result of one result"),
}
OUT = ROOT / "BENCH_sim.json"


def run_benchmarks(extra_args: list[str]) -> dict:
    """Run the throughput benches, returning pytest-benchmark's export."""
    with tempfile.TemporaryDirectory() as tmp:
        export = Path(tmp) / "bench.json"
        cmd = [
            sys.executable, "-m", "pytest",
            *(str(b) for b in BENCHES), "-q",
            "--benchmark-disable-gc",
            f"--benchmark-json={export}",
            *extra_args,
        ]
        proc = subprocess.run(cmd, cwd=ROOT)
        if proc.returncode != 0:
            raise SystemExit(proc.returncode)
        with open(export) as fh:
            return json.load(fh)


def normalize(data: dict) -> dict:
    """Collapse the pytest-benchmark export into the committed schema."""
    results = {}
    for bench in data.get("benchmarks", []):
        params = bench.get("params") or {}
        median = bench["stats"]["median"]
        if bench["name"].startswith(
            ("test_sim_throughput_backends", "test_sim_throughput_vector")
        ):
            backend = params.get("backend", "vector")
            n_bits = params["n_bits"]
            n_cycles = params["n_cycles"]
            key = f"{backend}/{n_bits}x{n_bits}"
        elif bench["name"].startswith("test_sim_throughput_farm"):
            from bench_sim_throughput import FARM_CYCLES

            backend, n_cycles = "vector", FARM_CYCLES
            key = f"{backend}/farm16"
            results[key] = {
                "backend": backend,
                "workload": (
                    f"farm16 multiplier farm (~100k cells), "
                    f"{n_cycles} cycles, glitch-exact"
                ),
                "median_s": round(median, 6),
                "cycles_per_s": round(n_cycles / median, 1),
            }
            continue
        elif bench["name"].startswith("test_sweep_point_array16"):
            from bench_sim_throughput import SWEEP_POINT_CYCLES

            key = f"sweep-point/array16x{SWEEP_POINT_CYCLES}"
            results[key] = {
                "backend": "sweep-point",
                "workload": (
                    f"array16, UniformStimulus.vectors + ActivityRun.run "
                    f"(auto), {SWEEP_POINT_CYCLES} cycles"
                ),
                "median_s": round(median, 6),
                "cycles_per_s": round(SWEEP_POINT_CYCLES / median, 1),
            }
            continue
        elif bench["name"].startswith("test_batch_size"):
            from bench_batch_size import CASES

            circuit, size = params["circuit"], params["size"]
            n_cycles = CASES[circuit][0]
            extra = bench.get("extra_info", {})
            key = f"batch-size/{circuit}@{size}"
            results[key] = {
                "backend": "batch-size",
                "workload": (
                    f"{circuit}, {n_cycles} cycles, vector glitch-exact, "
                    f"{extra['batch_cycles']}-cycle batches"
                ),
                "median_s": round(median, 6),
                "cycles_per_s": round(n_cycles / median, 1),
                "batch_cycles": extra["batch_cycles"],
                "waveform_bytes": extra["waveform_bytes"],
            }
            continue
        elif bench["name"].startswith("test_sim_throughput_array16"):
            # Historical single-engine series (Simulator.step loop).
            backend, n_bits, n_cycles = "event-step-loop", 16, 20
            key = f"{backend}/{n_bits}x{n_bits}"
        elif bench["name"].startswith("test_estimate_throughput_array16"):
            estimator = params["estimator"]
            backend = f"estimate-{estimator}"
            key = f"{backend}/16x16"
            results[key] = {
                "backend": backend,
                "workload": "array16 multiplier, whole-netlist estimate",
                "median_s": round(median, 6),
                "passes_per_s": round(1.0 / median, 1),
            }
            continue
        elif bench["name"].startswith("test_estimate_first_call_array16"):
            backend = f"estimate-{params['estimator']}-first"
            key = f"{backend}/16x16"
            results[key] = {
                "backend": backend,
                "workload": (
                    "array16 multiplier, first estimate on a fresh "
                    "circuit (compile + pass)"
                ),
                "median_s": round(median, 6),
                "passes_per_s": round(1.0 / median, 1),
            }
            continue
        elif bench["name"].startswith("test_trace_overhead_event16"):
            from bench_obs_overhead import N_BITS, N_CYCLES

            extra = bench.get("extra_info", {})
            key = f"trace-overhead/{N_BITS}x{N_BITS}"
            results[key] = {
                "backend": "trace-overhead",
                "workload": (
                    f"array{N_BITS} multiplier, {N_CYCLES} cycles, "
                    "recorder enabled"
                ),
                "median_s": round(median, 6),
                "cycles_per_s": round(N_CYCLES / median, 1),
                "disabled_overhead_frac": extra.get(
                    "disabled_overhead_frac"
                ),
            }
            continue
        elif bench["name"].startswith("test_retime_minperiod_balance_array16"):
            from bench_retime import N_EDGES, N_VERTICES

            key = "retime-minperiod/balance-array16"
            results[key] = {
                "backend": "retime-minperiod",
                "workload": (
                    f"balance(array16) + 1 output stage, {N_VERTICES} "
                    f"vertices / {N_EDGES} edges, minimum_period"
                ),
                "median_s": round(median, 6),
                "passes_per_s": round(1.0 / median, 1),
            }
            continue
        elif bench["name"].startswith("test_retime_pipeline_array16"):
            from bench_retime import PIPELINE_STAGES

            key = "retime-pipeline/array16"
            results[key] = {
                "backend": "retime-pipeline",
                "workload": (
                    f"array16, cold pipeline_circuit with {PIPELINE_STAGES} "
                    "output stages: extraction, minimum period, rebuild"
                ),
                "median_s": round(median, 6),
                "passes_per_s": round(1.0 / median, 1),
            }
            continue
        elif bench["name"] in NETLIST_ROWS:
            from bench_netlist import N_CELLS

            backend, what = NETLIST_ROWS[bench["name"]]
            key = f"{backend}/farm16"
            results[key] = {
                "backend": backend,
                "workload": f"fresh farm16 ({N_CELLS} cells), {what}",
                "median_s": round(median, 6),
                "passes_per_s": round(1.0 / median, 1),
            }
            continue
        elif bench["name"].startswith("test_startup"):
            from bench_startup import describe, rounds

            key = f"startup/{params['row']}"
            results[key] = {
                "backend": "startup",
                "workload": (
                    f"fresh process, {describe(params['row'])} "
                    f"(median of {rounds(params['row'])} spawns)"
                ),
                "median_s": round(median, 6),
                "passes_per_s": round(1.0 / median, 1),
            }
            continue
        elif bench["name"].startswith("test_explore_throughput_rca8"):
            from bench_explore import N_CANDIDATES

            mode = params["mode"]
            backend = f"explore-{mode}"
            key = f"{backend}/rca8"
            results[key] = {
                "backend": backend,
                "workload": "rca8 default space, full exploration",
                "median_s": round(median, 6),
                "candidates_per_s": round(N_CANDIDATES / median, 1),
            }
            continue
        elif bench["name"] == "test_explore_cold_array8":
            from bench_explore import N_COLD_CANDIDATES

            key = "explore-cold/array8"
            results[key] = {
                "backend": "explore-cold",
                "workload": (
                    "fresh array8 each round, beam, depth 3, 40 vectors: "
                    "every transform applied"
                ),
                "median_s": round(median, 6),
                "candidates_per_s": round(N_COLD_CANDIDATES / median, 1),
            }
            continue
        else:
            continue
        results[key] = {
            "backend": backend,
            "workload": f"array{n_bits} multiplier, {n_cycles} cycles",
            "median_s": round(median, 6),
            "cycles_per_s": round(n_cycles / median, 1),
        }
    # Speedups vs each family's reference: the event-driven engine for
    # simulators, the seed dict-walking implementation for estimators.
    for key, entry in results.items():
        backend = entry["backend"]
        if backend.startswith("estimate-"):
            if not backend.endswith("-reference"):
                ref = results.get(f"{backend}-reference/16x16")
                if ref is not None:
                    entry["speedup_vs_reference"] = round(
                        ref["median_s"] / entry["median_s"], 2
                    )
            continue
        if backend.startswith("explore-"):
            if backend == "explore-estimate-pruned":
                ref = results.get("explore-sim-everything/rca8")
                if ref is not None:
                    entry["speedup_vs_sim_everything"] = round(
                        ref["median_s"] / entry["median_s"], 2
                    )
            continue
        ref = results.get(f"event/{key.split('/', 1)[1]}")
        if ref is not None:
            # Rate-based, not median-based: the vector rows measure
            # longer streams (256 cycles) than the event reference, so
            # comparing wall times directly would be meaningless.
            entry["speedup_vs_event"] = round(
                entry["cycles_per_s"] / ref["cycles_per_s"], 2
            )
    return {
        "schema": 1,
        "source": " + ".join(
            str(b.relative_to(ROOT)) for b in BENCHES
        ),
        "python": platform.python_version(),
        "machine": platform.machine(),
        "results": dict(sorted(results.items())),
    }


def main(argv: list[str] | None = None) -> int:
    data = normalize(run_benchmarks(list(argv or [])))
    with open(OUT, "w") as fh:
        json.dump(data, fh, indent=2, sort_keys=False)
        fh.write("\n")
    print(f"wrote {OUT}")
    for key, entry in data["results"].items():
        if "speedup_vs_event" in entry:
            extra_txt = f"  ({entry['speedup_vs_event']}x vs event)"
        elif "speedup_vs_reference" in entry:
            extra_txt = (
                f"  ({entry['speedup_vs_reference']}x vs reference)"
            )
        elif "speedup_vs_sim_everything" in entry:
            extra_txt = (
                f"  ({entry['speedup_vs_sim_everything']}x vs "
                "sim-everything)"
            )
        else:
            extra_txt = ""
        if "cycles_per_s" in entry:
            rate_txt = f"{entry['cycles_per_s']:>10.1f} cycles/s"
        elif "candidates_per_s" in entry:
            rate_txt = f"{entry['candidates_per_s']:>10.1f} candidates/s"
        else:
            rate_txt = f"{entry['passes_per_s']:>10.1f} passes/s"
        print(
            f"  {key:34s} {entry['median_s'] * 1000:9.3f} ms median"
            f"  {rate_txt}{extra_txt}"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
