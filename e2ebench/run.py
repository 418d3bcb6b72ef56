"""End-to-end benchmark of the ``repro`` CLI.

Usage, from the repository root::

    python3 e2ebench/run.py --workload analyze-farm16 --seed 1 --seconds 20 --trace 0

Every command runs in a fresh ``python -m repro.cli`` process, exactly
as a user types it, with ``src`` on ``PYTHONPATH``.  A run:

1. records the environment (Python, numpy, the engine ``auto``
   resolves to, CPU count, commit, source digest);
2. runs the workload's prime pass once, untimed;
3. with ``--trace 0``, repeats cold + warm iterations for
   ``--seconds``, each after a few timed ``<subcommand> --help``
   start-ups (``setup_s``), reporting medians of the end-to-end metrics;
4. with ``--trace 1``, runs one untraced and one traced iteration and
   reports the per-layer metrics (see ``metrics.py``).

Every pass is checked (see ``workloads.py``).  The last line of
standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import sys
import tempfile
import time
from typing import Dict, List, Optional

sys.path.append(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from e2ebench import harness, layers, metrics  # noqa: E402
from e2ebench.workloads import (  # noqa: E402
    COLD,
    PRIME,
    WARM,
    WORKLOADS,
    Pass,
    load_references,
    reference_for,
)

#: ``--help`` start-ups timed before each timed iteration.  ``setup_s``
#: is the median of all of them, so it samples the same stretch of
#: host time as ``wall_s`` rather than one burst at the start.
SETUP_PER_ITERATION = 4


class Session:
    """One benchmark run of one workload and seed."""

    def __init__(self, workload, seed: int, run_dir: str) -> None:
        self.workload = workload
        self.seed = seed
        self.run_dir = run_dir
        tmp = os.path.join(run_dir, "tmp")
        os.makedirs(tmp)
        self.env = harness.child_env(tmp)
        self.reference = reference_for(load_references(), workload.name, seed)
        self.first_cold: Optional[dict] = None
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []
        self.iterations = 0
        #: Entry points the traced run could not find in the program.
        self.missing: List[str] = []

    def _dir(self, prefix: str) -> str:
        return tempfile.mkdtemp(prefix=prefix, dir=self.run_dir)

    def run_pass(self, p: Pass, cold: Optional[dict] = None, trace_dir: str = ""):
        """Run and check one pass; returns ``(completed, parsed)``."""
        if trace_dir:
            argv = harness.traced_argv(p.args)
            env = dict(self.env, **{layers.TRACE_DIR_ENV: trace_dir})
        else:
            argv = harness.cli_argv(p.args)
            env = self.env
        done = harness.run_command(argv, env, self._dir("cmd-"))
        parsed = self.workload.parse(done.stdout)
        check = self.workload.check(
            p.role, done.returncode, parsed, self.reference, self.first_cold, cold
        )
        self.attempted += check.attempted
        self.failed += check.failed
        self.problems.extend(check.problems)
        if check.problems and done.stderr.strip():
            self.problems.append(f"{p.role} stderr: {done.stderr.strip()[-500:]}")
        if self.first_cold is None and parsed is not None and p.role in (PRIME, COLD):
            self.first_cold = parsed
        return done, parsed

    def prime(self) -> None:
        store = self._dir("store-")
        self.run_pass(self.workload.prime(self.seed, store))
        shutil.rmtree(store, ignore_errors=True)

    def iteration(self, traced: bool = False) -> List[tuple]:
        """One iteration of the workload's passes against a fresh, empty store."""
        store = self._dir("store-")
        passes = []
        cold = None
        for p in self.workload.passes(self.seed, store):
            trace_dir = self._dir("trace-") if traced else ""
            done, parsed = self.run_pass(p, cold, trace_dir)
            if p.role == COLD:
                cold = parsed
            passes.append((p.role, done, parsed, trace_dir))
        shutil.rmtree(store, ignore_errors=True)
        return passes

    def setup_samples(self) -> List[float]:
        walls = []
        argv = harness.cli_argv([self.workload.subcommand, "--help"])
        for _ in range(SETUP_PER_ITERATION):
            done = harness.run_command(argv, self.env, self._dir("setup-"))
            self.attempted += 1
            if done.returncode != 0 or "usage:" not in done.stdout:
                self.failed += 1
                self.problems.append(f"setup: '--help' exited {done.returncode}")
            walls.append(done.wall_s)
        return walls

    # ------------------------------------------------------------------
    def end_to_end(self, seconds: float) -> Dict[str, float]:
        setup: List[float] = []
        iterations = []
        start = time.perf_counter()
        while not iterations or time.perf_counter() - start < seconds:
            setup.extend(self.setup_samples())
            iterations.append(self.iteration())
        self.iterations = len(iterations)
        walls: Dict[str, List[float]] = {COLD: [], WARM: []}
        rss = []
        for passes in iterations:
            for role, done, _, _ in passes:
                walls[role].append(done.wall_s)
            rss.append(max(done.peak_rss_mb for _, done, _, _ in passes))
        values = {
            "wall_s": statistics.median(walls[COLD]),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": statistics.median(rss),
        }
        if walls[WARM]:
            values[metrics.WARM.name] = statistics.median(walls[WARM])
        return values

    def per_layer(self) -> Dict[str, float]:
        untraced = self.iteration()
        traced = self.iteration(traced=True)
        self.iterations = 2
        records = []
        startup = exit_ = 0.0
        for _, done, _, trace_dir in traced:
            found = layers.read_records(trace_dir)
            records.extend(found)
            for rec in found:
                if rec["root"] and "main_end" in rec["marks"]:
                    startup += rec["marks"]["launch"] - done.started
                    exit_ += done.ended - rec["marks"]["main_end"]
        merged = layers.merge(records)
        self.missing = sorted(merged["missing"])
        parsed_by_role: Dict[str, List[dict]] = {COLD: [], WARM: []}
        for role, _, parsed, _ in traced:
            if parsed is not None:
                parsed_by_role[role].append(parsed)
        return layers.layer_metrics(
            merged,
            traced_wall_s=sum(done.wall_s for _, done, _, _ in traced),
            untraced_wall_s=sum(done.wall_s for _, done, _, _ in untraced),
            extra=self.workload.extra_metrics(parsed_by_role),
            startup_s=startup,
            exit_s=exit_,
        )


def _catalog(trace: int):
    return metrics.PER_LAYER if trace else metrics.END_TO_END


def report(session: Session, meta: dict, values: Dict[str, float], trace: int) -> dict:
    """Print the human-readable report; return the JSON result."""
    w = session.workload
    print(f"# {w.name}: seed {session.seed} -> {' '.join(w.program_args(session.seed))}")
    print("# " + " ".join(f"{k}={v}" for k, v in meta.items()))
    print(
        f"# {session.iterations} iteration(s); reference "
        f"{'checked' if session.reference is not None else 'not recorded for this seed'}"
    )
    rows = [(m.name, values[m.name], m.unit) for m in _catalog(trace)]
    if not trace:
        if metrics.WARM.name in values:
            rows.append((metrics.WARM.name, values[metrics.WARM.name], metrics.WARM.unit))
        frac = session.failed / session.attempted if session.attempted else 1.0
        rows.append((metrics.FAILED_FRAC.name, frac, metrics.FAILED_FRAC.unit))
    width = max(len(name) for name, _, _ in rows)
    for name, value, unit in rows:
        print(f"{name:<{width}}  {value:>14.6g}  {unit}")
    print(f"# {session.failed} of {session.attempted} operation(s) failed")
    for problem in session.problems[:20]:
        print(f"# problem: {problem}")
    for target in session.missing:
        print(f"# not traced (entry point not found): {target}")
    return {
        "correct": session.failed == 0 and session.attempted > 0,
        "attempted": session.attempted,
        "failed": session.failed,
        "metrics": {
            m.name: {"value": values[m.name], "unit": m.unit} for m in _catalog(trace)
        },
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(harness.CLI_FILE):
        print(
            f"e2ebench: {harness.CLI_FILE} not found; run from a checkout "
            "of the repository",
            file=sys.stderr,
        )
        return 2
    os.makedirs(harness.SCRATCH, exist_ok=True)
    run_dir = tempfile.mkdtemp(prefix="run-", dir=harness.SCRATCH)
    try:
        session = Session(WORKLOADS[args.workload], args.seed, run_dir)
        meta = {"seed": args.seed, **harness.environment(session.env, session._dir("env-"))}
        session.prime()
        if args.trace:
            values = session.per_layer()
        else:
            values = session.end_to_end(args.seconds)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        try:
            os.rmdir(harness.SCRATCH)
        except OSError:
            pass
    result = report(session, meta, values, args.trace)
    sys.stdout.flush()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
