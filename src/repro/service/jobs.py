"""Declarative batch jobs: sweep specs fanned out over a worker pool.

A :class:`JobSpec` names everything a run needs declaratively — a
catalog circuit (:func:`repro.circuits.catalog.build_named_circuit`),
a delay regime (:data:`~repro.sim.delays.DELAY_MODELS`), a
:class:`~repro.sim.vectors.StimulusSpec`, a vector count — plus *sweep
axes* (lists of values for any of those fields), which expand via
Cartesian product into independent :class:`JobPoint`\\ s.

The :class:`BatchScheduler` (catalog points) and
:func:`run_circuit_tasks` (the explorer's explicit circuits,
:class:`CircuitTask`) are thin callers of the service's one
cached-work executor, :func:`repro.service.runner.execute`: hits are
served from the store (**partial-hit resume**), key-identical misses
are computed once, in process or over the supervised worker pool
(:func:`repro.service.pool.run_supervised`), and the parent — the
store's single writer — persists every finished result before
reporting.  In process, explore's circuits and results stay live
objects.

Failure semantics: a point that keeps failing past the retry budget
is **quarantined** — a ``"failed"`` :class:`PointOutcome` with its
:class:`~repro.service.pool.TaskFailure` on the job record — while
every other point's result is kept; a ``KeyboardInterrupt`` persists
the completed points and a partial job record before re-raising.
Job records live under ``<store>/jobs/<job_id>.json`` for
``repro.cli status``.
"""

from __future__ import annotations

import itertools
import json
import sys
import time
from dataclasses import dataclass, field, replace
from functools import cached_property
from pathlib import Path
from typing import Any, Dict, List, Mapping, Sequence, Tuple

from repro.circuits.catalog import build_named_circuit, validate_name
from repro.core.activity import ActivityResult, ActivityRun
from repro.netlist.circuit import Circuit
from repro.obs import trace as obs
from repro.obs.hist import Histogram
from repro.service.pool import RetryPolicy, TaskFailure
from repro.service.runner import estimate_key, execute, run_key
from repro.service.store import (
    ResultStore,
    RunKey,
    _atomic_write,
    decode_result,
    encode_estimate,
    encode_result,
    payload_summary,
)
from repro.sim.delays import resolve_delay
from repro.sim.vectors import (
    StimulusSpec,
    UniformStimulus,
    WordStimulus,
    stimulus_from_dict,
)

#: Sweep axes :meth:`JobSpec.points` understands.  The ``estimate``
#: axis toggles between simulated activity (False) and the analytic
#: estimation backend (True), so one sweep can produce the
#: estimate/simulate pair for every point.
SWEEP_AXES = ("circuit", "delay", "n_vectors", "seed", "estimate")


def _as_estimate_flag(value) -> bool:
    """Coerce a sweep/CLI value for the ``estimate`` axis to a bool."""
    if isinstance(value, bool):
        return value
    if isinstance(value, int):
        return bool(value)
    if isinstance(value, str):
        lowered = value.strip().lower()
        if lowered in ("1", "true", "yes", "est", "estimate"):
            return True
        if lowered in ("0", "false", "no", "sim", "simulate"):
            return False
    raise ValueError(
        f"bad estimate axis value {value!r}; use 0/1, sim/est or "
        "true/false"
    )


@dataclass(frozen=True)
class JobPoint:
    """One concrete, dependency-free unit of work in a batch."""

    circuit: str
    delay: str
    stimulus: StimulusSpec
    n_vectors: int
    backend: str = "auto"
    estimate: bool = False

    def label(self) -> str:
        if self.estimate:
            return f"{self.circuit} estimate {self.stimulus.describe()}"
        return (
            f"{self.circuit} Δ{self.delay} "
            f"{self.stimulus.describe()} x{self.n_vectors}"
        )

    @property
    def engine(self) -> str | None:
        """The backend this point runs (``None``: an estimate runs none)."""
        return None if self.estimate else self.backend

    def to_dict(self) -> Dict[str, Any]:
        return {
            "circuit": self.circuit,
            "delay": self.delay,
            "stimulus": self.stimulus.to_dict(),
            "n_vectors": self.n_vectors,
            "backend": self.backend,
            "estimate": self.estimate,
        }

    @staticmethod
    def from_dict(doc: Mapping[str, Any]) -> "JobPoint":
        return JobPoint(
            circuit=doc["circuit"],
            delay=doc["delay"],
            stimulus=stimulus_from_dict(doc["stimulus"]),
            n_vectors=int(doc["n_vectors"]),
            backend=doc.get("backend", "auto"),
            estimate=bool(doc.get("estimate", False)),
        )


@dataclass
class JobSpec:
    """Declarative description of a batch of activity runs.

    *sweep* maps axis names (:data:`SWEEP_AXES`) to value lists; the
    base fields provide the value for every axis not swept.  The
    ``seed`` axis re-seeds the stimulus spec via ``replace``.
    """

    circuit: str = "array8"
    delay: str = "unit"
    stimulus: StimulusSpec = field(default_factory=UniformStimulus)
    n_vectors: int = 500
    backend: str = "auto"
    estimate: bool = False
    sweep: Dict[str, Sequence[Any]] = field(default_factory=dict)

    def points(self) -> List[JobPoint]:
        """Expand the sweep axes into concrete points (product order)."""
        for axis in self.sweep:
            if axis not in SWEEP_AXES:
                raise ValueError(
                    f"unknown sweep axis {axis!r}; "
                    f"choose from {SWEEP_AXES}"
                )
            if not self.sweep[axis]:
                raise ValueError(f"sweep axis {axis!r} has no values")
        axes = [a for a in SWEEP_AXES if a in self.sweep]
        base = {
            "circuit": self.circuit,
            "delay": self.delay,
            "n_vectors": self.n_vectors,
            "seed": self.stimulus.seed,
            "estimate": self.estimate,
        }
        points = []
        for combo in itertools.product(*(self.sweep[a] for a in axes)):
            vals = dict(base)
            vals.update(zip(axes, combo))
            # Validate early, in the parent, before anything simulates.
            resolve_delay(vals["delay"])
            validate_name(vals["circuit"])
            n_vectors = int(vals["n_vectors"])
            if n_vectors < 0:
                raise ValueError(f"n_vectors must be >= 0, got {n_vectors}")
            points.append(JobPoint(
                circuit=vals["circuit"],
                delay=vals["delay"],
                stimulus=replace(self.stimulus, seed=int(vals["seed"])),
                n_vectors=n_vectors,
                backend=self.backend,
                estimate=_as_estimate_flag(vals["estimate"]),
            ))
        return points

    def to_dict(self) -> Dict[str, Any]:
        return {
            "circuit": self.circuit,
            "delay": self.delay,
            "stimulus": self.stimulus.to_dict(),
            "n_vectors": self.n_vectors,
            "backend": self.backend,
            "estimate": self.estimate,
            "sweep": {k: list(v) for k, v in self.sweep.items()},
        }


#: What a quarantined point reports: the headline keys every summary
#: table reads (``total``/``useful``/``useless``/``L/F``), zeroed, so
#: failed rows render without special cases.
_ZERO_SUMMARY = {"total": 0, "useful": 0, "useless": 0, "L/F": 0.0}


@dataclass
class PointOutcome:
    """What happened to one point: cache hit, simulated, or quarantined."""

    point: JobPoint
    status: str  # "hit" | "computed" | "failed"
    summary: Dict[str, float]

    def to_dict(self) -> Dict[str, Any]:
        return {
            "point": self.point.to_dict(),
            "status": self.status,
            "summary": self.summary,
        }


@dataclass
class BatchReport:
    """Outcome of one scheduler batch.

    *failures* holds the structured quarantine records
    (:class:`~repro.service.pool.TaskFailure`) for every ``"failed"``
    outcome; *interrupted* marks a batch cut short by
    ``KeyboardInterrupt`` after its completed points were persisted.
    """

    job_id: str
    outcomes: List[PointOutcome]
    elapsed_s: float
    failures: List[TaskFailure] = field(default_factory=list)
    interrupted: bool = False

    @property
    def n_hits(self) -> int:
        return sum(1 for o in self.outcomes if o.status == "hit")

    @property
    def n_computed(self) -> int:
        return sum(1 for o in self.outcomes if o.status == "computed")

    @property
    def n_failed(self) -> int:
        return sum(1 for o in self.outcomes if o.status == "failed")

    def to_dict(self) -> Dict[str, Any]:
        return {
            "job_id": self.job_id,
            "outcomes": [o.to_dict() for o in self.outcomes],
            "hits": self.n_hits,
            "computed": self.n_computed,
            "failed": self.n_failed,
            "interrupted": self.interrupted,
            "failures": [f.to_dict() for f in self.failures],
            "elapsed_s": round(self.elapsed_s, 3),
        }


def _run_key(circuit: Circuit, stim: WordStimulus, spec) -> RunKey:
    """The run key of a :class:`JobPoint` or :class:`CircuitTask`."""
    return run_key(
        circuit, stim, spec.stimulus, spec.n_vectors,
        delay_model=resolve_delay(spec.delay), backend=spec.backend,
    )


def _simulate(circuit: Circuit, stim: WordStimulus, spec) -> ActivityResult:
    """Simulate a :class:`JobPoint` or :class:`CircuitTask` — never
    through a store: the parent is the store's single writer."""
    run = ActivityRun(
        circuit, delay_model=resolve_delay(spec.delay), backend=spec.backend,
    )
    return run.run(spec.stimulus.vectors(stim, spec.n_vectors + 1))


def _compute_point(doc: Dict[str, Any]) -> Dict[str, Any]:
    """One point's payload, built from the catalog (module-level so
    worker pools can pickle it)."""
    point = JobPoint.from_dict(doc)
    circuit, stim = build_named_circuit(point.circuit)
    if point.estimate:
        from repro.estimate.workload import estimate_workload

        return encode_estimate(estimate_workload(circuit, point.stimulus))
    return encode_result(_simulate(circuit, stim, point))


@dataclass
class CircuitTask:
    """One explicit-circuit unit of work for :func:`run_circuit_tasks`.

    Unlike a :class:`JobPoint`, which names a *catalog* circuit, a
    task holds the live netlist — the design-space explorer's
    transform candidates are not catalog entries — and serializes it
    only at the pool boundary: :meth:`to_dict` ships it as schema-v1
    JSON (:func:`repro.netlist.io.circuit_to_json`).  The word stimulus
    is derived from the primary-input names
    (:func:`repro.netlist.io.words_from_inputs`), which every library
    circuit and transform pass preserves.
    """

    label: str
    circuit: Circuit
    delay: str
    stimulus: StimulusSpec
    n_vectors: int
    backend: str = "auto"

    @staticmethod
    def from_circuit(
        circuit: Circuit,
        delay: str,
        stimulus: StimulusSpec,
        n_vectors: int,
        backend: str = "auto",
        label: str | None = None,
    ) -> "CircuitTask":
        return CircuitTask(
            label or circuit.name, circuit, delay, stimulus, n_vectors,
            backend,
        )

    @property
    def engine(self) -> str:
        """The backend this task runs."""
        return self.backend

    @cached_property
    def words(self) -> WordStimulus:
        from repro.netlist.io import words_from_inputs

        return WordStimulus(words_from_inputs(self.circuit))

    def to_dict(self) -> Dict[str, Any]:
        from repro.netlist.io import circuit_to_json

        return {
            "label": self.label,
            "circuit_json": circuit_to_json(self.circuit),
            "delay": self.delay,
            "stimulus": self.stimulus.to_dict(),
            "n_vectors": self.n_vectors,
            "backend": self.backend,
        }

    @staticmethod
    def from_dict(doc: Mapping[str, Any]) -> "CircuitTask":
        from repro.netlist.io import circuit_from_json

        return CircuitTask(
            label=doc["label"],
            circuit=circuit_from_json(doc["circuit_json"]),
            delay=doc["delay"],
            stimulus=stimulus_from_dict(doc["stimulus"]),
            n_vectors=int(doc["n_vectors"]),
            backend=doc.get("backend", "auto"),
        )


def _simulate_circuit_task(task: CircuitTask) -> ActivityResult:
    """Simulate one task against its live circuit."""
    return _simulate(task.circuit, task.words, task)


def _compute_circuit_task(doc: Dict[str, Any]) -> Dict[str, Any]:
    """Simulate one serialized :class:`CircuitTask` into its payload
    (the worker entry point; module-level for pickling)."""
    return encode_result(_simulate_circuit_task(CircuitTask.from_dict(doc)))


def run_circuit_tasks(
    tasks: Sequence[CircuitTask],
    store: ResultStore | None = None,
    processes: int | None = None,
    policy: RetryPolicy | None = None,
) -> List[ActivityResult]:
    """One live :class:`~repro.core.activity.ActivityResult` per task,
    in order, through :func:`repro.service.runner.execute`: in process
    on the live circuits or, with *processes* > 1, in the supervised
    pool under *policy*.  After every completed result is stored, a
    ``KeyboardInterrupt`` re-raises and quarantined tasks raise
    ``RuntimeError``.
    """
    items = [
        (None if store is None else _run_key(t.circuit, t.words, t), t.label, t)
        for t in tasks
    ]
    done = execute(
        items, _simulate_circuit_task, store, encode=encode_result,
        decode=lambda payload, task: decode_result(payload, task.circuit),
        worker=_compute_circuit_task, processes=processes, policy=policy,
        kind="task",
    )
    if done.interrupted:
        raise KeyboardInterrupt
    if done.failures:
        first = done.failures[0]
        raise RuntimeError(
            f"{len(done.failures)} circuit task(s) quarantined "
            f"after retries; first: {first.label}: {first.error}"
        )
    return done.values


class Heartbeat:
    """Periodic one-line progress report for a long sweep.

    Owns its own :class:`~repro.obs.hist.Histogram` of per-task
    latencies, so it works (and prints meaningful p50/p99) whether or
    not tracing is armed.  Wire :meth:`record` in as the executor's
    ``on_progress`` callback; it credits cache hits (:meth:`record_hit`)
    at lookup time.  Emission is interval-gated
    (``interval_s=0`` prints on every resolution) and goes to *out*
    (default ``sys.stderr``) so it never corrupts piped stdout.

    The ETA is the remaining-point count times the mean observed task
    latency, divided by the worker count — a deliberately simple
    model that is exact for homogeneous points and an honest rough cut
    for mixed sweeps.
    """

    def __init__(
        self,
        total: int,
        interval_s: float = 10.0,
        out=None,
        workers: int | None = None,
    ) -> None:
        self.total = total
        self.interval_s = interval_s
        self.out = out if out is not None else sys.stderr
        self.workers = max(1, workers or 1)
        self.done = 0
        self.hits = 0
        self.failed = 0
        self.latency = Histogram()
        self._last_emit: float | None = None

    def record_hit(self) -> None:
        """Credit one cache hit (resolved with zero compute)."""
        self.record("hit")

    def record(self, status: str, latency_s: float | None = None) -> None:
        """Executor ``on_progress`` hook: one point resolved.

        *status* is ``"hit"``, ``"done"`` or ``"failed"``; *latency_s*,
        when known, feeds the latency histogram behind p50/p99 and the
        ETA.
        """
        self.done += 1
        if status == "hit":
            self.hits += 1
        elif status == "failed":
            self.failed += 1
        if latency_s is not None and latency_s >= 0.0:
            self.latency.observe(latency_s)
        self._maybe_emit()

    def line(self) -> str:
        """The current progress line (without emitting it)."""
        parts = [f"[heartbeat] {self.done}/{self.total} points"]
        warm = (self.hits / self.done) if self.done else 0.0
        parts.append(f"warm-hit {warm * 100:.0f}%")
        if self.latency.count:
            parts.append(
                f"p50 {self.latency.percentile(50):.3f}s"
                f"/p99 {self.latency.percentile(99):.3f}s task"
            )
            remaining = max(0, self.total - self.done)
            mean = self.latency.total / self.latency.count
            parts.append(
                f"ETA {remaining * mean / self.workers:.1f}s"
            )
        if self.failed:
            parts.append(f"{self.failed} failed")
        return ", ".join(parts)

    def _maybe_emit(self, force: bool = False) -> None:
        now = time.monotonic()
        if (
            not force
            and self._last_emit is not None
            and (now - self._last_emit) < self.interval_s
        ):
            return
        self._last_emit = now
        print(self.line(), file=self.out, flush=True)

    def finish(self, done: int | None = None) -> None:
        """Force a final line; *done* corrects the resolved count.

        Key-shared sweeps resolve several points per computed slot, so
        the per-slot ticks undercount mid-run; the scheduler passes the
        exact outcome count here for the closing line.
        """
        if done is not None:
            self.done = done
        self._maybe_emit(force=True)


class BatchScheduler:
    """Fan a :class:`JobSpec`'s points out over workers, through the store.

    Parameters
    ----------
    store:
        Result store for hit checks and write-back (``None`` disables
        caching: every point simulates).
    processes:
        Worker processes for cache-missing points; ``None`` or ``1``
        runs them sequentially in-process.
    policy:
        Retry/timeout/quarantine budget for the supervised pool
        (default :class:`~repro.service.pool.RetryPolicy`).
    """

    def __init__(
        self,
        store: ResultStore | None = None,
        processes: int | None = None,
        policy: RetryPolicy | None = None,
    ) -> None:
        self.store = store
        self.processes = processes
        self.policy = policy

    # ------------------------------------------------------------------
    def _items(self, points: List[JobPoint]) -> List[Tuple]:
        """The executor items ``(key, label, point)``; without a store
        every key is ``None``."""
        items = []
        # One netlist build per distinct circuit name: reusing the
        # object lets the fingerprint and compile memos hit across the
        # (typically many) points sharing a circuit axis value.
        builds: Dict[str, Tuple] = {}
        for point in points:
            key = None
            if self.store is not None:
                if point.circuit not in builds:
                    builds[point.circuit] = build_named_circuit(point.circuit)
                circuit, stim = builds[point.circuit]
                key = (
                    estimate_key(circuit, point.stimulus) if point.estimate
                    else _run_key(circuit, stim, point)
                )
            items.append((key, point.label(), point))
        return items

    def plan(
        self, spec: JobSpec
    ) -> Tuple[List[Tuple[JobPoint, Dict]], List[Tuple[JobPoint, Any]]]:
        """Split *spec*'s points into hits, with their stored payloads,
        and misses, with their run keys (the dry run)."""
        items = self._items(spec.points())
        done = execute(items, None, self.store, kind="point")
        pairs = list(zip(items, done.values))
        return (
            [(p, v) for (_, _, p), v in pairs if v is not None],
            [(p, k) for (k, _, p), v in pairs if v is None],
        )

    def run(
        self,
        spec: JobSpec,
        job_id: str | None = None,
        heartbeat_s: float | None = None,
        heartbeat_out=None,
    ) -> BatchReport:
        """Execute *spec* through the executor: serve hits, compute
        misses (points sharing a run key, like estimate points across
        seeds, once), persist results.

        *heartbeat_s* (when not ``None``) prints an interval-gated
        :class:`Heartbeat` progress line — done/total, warm-hit ratio,
        p50/p99 task latency, ETA — to *heartbeat_out* (default
        ``sys.stderr``); ``0`` prints on every resolved point.  Points
        past the retry budget come back ``"failed"`` with zeroed
        summaries and their quarantine records on the report; the batch
        itself succeeds.  With a store, the job record (spec, per-point
        status, aggregates) is written under its ``jobs/`` directory,
        partial (``interrupted: true``) before a ``KeyboardInterrupt``
        re-raises.
        """
        start = time.monotonic()
        points = spec.points()
        heartbeat = None if heartbeat_s is None else Heartbeat(
            total=len(points), interval_s=heartbeat_s, out=heartbeat_out,
            workers=self.processes,
        )
        with obs.span(
            "jobs.batch", circuit=getattr(spec, "circuit", "?"),
            points=len(points),
        ):
            with obs.span("jobs.plan", points=len(points)):
                items = self._items(points)
            done = execute(
                items, lambda point: _compute_point(point.to_dict()),
                self.store, worker=_compute_point, processes=self.processes,
                policy=self.policy, kind="point",
                on_progress=None if heartbeat is None else heartbeat.record,
            )
            # A point unresolved at an interrupt is not in the report.
            outcomes = [
                PointOutcome(
                    point, status,
                    dict(_ZERO_SUMMARY) if status == "failed"
                    else payload_summary(payload),
                )
                for point, status, payload in zip(
                    points, done.outcomes, done.values
                )
                if status is not None
            ]
            if heartbeat is not None:
                heartbeat.finish(done=len(outcomes))
            report = BatchReport(
                job_id=job_id or _new_job_id(spec, self.store),
                outcomes=outcomes,
                elapsed_s=time.monotonic() - start,
                failures=list(done.failures),
                interrupted=done.interrupted,
            )
            if self.store is not None:
                _write_job_record(self.store, spec, report)
                self.store.flush()  # persist hit recency for LRU fairness
        if done.interrupted:
            raise KeyboardInterrupt
        return report


# ---------------------------------------------------------------------------
# Job records
# ---------------------------------------------------------------------------

def _new_job_id(spec: JobSpec, store: ResultStore | None) -> str:
    from repro.netlist.compiled import content_digest

    digest = content_digest(repr(sorted(spec.to_dict().items())))[:8]
    seq = 0
    if store is not None and store.jobs_dir.exists():
        seq = len(list(store.jobs_dir.glob("*.json")))
        # Re-runs of a spec after deletions (or racing submitters) can
        # land on an existing id; bump rather than overwrite history.
        while (store.jobs_dir / f"job-{seq:04d}-{digest}.json").exists():
            seq += 1
    return f"job-{seq:04d}-{digest}"


def _write_job_record(
    store: ResultStore, spec: JobSpec, report: BatchReport
) -> Path:
    from repro.service.store import StoreWriteWarning

    store.jobs_dir.mkdir(parents=True, exist_ok=True)
    path = store.jobs_dir / f"{report.job_id}.json"
    record = {
        "job_id": report.job_id,
        "created": time.time(),
        "spec": spec.to_dict(),
        **report.to_dict(),
    }
    try:
        _atomic_write(
            path, json.dumps(record, sort_keys=True, indent=1) + "\n"
        )
    except OSError as exc:
        # The batch's results are already persisted (or returned);
        # losing the job record is not worth aborting over.
        obs.warn_event(
            StoreWriteWarning(
                f"job record {report.job_id} not written ({exc})"
            ),
            job_id=report.job_id,
        )
    return path


def load_job_records(store: ResultStore) -> List[Dict[str, Any]]:
    """All persisted job records in *store*, oldest first."""
    if not store.jobs_dir.exists():
        return []
    records = []
    for path in sorted(store.jobs_dir.glob("*.json")):
        try:
            with open(path) as fh:
                records.append(json.load(fh))
        except (OSError, json.JSONDecodeError):
            continue
    records.sort(key=lambda r: r.get("created", 0.0))
    return records
