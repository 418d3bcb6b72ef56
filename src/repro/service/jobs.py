"""Declarative batch jobs: sweep specs fanned out over a worker pool.

A :class:`JobSpec` names everything a run needs declaratively — a
catalog circuit (:func:`repro.circuits.catalog.build_named_circuit`),
a delay regime, a :class:`~repro.sim.vectors.StimulusSpec`, a vector
count — plus *sweep axes* (lists of values for any of those fields),
which expand via Cartesian product into independent
:class:`JobPoint`\\ s.

The :class:`BatchScheduler` resolves each point against the result
store first (**partial-hit resume**: re-submitting an overlapping
sweep simulates only the cache-missing points), fans the misses out
over the supervised worker pool
(:func:`repro.service.pool.run_supervised` — crashed or hung workers
are respawned and their tasks retried with deterministic backoff),
and writes every computed result back.  Workers never touch the
store — they return serialized payloads and the parent performs all
index mutations — so there is a single writer per store by
construction.

Failure semantics: a point that keeps failing past the retry budget
is **quarantined** — recorded as a ``"failed"``
:class:`PointOutcome` with its :class:`~repro.service.pool.TaskFailure`
persisted on the job record — while every other point's result is
kept.  A ``KeyboardInterrupt`` mid-batch persists all
already-completed points (and the partial job record) before
re-raising, so an interrupted sweep resumes from where it stopped.

Job records are persisted under ``<store>/jobs/<job_id>.json`` so
``repro.cli status`` can report past batches.
"""

from __future__ import annotations

import itertools
import json
import sys
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, Dict, List, Mapping, Sequence, Tuple

from repro.circuits.catalog import build_named_circuit, validate_name
from repro.obs import trace as obs
from repro.obs.hist import Histogram
from repro.service.pool import RetryPolicy, TaskFailure, run_supervised
from repro.service.runner import estimate_key, run_key
from repro.service.store import (
    ResultStore,
    _atomic_write,
    encode_estimate,
    encode_result,
    payload_summary,
)
from repro.sim.backends import preload_backends
from repro.sim.delays import DelayModel, SumCarryDelay, UnitDelay
from repro.sim.vectors import StimulusSpec, UniformStimulus, stimulus_from_dict

#: Delay regimes a declarative job may name.
DELAY_MODELS = {
    "unit": lambda: UnitDelay(),
    "sumcarry": lambda: SumCarryDelay(dsum=2, dcarry=1),
    "zero": lambda: None,
}

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


def resolve_delay(name: str) -> DelayModel | None:
    """Build the delay model a job names (``None`` for zero delay)."""
    factory = DELAY_MODELS.get(name)
    if factory is None:
        raise ValueError(
            f"unknown delay model {name!r}; choose from {sorted(DELAY_MODELS)}"
        )
    return factory()


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
            points.append(JobPoint(
                circuit=vals["circuit"],
                delay=vals["delay"],
                stimulus=replace(self.stimulus, seed=int(vals["seed"])),
                n_vectors=int(vals["n_vectors"]),
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


def _zero_summary() -> Dict[str, float]:
    """The headline summary shape with every aggregate zeroed.

    Quarantined points report this so every surface that tabulates
    summaries (CLI tables read ``total``/``useful``/``useless``/
    ``L/F`` unconditionally) renders failed rows without special
    cases.
    """
    return {"total": 0, "useful": 0, "useless": 0, "L/F": 0.0}


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


def _compute_point(doc: Dict[str, Any]) -> Dict[str, Any]:
    """Simulate one point (module-level so worker pools can pickle it).

    Builds the circuit from the catalog, runs the session API directly
    — never through a store, not even a ``REPRO_CACHE_DIR`` default:
    the parent is the store's single writer by construction — and
    returns the serialized payload.
    """
    from repro.core.activity import ActivityRun

    point = JobPoint.from_dict(doc)
    circuit, stim = build_named_circuit(point.circuit)
    if point.estimate:
        from repro.estimate.workload import estimate_workload

        return encode_estimate(estimate_workload(circuit, point.stimulus))
    run = ActivityRun(
        circuit,
        delay_model=resolve_delay(point.delay),
        backend=point.backend,
    )
    result = run.run(point.stimulus.vectors(stim, point.n_vectors + 1))
    return encode_result(result)


@dataclass
class CircuitTask:
    """One explicit-circuit unit of work for :func:`run_circuit_tasks`.

    Unlike a :class:`JobPoint`, which names a *catalog* circuit, a
    task ships the netlist itself as schema-v1 JSON
    (:func:`repro.netlist.io.circuit_to_json`) so worker processes can
    rebuild arbitrary circuits — the design-space explorer's transform
    candidates are not catalog entries.  The word stimulus is derived
    from the primary-input names
    (:func:`repro.netlist.io.words_from_inputs`), which every library
    circuit and transform pass preserves.
    """

    label: str
    circuit_json: str
    delay: str
    stimulus: StimulusSpec
    n_vectors: int
    backend: str = "auto"
    #: Transient parent-side cache of ``(circuit, word_stimulus)``;
    #: never serialized (workers always rebuild from the JSON).
    _materialized: Any = field(default=None, repr=False, compare=False)

    @staticmethod
    def from_circuit(
        circuit,
        delay: str,
        stimulus: StimulusSpec,
        n_vectors: int,
        backend: str = "auto",
        label: str | None = None,
    ) -> "CircuitTask":
        from repro.netlist.io import circuit_to_json, words_from_inputs
        from repro.sim.vectors import WordStimulus

        task = CircuitTask(
            label=label or circuit.name,
            circuit_json=circuit_to_json(circuit),
            delay=delay,
            stimulus=stimulus,
            n_vectors=n_vectors,
            backend=backend,
        )
        # The caller already holds the live circuit: keep it so the
        # parent-side key computation does not re-parse the JSON.
        task._materialized = (
            circuit, WordStimulus(words_from_inputs(circuit))
        )
        return task

    def materialize(self):
        """``(circuit, word_stimulus)``, rebuilt from the payload once."""
        if self._materialized is None:
            from repro.netlist.io import circuit_from_json, words_from_inputs
            from repro.sim.vectors import WordStimulus

            circuit = circuit_from_json(self.circuit_json)
            self._materialized = (
                circuit, WordStimulus(words_from_inputs(circuit))
            )
        return self._materialized

    def to_dict(self) -> Dict[str, Any]:
        return {
            "label": self.label,
            "circuit_json": self.circuit_json,
            "delay": self.delay,
            "stimulus": self.stimulus.to_dict(),
            "n_vectors": self.n_vectors,
            "backend": self.backend,
        }

    @staticmethod
    def from_dict(doc: Mapping[str, Any]) -> "CircuitTask":
        return CircuitTask(
            label=doc["label"],
            circuit_json=doc["circuit_json"],
            delay=doc["delay"],
            stimulus=stimulus_from_dict(doc["stimulus"]),
            n_vectors=int(doc["n_vectors"]),
            backend=doc.get("backend", "auto"),
        )


def _simulate_circuit_task(task: "CircuitTask") -> Dict[str, Any]:
    """Simulate one task against its (possibly cached) live circuit."""
    from repro.core.activity import ActivityRun

    circuit, stim = task.materialize()
    run = ActivityRun(
        circuit,
        delay_model=resolve_delay(task.delay),
        backend=task.backend,
    )
    result = run.run(task.stimulus.vectors(stim, task.n_vectors + 1))
    return encode_result(result)


def _compute_circuit_task(doc: Dict[str, Any]) -> Dict[str, Any]:
    """Simulate one serialized :class:`CircuitTask` (worker entry point;
    module-level for pickling).

    Like :func:`_compute_point`, workers never touch a store — the
    parent is the single writer.
    """
    return _simulate_circuit_task(CircuitTask.from_dict(doc))


def run_circuit_tasks(
    tasks: Sequence[CircuitTask],
    store: ResultStore | None = None,
    processes: int | None = None,
    policy: RetryPolicy | None = None,
) -> List[Dict[str, Any]]:
    """Execute explicit-circuit tasks with cache resume and fan-out.

    Returns one serialized activity payload per task, in order.  Tasks
    already in *store* are served without simulating (warm-cache
    resume — re-running an exploration whose candidates were simulated
    before does zero simulation work); key-identical misses (distinct
    labels, fingerprint-identical circuits) are computed once; the
    rest fan out over the supervised pool
    (:func:`repro.service.pool.run_supervised`, governed by *policy*)
    when *processes* > 1.  All computed results are written back
    through the parent.

    Every completed payload is persisted **before** error reporting:
    a ``KeyboardInterrupt`` re-raises after the write-back, and tasks
    quarantined past the retry budget raise ``RuntimeError`` after it
    — either way a re-run resumes from the cache instead of redoing
    finished work.
    """
    payloads: List[Any] = [None] * len(tasks)
    misses: List[Tuple[int, Any]] = []
    for i, task in enumerate(tasks):
        key = None
        if store is not None:
            circuit, stim = task.materialize()
            key = run_key(
                circuit, stim, task.stimulus, task.n_vectors,
                delay_model=resolve_delay(task.delay),
                backend=task.backend,
            )
            payload = store.get(key)
            if payload is not None:
                payloads[i] = payload
                obs.instant(
                    "jobs.task", label=task.label, outcome="hit"
                )
                continue
        misses.append((i, key))

    # Collapse key-identical misses to one computation each.
    unique: List[Tuple[int, Any]] = []
    slot_of: List[int] = []
    slot_by_digest: Dict[str, int] = {}
    for i, key in misses:
        digest = None if key is None else key.digest()
        if digest is not None and digest in slot_by_digest:
            slot_of.append(slot_by_digest[digest])
            continue
        if digest is not None:
            slot_by_digest[digest] = len(unique)
        slot_of.append(len(unique))
        unique.append((i, key))

    # Site keys identify a task by content (its run-key digest) where
    # possible: retry jitter and fault-injection decisions then follow
    # the task across workers, attempts, and re-runs.
    site_keys = [
        key.digest() if key is not None else f"task-{i}:{tasks[i].label}"
        for i, key in unique
    ]
    labels = [tasks[i].label for i, _ in unique]
    if processes and processes > 1 and len(unique) > 1:
        preload_backends(tasks[i].backend for i, _ in unique)
        docs = [tasks[i].to_dict() for i, _ in unique]
        pool_result = run_supervised(
            _compute_circuit_task, docs,
            processes=min(processes, len(docs)),
            policy=policy, keys=site_keys, labels=labels,
        )
    else:
        # In-process: simulate against the parent's live circuits —
        # no JSON round-trip, and the compile memo stays warm.
        pool_result = run_supervised(
            _simulate_circuit_task, [tasks[i] for i, _ in unique],
            processes=None, policy=policy, keys=site_keys, labels=labels,
        )
    computed = pool_result.payloads
    # Salvage first: persist whatever finished, *then* report trouble.
    if store is not None and unique:
        with store.deferred():  # one index write for the batch
            for (_, key), payload in zip(unique, computed):
                if payload is not None:
                    store.put(key, payload)
    if pool_result.interrupted:
        raise KeyboardInterrupt
    if pool_result.failures:
        first = pool_result.failures[0]
        raise RuntimeError(
            f"{len(pool_result.failures)} circuit task(s) quarantined "
            f"after retries; first: {first.label}: {first.error}"
        )
    for (i, _), slot in zip(misses, slot_of):
        payloads[i] = computed[slot]
    return payloads


class Heartbeat:
    """Periodic one-line progress report for a long sweep.

    Owns its own :class:`~repro.obs.hist.Histogram` of per-task
    latencies, so it works (and prints meaningful p50/p99) whether or
    not tracing is armed.  Wire :meth:`record` in as the pool's
    ``on_progress`` callback; cache hits are credited with
    :meth:`record_hit` at plan time.  Emission is interval-gated
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
        self.hits += 1
        self.done += 1
        self._maybe_emit()

    def record(self, status: str, latency_s: float | None = None) -> None:
        """Pool ``on_progress`` hook: one task resolved.

        *status* is ``"done"`` or ``"failed"``; *latency_s*, when
        known, feeds the latency histogram behind p50/p99 and the ETA.
        """
        self.done += 1
        if status == "failed":
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
    def plan(
        self, spec: JobSpec
    ) -> Tuple[List[Tuple[JobPoint, Dict]], List[Tuple[JobPoint, Any]]]:
        """Split *spec*'s points into hits and misses.

        Hits carry their stored payloads; misses carry their
        precomputed :class:`~repro.service.store.RunKey` (``None``
        when no store is configured), so :meth:`run` never rebuilds or
        re-fingerprints a circuit the plan already resolved.
        """
        return self._plan(spec.points())

    def _plan(self, points: List[JobPoint]):
        hits: List[Tuple[JobPoint, Dict]] = []
        misses: List[Tuple[JobPoint, Any]] = []
        # One netlist build per distinct circuit name: reusing the
        # object lets the fingerprint and compile memos hit across the
        # (typically many) points sharing a circuit axis value.
        builds: Dict[str, Tuple] = {}
        for point in points:
            key = None
            payload = None
            if self.store is not None:
                built = builds.get(point.circuit)
                if built is None:
                    built = builds[point.circuit] = build_named_circuit(
                        point.circuit
                    )
                circuit, stim = built
                if point.estimate:
                    key = estimate_key(circuit, point.stimulus)
                else:
                    key = run_key(
                        circuit, stim, point.stimulus, point.n_vectors,
                        delay_model=resolve_delay(point.delay),
                        backend=point.backend,
                    )
                payload = self.store.get(key)
            if payload is None:
                misses.append((point, key))
            else:
                hits.append((point, payload))
        return hits, misses

    def run(
        self,
        spec: JobSpec,
        job_id: str | None = None,
        heartbeat_s: float | None = None,
        heartbeat_out=None,
    ) -> BatchReport:
        """Execute *spec*: serve hits, simulate misses, persist results.

        *heartbeat_s* (when not ``None``) prints an interval-gated
        :class:`Heartbeat` progress line — done/total, warm-hit ratio,
        p50/p99 task latency, ETA — to *heartbeat_out* (default
        ``sys.stderr``); ``0`` prints on every resolved point.

        Partial-hit resume falls out of the plan: only points missing
        from the store reach the worker pool.  Misses that share one
        run key — estimate points, whose key ignores the seed / delay /
        vector-count axes — are computed once and fanned back out to
        every point, so a sweep cannot redo identical work within a
        batch either.  The job record (spec, per-point status,
        aggregates) is written under the store's ``jobs/`` directory
        when a store is configured.

        Fault tolerance: points that exhaust the retry budget come
        back as ``"failed"`` outcomes with zeroed summaries and their
        quarantine records on the report — the batch itself succeeds.
        ``KeyboardInterrupt`` persists every completed point and a
        partial job record (``interrupted: true``) before re-raising.
        """
        start = time.monotonic()
        points = spec.points()
        with obs.span(
            "jobs.batch",
            circuit=getattr(spec, "circuit", "?"),
            points=len(points),
        ):
            return self._run_planned(
                spec, job_id, start, points,
                heartbeat_s=heartbeat_s, heartbeat_out=heartbeat_out,
            )

    def _run_planned(
        self,
        spec: JobSpec,
        job_id: str | None,
        start: float,
        points: List[JobPoint],
        heartbeat_s: float | None = None,
        heartbeat_out=None,
    ) -> BatchReport:
        with obs.span("jobs.plan", points=len(points)):
            hits, misses = self._plan(points)
        heartbeat = None
        if heartbeat_s is not None:
            heartbeat = Heartbeat(
                total=len(points), interval_s=heartbeat_s,
                out=heartbeat_out, workers=self.processes,
            )
        outcomes: Dict[JobPoint, PointOutcome] = {}
        for point, payload in hits:
            outcomes[point] = PointOutcome(
                point, "hit", payload_summary(payload)
            )
            obs.instant("jobs.point", label=point.label(), outcome="hit")
        if heartbeat is not None:
            for _ in hits:
                heartbeat.record_hit()

        # Collapse key-identical misses to one computation each (keys
        # exist only when a store is configured; without one every
        # point is its own unit of work).
        unique: List[Tuple[JobPoint, Any]] = []
        slot_of: List[int] = []
        slot_by_digest: Dict[str, int] = {}
        for point, key in misses:
            digest = None if key is None else key.digest()
            if digest is not None and digest in slot_by_digest:
                slot_of.append(slot_by_digest[digest])
                continue
            if digest is not None:
                slot_by_digest[digest] = len(unique)
            slot_of.append(len(unique))
            unique.append((point, key))

        docs = [p.to_dict() for p, _ in unique]
        site_keys = [
            key.digest() if key is not None else f"point-{j}"
            for j, (_, key) in enumerate(unique)
        ]
        labels = [p.label() for p, _ in unique]
        processes = None
        if self.processes and self.processes > 1 and len(docs) > 1:
            processes = min(self.processes, len(docs))
            preload_backends(p.backend for p, _ in unique if not p.estimate)
        pool_result = run_supervised(
            _compute_point, docs,
            processes=processes, policy=self.policy,
            keys=site_keys, labels=labels,
            on_progress=heartbeat.record if heartbeat is not None else None,
        )
        computed = pool_result.payloads
        # Salvage first: persist everything that finished before any
        # outcome accounting or interrupt re-raise.
        if self.store is not None and unique:
            with self.store.deferred():  # one index write for the batch
                for (_, key), payload in zip(unique, computed):
                    if payload is not None:
                        self.store.put(key, payload)
        failed_slots = {f.index for f in pool_result.failures}
        for (point, _), slot in zip(misses, slot_of):
            if computed[slot] is not None:
                outcomes[point] = PointOutcome(
                    point, "computed", payload_summary(computed[slot])
                )
                obs.instant(
                    "jobs.point", label=point.label(), outcome="computed"
                )
            elif slot in failed_slots:
                outcomes[point] = PointOutcome(
                    point, "failed", _zero_summary()
                )
                obs.instant(
                    "jobs.point", label=point.label(), outcome="failed"
                )
            # else: unresolved at interrupt time — not part of the
            # (partial) report at all.

        if heartbeat is not None:
            heartbeat.finish(done=len(outcomes))
        report = BatchReport(
            job_id=job_id or _new_job_id(spec, self.store),
            outcomes=[outcomes[p] for p in points if p in outcomes],
            elapsed_s=time.monotonic() - start,
            failures=list(pool_result.failures),
            interrupted=pool_result.interrupted,
        )
        if self.store is not None:
            _write_job_record(self.store, spec, report)
            self.store.flush()  # persist hit recency for LRU fairness
        if pool_result.interrupted:
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
