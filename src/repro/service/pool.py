"""Supervised worker pool: fan-out that survives dying workers.

``multiprocessing.Pool`` treats a dead worker as a protocol error: one
OOM-killed or segfaulted child can deadlock or abort a whole sweep,
a hung task stalls it forever, and a ``KeyboardInterrupt`` tears the
pool down with every completed-but-unreturned result lost.  This
module replaces it for all service fan-out paths with an explicitly
supervised pool:

* **worker death is detected** by watching each child's ``exitcode``;
  the in-flight task is attributed a ``"crash"`` failure and the
  worker is respawned;
* **per-task wall-clock timeouts**: a task that exceeds
  :attr:`RetryPolicy.timeout_s` gets its worker killed (``"hang"``)
  and respawned;
* **bounded retry with deterministic jitter**: failed/hung/crashed
  tasks are retried up to :attr:`RetryPolicy.max_attempts` times with
  exponential backoff whose jitter is a pure hash of (seed, task key,
  attempt) — a replayed chaos run backs off identically;
* **quarantine**: a task that exhausts its attempts becomes a
  structured :class:`TaskFailure` (persisted on the job record by the
  scheduler) instead of an exception that aborts the batch;
* **interrupt salvage**: on ``KeyboardInterrupt`` the supervisor
  terminates its workers and *returns* every completed payload with
  ``interrupted=True``, so callers can persist finished work before
  re-raising.

Because every task in this codebase is pure (content-addressed in,
serialized payload out), a retried task returns a bit-identical
payload — which is what lets the chaos suite assert that sweeps under
injected faults equal fault-free runs exactly.

Workers run :func:`_worker_main`: a dispatch loop on a dedicated
duplex pipe per worker, which carries its tasks in and its reports out
(so the supervisor always knows which task a dead worker held).  No
lock is shared between workers, so a worker killed mid-report cannot
block the others' reports — as it could through a shared result
queue, whose write lock a killed worker's feeder thread may hold
forever.  Fault-injection hooks (:mod:`repro.service.faults`) live in
the worker loop, not in task functions.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence

from repro.obs import sampler as obs_sampler
from repro.obs import trace as obs
from repro.service import faults

#: Histogram names the pool feeds (see the README taxonomy table).
#: ``task_latency_s`` is supervisor-side dispatch→result (includes IPC
#: and pickling); ``exec_s`` is the worker-side wall around the task
#: function; ``queue_wait_s`` is ready→dispatch; ``retry_backoff_s``
#: is every computed backoff delay.
HIST_TASK_LATENCY = "pool.task_latency_s"
HIST_EXEC = "pool.exec_s"
HIST_QUEUE_WAIT = "pool.queue_wait_s"
HIST_RETRY_BACKOFF = "pool.retry_backoff_s"


def timed_call(func: Callable, item: Any, key: str, attempt: int = 0):
    """``func(item)`` and its wall time, charged like a worker's task:
    one ``pool.task`` span plus task-latency and exec samples."""
    t0 = time.perf_counter()
    with obs.span("pool.task", key=key, attempt=attempt):
        value = func(item)
    wall = time.perf_counter() - t0
    obs.hist(HIST_TASK_LATENCY, wall)
    obs.hist(HIST_EXEC, wall)
    return value, wall


def _jitter_fraction(seed: int, key: str, attempt: int) -> float:
    """Deterministic backoff jitter in ``[0, 1)`` (replayable runs)."""
    digest = hashlib.sha256(
        f"repro-backoff-v1|{seed}|{key}|{attempt}".encode()
    ).digest()
    return int.from_bytes(digest[:8], "big") / float(1 << 64)


@dataclass(frozen=True)
class RetryPolicy:
    """How the supervisor retries, times out and quarantines tasks."""

    #: Total attempts per task (1 = never retry).
    max_attempts: int = 3
    #: Per-task wall-clock limit; ``None`` disables hang detection.
    timeout_s: Optional[float] = 300.0
    #: Exponential backoff: ``base * 2**attempt`` capped at ``cap``.
    backoff_base_s: float = 0.05
    backoff_cap_s: float = 2.0
    #: Extra deterministic jitter as a fraction of the backoff.
    jitter: float = 0.5
    #: Seed for the jitter hash (chaos runs pin this).
    seed: int = 0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.timeout_s is not None and self.timeout_s <= 0:
            raise ValueError("timeout_s must be positive (or None)")
        if self.backoff_base_s < 0 or self.backoff_cap_s < 0:
            raise ValueError("backoff must be >= 0")

    def backoff_s(self, key: str, attempt: int) -> float:
        """Delay before retrying *key* after failed attempt *attempt*."""
        base = min(
            self.backoff_base_s * (2 ** attempt), self.backoff_cap_s
        )
        return base * (1.0 + self.jitter * _jitter_fraction(
            self.seed, key, attempt
        ))

    def to_dict(self) -> Dict[str, Any]:
        return {
            "max_attempts": self.max_attempts,
            "timeout_s": self.timeout_s,
            "backoff_base_s": self.backoff_base_s,
            "backoff_cap_s": self.backoff_cap_s,
            "jitter": self.jitter,
            "seed": self.seed,
        }


@dataclass
class TaskFailure:
    """A quarantined task: every attempt failed.

    ``kind`` is the *last* failure mode — ``"crash"`` (worker died),
    ``"hang"`` (task timeout), or ``"error"`` (the task function
    raised); ``history`` records every attempt for the job record.
    """

    index: int
    key: str
    label: str
    attempts: int
    kind: str
    error: str
    history: List[Dict[str, str]] = field(default_factory=list)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "index": self.index,
            "key": self.key,
            "label": self.label,
            "attempts": self.attempts,
            "kind": self.kind,
            "error": self.error,
            "history": list(self.history),
        }


@dataclass
class PoolResult:
    """Everything a supervised fan-out produced.

    ``payloads`` is index-aligned with the submitted items;
    quarantined or (on interrupt) unfinished slots hold ``None``.
    """

    payloads: List[Any]
    failures: List[TaskFailure] = field(default_factory=list)
    interrupted: bool = False
    n_retries: int = 0

    @property
    def completed(self) -> int:
        return sum(1 for p in self.payloads if p is not None)


@dataclass
class _TaskState:
    index: int
    key: str
    label: str
    attempt: int = 0
    history: List[Dict[str, str]] = field(default_factory=list)

    def record(self, kind: str, error: str) -> None:
        self.history.append(
            {"attempt": str(self.attempt), "kind": kind, "error": error}
        )


def _failed_attempt(
    state: _TaskState, kind: str, error: str, policy: RetryPolicy,
    result: "PoolResult", on_progress=None,
) -> Optional[float]:
    """Charge a failed attempt: the backoff before the task's retry, or
    ``None`` once it is quarantined (its :class:`TaskFailure` added to
    *result*)."""
    state.record(kind, error)
    state.attempt += 1
    obs.inc(f"pool.{kind}")
    if state.attempt >= policy.max_attempts:
        result.failures.append(TaskFailure(
            index=state.index, key=state.key, label=state.label,
            attempts=state.attempt, kind=kind, error=error,
            history=state.history,
        ))
        obs.inc("pool.quarantine")
        obs.instant(
            "pool.quarantine", key=state.key, kind=kind,
            attempts=state.attempt,
        )
        if on_progress is not None:
            on_progress("failed", None)
        return None
    result.n_retries += 1
    obs.inc("pool.retry")
    obs.instant(
        "pool.retry", key=state.key, kind=kind, attempt=state.attempt,
    )
    backoff = policy.backoff_s(state.key, state.attempt - 1)
    obs.hist(HIST_RETRY_BACKOFF, backoff)
    return backoff


def _worker_main(worker_id: int, func: Callable, conn) -> None:
    """Dispatch loop for one supervised worker process.

    Receives ``(index, attempt, key, item)`` on its private pipe and
    reports ``(worker_id, index, attempt, ok, payload_or_error,
    obs_blob)`` back on the same pipe.  Armed worker faults (crash/hang)
    fire here — between receipt and execution — so a "crashed" worker
    really does die holding the task, exactly like the failure being
    simulated.  When tracing is armed (``REPRO_TRACE`` propagated from
    the supervisor) the worker buffers spans/counters locally and ships
    them as ``obs_blob`` with each report; the supervisor absorbs them
    into the parent recorder — the same worker-buffers/parent-merges
    pattern as store writes.
    """
    faults.enter_worker()
    # Fork-safe: drop any recorder inherited from the parent (wrong pid,
    # parent events would duplicate on merge) and start a local buffer.
    obs.adopt_in_worker()
    while True:
        try:
            msg = conn.recv()
        except (EOFError, OSError, KeyboardInterrupt):
            break
        if msg is None:
            break
        index, attempt, key, item = msg
        ok = True
        try:
            faults.worker_faults(key, attempt)
            t0 = time.perf_counter()
            with obs.span(
                "pool.task", key=key, attempt=attempt, worker=worker_id,
            ):
                payload = func(item)
            obs.hist(HIST_EXEC, time.perf_counter() - t0)
        except KeyboardInterrupt:
            break
        except BaseException as exc:  # noqa: BLE001 - reported, not hidden
            ok, payload = False, f"{type(exc).__name__}: {exc}"
        rec = obs.active()
        try:
            conn.send((
                worker_id, index, attempt, ok, payload,
                rec.drain_blob() if rec is not None else None,
            ))
        except (OSError, ValueError):
            break


class _Worker:
    """Supervisor-side handle: process + duplex pipe + current task."""

    def __init__(self, worker_id: int, func: Callable) -> None:
        import multiprocessing  # only a pool pays for it, not inline work

        self.id = worker_id
        child_end, self.conn = multiprocessing.Pipe()
        self.proc = multiprocessing.Process(
            target=_worker_main,
            args=(worker_id, func, child_end),
            daemon=True,
        )
        self.proc.start()
        child_end.close()  # the child's end
        self.busy: Optional[_TaskState] = None
        self.deadline: Optional[float] = None
        self.dispatched_at: Optional[float] = None

    def dispatch(
        self, state: _TaskState, item: Any, timeout_s: Optional[float]
    ) -> bool:
        try:
            self.conn.send((state.index, state.attempt, state.key, item))
        except (BrokenPipeError, OSError):
            return False
        self.busy = state
        self.dispatched_at = time.monotonic()
        self.deadline = (
            None if timeout_s is None else self.dispatched_at + timeout_s
        )
        return True

    def idle(self) -> None:
        self.busy = None
        self.deadline = None
        self.dispatched_at = None

    def alive(self) -> bool:
        return self.proc.is_alive()

    def kill(self) -> None:
        try:
            self.proc.kill()
        except (OSError, AttributeError):  # pragma: no cover - defensive
            pass
        self.proc.join(timeout=5.0)

    def shutdown(self) -> None:
        try:
            self.conn.send(None)
        except (BrokenPipeError, OSError):
            pass
        self.proc.join(timeout=1.0)
        if self.proc.is_alive():
            self.kill()
        self.conn.close()


def _default_keys(items: Sequence[Any]) -> List[str]:
    """Stable per-item site keys when the caller provides none."""
    keys = []
    for i, item in enumerate(items):
        try:
            text = repr(sorted(item.items())) if isinstance(item, dict) \
                else repr(item)
        except Exception:  # pragma: no cover - exotic reprs
            text = f"item-{i}"
        digest = hashlib.sha256(text.encode(errors="replace")).hexdigest()
        keys.append(f"task-{digest[:16]}")
    return keys


def run_supervised(
    func: Callable[[Any], Any],
    items: Sequence[Any],
    processes: Optional[int] = None,
    policy: Optional[RetryPolicy] = None,
    keys: Optional[Sequence[str]] = None,
    labels: Optional[Sequence[str]] = None,
    on_progress: Optional[Callable[[str, Optional[float]], None]] = None,
) -> PoolResult:
    """Run ``func(item)`` for every item under supervision.

    With ``processes`` <= 1 (or a single item) the tasks run
    sequentially in-process — same retry/quarantine semantics, no
    workers, and a ``KeyboardInterrupt`` still salvages completed
    payloads.  Otherwise tasks fan out over ``processes`` supervised
    worker processes (*func* and every item must be picklable).

    *keys* are stable site identities used for deterministic backoff
    jitter and fault-injection decisions (defaults to a content hash
    of each item); *labels* are human-readable names for failure
    records.

    *on_progress*, if given, is called in the supervisor once per task
    resolution with ``("done", latency_s)`` when a payload lands or
    ``("failed", None)`` when a task quarantines — the scheduler's
    heartbeat line is driven from this, independent of tracing.
    """
    policy = policy or RetryPolicy()
    items = list(items)
    n = len(items)
    if keys is None:
        keys = _default_keys(items)
    elif len(keys) != n:
        raise ValueError("keys must align with items")
    if labels is None:
        labels = [str(k) for k in keys]
    elif len(labels) != n:
        raise ValueError("labels must align with items")
    if n == 0:
        return PoolResult(payloads=[])

    if not processes or processes <= 1 or n == 1:
        return _run_sequential(
            func, items, policy, keys, labels, on_progress
        )
    return _run_pool(
        func, items, min(processes, n), policy, keys, labels, on_progress
    )


def _run_sequential(
    func, items, policy: RetryPolicy, keys, labels, on_progress=None
) -> PoolResult:
    result = PoolResult(payloads=[None] * len(items))
    for i, item in enumerate(items):
        state = _TaskState(index=i, key=keys[i], label=labels[i])
        while True:
            try:
                result.payloads[i], wall = timed_call(
                    func, item, state.key, state.attempt
                )
                if on_progress is not None:
                    on_progress("done", wall)
                break
            except KeyboardInterrupt:
                result.interrupted = True
                return result
            except Exception as exc:
                delay = _failed_attempt(
                    state, "error", f"{type(exc).__name__}: {exc}", policy,
                    result, on_progress,
                )
                if delay is None:
                    break
                if delay > 0:
                    try:
                        time.sleep(delay)
                    except KeyboardInterrupt:
                        result.interrupted = True
                        return result
    return result


def _receive(workers: List[_Worker], timeout: float) -> List[tuple]:
    """The reports waiting on the workers' pipes, within *timeout* s,
    each one's trace blob absorbed into this process's recorder.

    A dead worker's pipe reads as end-of-file and yields nothing; the
    caller reaps the worker.
    """
    from multiprocessing.connection import wait

    reports = []
    rec = obs.active()
    for conn in wait([w.conn for w in workers], timeout):
        try:
            reports.append(conn.recv())
        except (EOFError, OSError):
            continue
        if rec is not None:
            rec.absorb(reports[-1][5])
    return reports


def _run_pool(
    func, items, n_workers: int, policy: RetryPolicy, keys, labels,
    on_progress=None,
) -> PoolResult:
    result = PoolResult(payloads=[None] * len(items))
    workers: List[_Worker] = []
    next_worker_id = 0

    def spawn() -> _Worker:
        nonlocal next_worker_id
        w = _Worker(next_worker_id, func)
        next_worker_id += 1
        workers.append(w)
        return w

    start = time.monotonic()
    #: (ready_at, _TaskState) waiting to be dispatched.
    pending: List[tuple] = [
        (start, _TaskState(index=i, key=keys[i], label=labels[i]))
        for i in range(len(items))
    ]
    #: index -> attempt currently outstanding (stale results ignored).
    outstanding: Dict[int, int] = {}
    unresolved = len(items)

    # Backlog = tasks waiting to dispatch plus tasks in flight; gauged
    # as a high-water mark and exposed live to the resource sampler.
    def _depth() -> int:
        return len(pending) + len(outstanding)

    obs_sampler.register_probe("pool.queue_depth", _depth)

    def fail_or_retry(state: _TaskState, kind: str, error: str) -> None:
        nonlocal unresolved
        backoff = _failed_attempt(
            state, kind, error, policy, result, on_progress
        )
        if backoff is None:
            unresolved -= 1
        else:
            pending.append((time.monotonic() + backoff, state))

    try:
        for _ in range(n_workers):
            spawn()
        while unresolved > 0:
            now = time.monotonic()
            obs.gauge("pool.queue_depth", _depth())
            # Dispatch every ready pending task to an idle live worker.
            idle = [w for w in workers if w.busy is None and w.alive()]
            pending.sort(key=lambda rs: rs[0])
            while idle and pending and pending[0][0] <= now:
                ready_at, state = pending.pop(0)
                w = idle.pop()
                if not w.dispatch(
                    state, items[state.index], policy.timeout_s
                ):
                    # Pipe already broken: treat as an instant crash.
                    pending.insert(0, (now, state))
                    continue
                outstanding[state.index] = state.attempt
                obs.inc("pool.dispatch")
                obs.hist(
                    HIST_QUEUE_WAIT, max(0.0, w.dispatched_at - ready_at)
                )
                obs.instant(
                    "pool.dispatch", key=state.key,
                    attempt=state.attempt, worker=w.id,
                )

            # Wait for a result, bounded by the nearest deadline/retry.
            wait = 0.05
            deadlines = [
                w.deadline for w in workers if w.deadline is not None
            ]
            if deadlines:
                wait = min(wait, max(0.0, min(deadlines) - now))
            if pending:
                wait = min(wait, max(0.0, pending[0][0] - now))
            for msg in _receive(workers, max(wait, 0.005)):
                worker_id, index, attempt, ok, payload, _ = msg
                w = next(
                    (x for x in workers if x.id == worker_id), None
                )
                if w is not None and w.busy is not None \
                        and w.busy.index == index:
                    state = w.busy
                    latency = (
                        None if w.dispatched_at is None
                        else time.monotonic() - w.dispatched_at
                    )
                    w.idle()
                else:
                    state = None
                    latency = None
                if outstanding.get(index) == attempt:
                    del outstanding[index]
                    if ok:
                        result.payloads[index] = payload
                        unresolved -= 1
                        if latency is not None:
                            obs.hist(HIST_TASK_LATENCY, latency)
                        if on_progress is not None:
                            on_progress("done", latency)
                    elif state is not None:
                        fail_or_retry(state, "error", str(payload))
                    else:  # pragma: no cover - crash right after report
                        fail_or_retry(
                            _TaskState(
                                index=index, key=keys[index],
                                label=labels[index], attempt=attempt,
                            ),
                            "error", str(payload),
                        )
                # else: stale report from a killed/raced worker; drop.

            # Reap dead workers and time out hung ones.
            now = time.monotonic()
            for w in list(workers):
                alive = w.alive()
                if alive and (w.deadline is None or now <= w.deadline):
                    continue
                state = w.busy
                workers.remove(w)
                if alive:
                    obs.instant(
                        "pool.kill", worker=w.id, reason="hang",
                        key=None if state is None else state.key,
                    )
                    w.kill()
                    kind, error = "hang", (
                        f"task exceeded {policy.timeout_s}s wall-clock timeout"
                    )
                else:
                    w.proc.join(timeout=1.0)
                    kind = "crash"
                    error = f"worker died (exitcode {w.proc.exitcode})"
                w.conn.close()
                if state is not None \
                        and outstanding.get(state.index) == state.attempt:
                    del outstanding[state.index]
                    fail_or_retry(state, kind, error)
                if unresolved > 0:
                    spawn()
    except KeyboardInterrupt:
        result.interrupted = True
        # Drain any results that arrived before the interrupt so the
        # caller can persist every finished point.
        for msg in _receive(workers, 0.05):
            worker_id, index, attempt, ok, payload, _ = msg
            if ok and result.payloads[index] is None \
                    and outstanding.get(index) == attempt:
                result.payloads[index] = payload
        for w in workers:
            w.kill()
            w.conn.close()
        workers.clear()
    finally:
        obs_sampler.unregister_probe("pool.queue_depth")
        for w in workers:
            w.shutdown()
    return result
