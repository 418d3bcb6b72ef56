"""Deterministic fault injection for the execution layer.

Chaos testing is only useful when a failing run can be replayed
exactly, so every injection decision here is a **pure function of a
seed and the injection site's identity** — never of wall-clock time,
pool scheduling, or process ids.  A :class:`FaultPlan` names the
active injection points (:data:`POINTS`) and, per point, a
:class:`FaultSpec` describing *when* it fires:

* ``rate`` — the fraction of matching sites that fire, decided by
  hashing ``(seed, point, site key)`` into ``[0, 1)``.  The site key
  is a stable content identity (a run-key digest, an object digest, a
  backend name), so the same plan fires at the same sites no matter
  how tasks are scheduled across workers or retries are interleaved.
* ``keys`` — optional whitelist: the site key must contain one of
  these substrings (e.g. fire ``backend.memoryerror`` only for the
  ``vector`` tier).
* ``max_attempt`` — worker faults fire only while the task's attempt
  number is below this (default 1: crash the first attempt, let the
  retry succeed — which is what makes chaos sweeps bit-identical to
  fault-free runs).
* ``max_fires`` — per-process cap on total firings of the point.

Arming is process-global (:func:`arm` / :func:`disarm` /
:func:`armed`) and propagates to worker processes through the
``REPRO_FAULTS`` environment variable, so a forked *or* spawned pool
worker sees the same plan.  Worker-lifecycle faults (``worker.crash``,
``worker.hang``) additionally require :func:`enter_worker` context —
they never fire in the parent process, where an ``os._exit`` would
take the whole run down instead of simulating a lost worker.

The injection points and the layers that consult them:

========================  ==================================================
``worker.crash``          supervised-pool worker loop: ``os._exit(66)``
``worker.hang``           supervised-pool worker loop: sleep past the
                          task timeout (``duration_s``)
``store.write_oserror``   :func:`repro.service.store._atomic_write`:
                          raise ``OSError`` before writing
``store.torn_write``      :meth:`ResultStore.put`: truncate the payload
                          mid-write (simulates a torn page)
``store.bitflip``         :meth:`ResultStore.put`: flip one payload byte
                          (simulates silent media corruption)
``backend.memoryerror``   :class:`repro.core.activity.ActivityRun`:
                          raise ``MemoryError`` when dispatching the
                          named backend tier
========================  ==================================================

This module deliberately imports nothing from the rest of the package
(stdlib only), so any layer can consult it lazily without import
cycles.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, Mapping, Optional, Tuple

#: Environment variable carrying the serialized plan into workers.
ENV_VAR = "REPRO_FAULTS"

#: The injection points the execution layer consults.
POINTS = (
    "worker.crash",
    "worker.hang",
    "store.write_oserror",
    "store.torn_write",
    "store.bitflip",
    "backend.memoryerror",
)

#: Exit code a crash-injected worker dies with (distinguishable from
#: a real bug's traceback-and-exit-1 in test assertions).
CRASH_EXIT_CODE = 66


def _fraction(seed: int, point: str, key: str) -> float:
    """Deterministic hash of an injection site into ``[0, 1)``."""
    digest = hashlib.sha256(
        f"repro-fault-v1|{seed}|{point}|{key}".encode()
    ).digest()
    return int.from_bytes(digest[:8], "big") / float(1 << 64)


@dataclass(frozen=True)
class FaultSpec:
    """When one injection point fires (see the module docstring)."""

    rate: float = 1.0
    keys: Tuple[str, ...] | None = None
    max_attempt: int = 1
    max_fires: int | None = None
    #: Sleep length for ``worker.hang`` (long enough that any sane
    #: task timeout expires first).
    duration_s: float = 3600.0

    def __post_init__(self) -> None:
        if not (0.0 <= self.rate <= 1.0):
            raise ValueError("rate must be in [0, 1]")
        if self.max_attempt < 0:
            raise ValueError("max_attempt must be >= 0")
        if self.keys is not None:
            object.__setattr__(self, "keys", tuple(self.keys))

    def matches(self, key: str) -> bool:
        if self.keys is None:
            return True
        return any(k in key for k in self.keys)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "rate": self.rate,
            "keys": None if self.keys is None else list(self.keys),
            "max_attempt": self.max_attempt,
            "max_fires": self.max_fires,
            "duration_s": self.duration_s,
        }

    @staticmethod
    def from_dict(doc: Mapping[str, Any]) -> "FaultSpec":
        keys = doc.get("keys")
        return FaultSpec(
            rate=float(doc.get("rate", 1.0)),
            keys=None if keys is None else tuple(keys),
            max_attempt=int(doc.get("max_attempt", 1)),
            max_fires=doc.get("max_fires"),
            duration_s=float(doc.get("duration_s", 3600.0)),
        )


@dataclass(frozen=True)
class FaultPlan:
    """A seeded, named set of armed injection points."""

    seed: int = 0
    faults: Mapping[str, FaultSpec] = field(default_factory=dict)

    def __post_init__(self) -> None:
        for point in self.faults:
            if point not in POINTS:
                raise ValueError(
                    f"unknown injection point {point!r}; "
                    f"choose from {POINTS}"
                )
        object.__setattr__(self, "faults", dict(self.faults))

    def spec(self, point: str) -> Optional[FaultSpec]:
        return self.faults.get(point)

    def decides(self, point: str, key: str, attempt: int = 0) -> bool:
        """The pure (seed, site) decision — no per-process state.

        :func:`fired` layers the per-process ``max_fires`` counter on
        top; everything else is decided here, deterministically.
        """
        spec = self.faults.get(point)
        if spec is None:
            return False
        if attempt >= spec.max_attempt:
            return False
        if not spec.matches(key):
            return False
        return _fraction(self.seed, point, key) < spec.rate

    # -- serialization (for the REPRO_FAULTS env propagation) ----------
    def to_dict(self) -> Dict[str, Any]:
        return {
            "seed": self.seed,
            "faults": {p: s.to_dict() for p, s in self.faults.items()},
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)

    @staticmethod
    def from_dict(doc: Mapping[str, Any]) -> "FaultPlan":
        return FaultPlan(
            seed=int(doc.get("seed", 0)),
            faults={
                p: FaultSpec.from_dict(s)
                for p, s in doc.get("faults", {}).items()
            },
        )

    @staticmethod
    def from_json(text: str) -> "FaultPlan":
        return FaultPlan.from_dict(json.loads(text))


# ---------------------------------------------------------------------------
# Process-global arming
# ---------------------------------------------------------------------------

_ACTIVE: Optional[FaultPlan] = None
_ACTIVE_INIT = False
#: Per-process firing counters (point -> fires so far).
_FIRES: Dict[str, int] = {}
#: Worker context: set inside supervised-pool workers only.
_IN_WORKER = False


def arm(plan: FaultPlan, propagate: bool = True) -> None:
    """Activate *plan* for this process (and, via env, its children)."""
    global _ACTIVE, _ACTIVE_INIT
    _ACTIVE = plan
    _ACTIVE_INIT = True
    _FIRES.clear()
    if propagate:
        os.environ[ENV_VAR] = plan.to_json()


def disarm() -> None:
    """Deactivate fault injection and clear the env propagation."""
    global _ACTIVE, _ACTIVE_INIT
    _ACTIVE = None
    _ACTIVE_INIT = True
    _FIRES.clear()
    os.environ.pop(ENV_VAR, None)


@contextmanager
def armed(plan: FaultPlan, propagate: bool = True) -> Iterator[FaultPlan]:
    """Scoped arming: guarantees a disarm on exit (chaos tests)."""
    arm(plan, propagate=propagate)
    try:
        yield plan
    finally:
        disarm()


def active_plan() -> Optional[FaultPlan]:
    """The armed plan, if any.

    A process that never called :func:`arm`/:func:`disarm` (a spawned
    pool worker) lazily adopts the plan serialized in ``REPRO_FAULTS``;
    forked workers inherit the parent's global directly.
    """
    global _ACTIVE, _ACTIVE_INIT
    if not _ACTIVE_INIT:
        text = os.environ.get(ENV_VAR)
        if text:
            try:
                _ACTIVE = FaultPlan.from_json(text)
            except (ValueError, KeyError, TypeError):
                _ACTIVE = None
        _ACTIVE_INIT = True
    return _ACTIVE


def enter_worker(reset_counters: bool = True) -> None:
    """Mark this process as a supervised-pool worker.

    Worker-lifecycle faults (crash / hang) fire only after this is
    called; a fresh worker also resets the per-process fire counters
    so respawned workers behave like their predecessors.
    """
    global _IN_WORKER
    _IN_WORKER = True
    if reset_counters:
        _FIRES.clear()


# ---------------------------------------------------------------------------
# Decision + effect helpers (the layers call these)
# ---------------------------------------------------------------------------

def fired(point: str, key: str, attempt: int = 0) -> bool:
    """Whether *point* fires at this site; counts the firing if so."""
    plan = active_plan()
    if plan is None:
        return False
    if not plan.decides(point, key, attempt):
        return False
    spec = plan.spec(point)
    count = _FIRES.get(point, 0)
    if spec.max_fires is not None and count >= spec.max_fires:
        return False
    _FIRES[point] = count + 1
    # Every firing is an observable event: chaos tests assert the trace
    # records exactly the injected faults.  Lazy import keeps faults
    # importable without the obs package (and free of cycles).
    from repro.obs import trace as obs

    obs.instant("fault.fired", point=point, key=key, attempt=attempt)
    obs.inc(f"fault.{point}")
    return True


def raise_if(point: str, key: str, exc_type: type = OSError) -> None:
    """Raise *exc_type* when *point* fires at this site."""
    if fired(point, key):
        raise exc_type(
            f"injected fault {point} at {key!r} "
            f"(seed {active_plan().seed})"
        )


def corrupt_payload(data: str, key: str) -> str:
    """Apply armed storage-corruption faults to *data* before writing.

    ``store.torn_write`` truncates the payload mid-way (a torn page:
    the rename survived the crash, the data didn't); ``store.bitflip``
    deterministically flips one character (silent media corruption).
    Both leave the caller believing the write succeeded — detection is
    the store's checksum/recovery machinery's job.
    """
    plan = active_plan()
    if plan is None:
        return data
    if fired("store.torn_write", key):
        data = data[: max(1, len(data) // 2)]
    if fired("store.bitflip", key) and data:
        pos = int(_fraction(plan.seed, "store.bitflip.pos", key) * len(data))
        pos = min(pos, len(data) - 1)
        data = data[:pos] + chr(ord(data[pos]) ^ 1) + data[pos + 1:]
    return data


def worker_faults(key: str, attempt: int) -> None:
    """Apply armed worker-lifecycle faults (call from the worker loop).

    ``worker.crash`` kills the process bypassing all cleanup
    (``os._exit``) — exactly what an OOM kill or segfault looks like
    to the supervisor.  ``worker.hang`` sleeps far past any task
    timeout.  Both are no-ops outside worker processes.
    """
    if not _IN_WORKER:
        return
    if fired("worker.crash", key, attempt):
        os._exit(CRASH_EXIT_CODE)
    if fired("worker.hang", key, attempt):
        time.sleep(active_plan().spec("worker.hang").duration_s)
