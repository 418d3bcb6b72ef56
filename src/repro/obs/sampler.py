"""Opt-in background resource sampler exported as Chrome counter tracks.

A :class:`ResourceSampler` runs a daemon thread that periodically
records process vitals into the active trace recorder as phase-``C``
counter samples (:meth:`repro.obs.trace.Recorder.counter_sample`):

* ``proc.rss_mb`` — resident set size from ``/proc/self/status``
  (peak RSS via :mod:`resource` where procfs is unavailable);
* ``proc.cpu_pct`` — process CPU time over wall time since the last
  sample, in percent (can exceed 100 with busy worker threads);
* ``proc.gc_collections`` — cumulative stdlib GC collections across
  all generations;
* any **probes** registered with :func:`register_probe` — live values
  owned by other layers, e.g. the pool supervisor publishes
  ``pool.queue_depth`` while a batch is in flight.

The Chrome trace viewer renders each series as a counter track under
the process, so RSS ramps, GC storms and queue backlogs line up
against the span timeline.  Arm it with the CLI's ``--sample HZ`` or
programmatically::

    with obs.capture() as rec, ResourceSampler(interval_s=0.02):
        run_workload()

Sampling is strictly additive: with no recorder active each tick is a
no-op, and :meth:`stop` joins the thread so no samples land after the
run's trace is exported.
"""

from __future__ import annotations

import gc
import threading
import time
from typing import Any, Callable, Dict, Optional, Set

from repro.obs import trace

__all__ = [
    "ResourceSampler",
    "register_probe",
    "rss_bytes",
    "unregister_probe",
]

#: Live-value callbacks sampled alongside process vitals; name -> fn.
_PROBES: Dict[str, Callable[[], Optional[float]]] = {}
#: Samplers between :meth:`ResourceSampler.start` and ``stop``.
_RUNNING: Set["ResourceSampler"] = set()


def register_probe(name: str, fn: Callable[[], Optional[float]]) -> None:
    """Expose a live value (e.g. queue depth) to any running sampler.

    *fn* is called from the sampler thread; it must be cheap and may
    return ``None`` to skip a tick.
    """
    _PROBES[name] = fn


def unregister_probe(name: str) -> None:
    """Withdraw probe *name*.

    A running sampler whose ticks never saw the probe samples it once
    now, so a probe registered while a sampler runs is sampled at
    least once, however soon it goes.
    """
    fn = _PROBES.pop(name, None)
    if fn is None:
        return
    for sampler in list(_RUNNING):
        if name not in sampler._sampled:
            sampler._sample_probe(name, fn)


def rss_bytes() -> Optional[int]:
    """Current resident set size, best effort.

    Reads ``VmRSS`` from ``/proc/self/status`` on Linux; falls back to
    the peak RSS from ``resource.getrusage`` elsewhere; ``None`` when
    neither source exists.
    """
    try:
        with open("/proc/self/status", "r", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmRSS:"):
                    return int(line.split()[1]) * 1024
    except OSError:
        pass
    try:
        import resource

        usage = resource.getrusage(resource.RUSAGE_SELF)
        # ru_maxrss is KiB on Linux, bytes on macOS; both are fine as
        # a trend line, which is all the counter track promises.
        return int(usage.ru_maxrss) * 1024
    except (ImportError, ValueError):  # pragma: no cover - exotic platform
        return None


class ResourceSampler:
    """Daemon thread recording resource counter samples at a fixed rate."""

    def __init__(
        self,
        interval_s: float = 0.05,
        recorder: Optional["trace.Recorder"] = None,
    ):
        if interval_s <= 0:
            raise ValueError("interval_s must be > 0")
        self.interval_s = interval_s
        self._recorder = recorder
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None
        self._last_cpu = 0.0
        self._last_wall = 0.0
        self.samples_taken = 0
        #: Probe names this run has sampled (see :func:`unregister_probe`).
        self._sampled: Set[str] = set()

    # -- lifecycle -------------------------------------------------

    def start(self) -> "ResourceSampler":
        if self._thread is not None:
            raise RuntimeError("sampler already started")
        self._last_cpu = time.process_time()
        self._last_wall = time.perf_counter()
        self._stop.clear()
        self._sampled = set()
        _RUNNING.add(self)
        self._thread = threading.Thread(
            target=self._loop, name="repro-sampler", daemon=True
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        if self._thread is None:
            return
        self._stop.set()
        self._thread.join()
        self._thread = None
        _RUNNING.discard(self)

    def __enter__(self) -> "ResourceSampler":
        return self.start()

    def __exit__(self, *exc: Any) -> bool:
        self.stop()
        return False

    # -- sampling --------------------------------------------------

    def _loop(self) -> None:
        # Take one sample immediately so even sub-interval runs get a
        # data point, then tick until stopped.
        while True:
            self.sample_once()
            if self._stop.wait(self.interval_s):
                return

    def sample_once(self) -> None:
        """Record one round of counter samples (no-op without a recorder)."""
        rec = self._recorder or trace.active()
        if rec is None:
            return
        rss = rss_bytes()
        if rss is not None:
            rec.counter_sample("proc.rss_mb", round(rss / 1e6, 3))
        cpu = time.process_time()
        wall = time.perf_counter()
        dt = wall - self._last_wall
        if dt > 0:
            pct = 100.0 * (cpu - self._last_cpu) / dt
            rec.counter_sample("proc.cpu_pct", round(pct, 1))
        self._last_cpu = cpu
        self._last_wall = wall
        rec.counter_sample(
            "proc.gc_collections",
            sum(s["collections"] for s in gc.get_stats()),
        )
        for name, fn in list(_PROBES.items()):
            self._sample_probe(name, fn, rec)
        self.samples_taken += 1

    def _sample_probe(
        self, name: str, fn: Callable[[], Optional[float]],
        rec: Optional["trace.Recorder"] = None,
    ) -> None:
        rec = rec or self._recorder or trace.active()
        if rec is None:
            return
        try:
            value = fn()
        except Exception:  # probe owner's bug must not kill sampling
            return
        if value is not None:
            rec.counter_sample(name, value)
        self._sampled.add(name)
