"""Hierarchical span tracing with a zero-cost disabled path.

The recorder collects two kinds of events into an in-process buffer:

* **complete spans** (Chrome-trace phase ``"X"``) — a named interval
  with wall duration, CPU duration and nesting depth, opened with
  :func:`span` as a context manager or closed manually with
  :meth:`Recorder.complete` around hot loops;
* **instants** (phase ``"i"``) — point events such as a cache miss, a
  pruned explore candidate or an injected fault firing;
* **counter samples** (phase ``"C"``) — timestamped gauge readings from
  :class:`repro.obs.sampler.ResourceSampler`, rendered as counter
  tracks by the Chrome trace viewer.

Every span carries a per-process span id (``sid``) and its enclosing
span's id (``parent``); instants carry ``parent`` only.  Combined with
the run id from :mod:`repro.obs.log`, that is enough to correlate any
event back to the run and call tree that emitted it, across pids.

Timestamps come from :func:`time.perf_counter_ns` and are re-anchored
to the epoch at record time so events from different processes merge
onto one timeline.  Worker processes adopt tracing lazily from the
``REPRO_TRACE`` environment variable (the same propagation pattern as
``REPRO_FAULTS`` in :mod:`repro.service.faults`), buffer locally, and
the pool supervisor absorbs their buffers when results return.

When tracing is disabled — the default — every module-level hook
returns the shared :data:`NULL_SPAN` or does nothing after a single
``None`` check, so instrumented code pays one global load per call
site.  This module deliberately imports nothing from the rest of the
package so every layer can import it without cycles.
"""

from __future__ import annotations

import json
import os
import sys
import time
import warnings
from typing import Any, Dict, Iterable, List, Optional

from repro.obs.metrics import MetricsRegistry

ENV_VAR = "REPRO_TRACE"

__all__ = [
    "ENV_VAR",
    "NULL_SPAN",
    "Recorder",
    "TRACE_SCHEMA",
    "active",
    "adopt_in_worker",
    "chrome_trace",
    "capture",
    "disable",
    "enable",
    "enabled",
    "events_from_chrome",
    "format_tree",
    "gauge",
    "hist",
    "inc",
    "instant",
    "set_event_sink",
    "span",
    "validate_chrome_trace",
    "warn_event",
    "write_chrome_trace",
]


class _NullSpan:
    """Shared no-op span returned by every hook while tracing is off."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc: Any) -> bool:
        return False

    def set(self, **attrs: Any) -> "_NullSpan":
        return self


NULL_SPAN = _NullSpan()


class _SpanCtx:
    """A live span; records a complete event when the block exits."""

    __slots__ = (
        "_rec", "name", "attrs", "_t0", "_cpu0", "_depth", "_sid", "_parent"
    )

    def __init__(self, rec: "Recorder", name: str, attrs: Dict[str, Any]):
        self._rec = rec
        self.name = name
        self.attrs = attrs

    def set(self, **attrs: Any) -> "_SpanCtx":
        """Attach attributes discovered mid-span (e.g. chosen backend)."""
        self.attrs.update(attrs)
        return self

    def __enter__(self) -> "_SpanCtx":
        rec = self._rec
        self._depth = rec._depth
        rec._depth = self._depth + 1
        self._sid = rec._next_sid
        rec._next_sid = self._sid + 1
        stack = rec._sid_stack
        self._parent = stack[-1] if stack else None
        stack.append(self._sid)
        self._cpu0 = time.process_time_ns()
        self._t0 = time.perf_counter_ns()
        return self

    def __exit__(self, exc_type: Any, exc: Any, tb: Any) -> bool:
        t1 = time.perf_counter_ns()
        cpu1 = time.process_time_ns()
        rec = self._rec
        rec._depth = self._depth
        if rec._sid_stack and rec._sid_stack[-1] == self._sid:
            rec._sid_stack.pop()
        if exc_type is not None:
            self.attrs["error"] = exc_type.__name__
        event = {
            "name": self.name,
            "ph": "X",
            "ts": rec._epoch_ns + (self._t0 - rec._perf0),
            "dur": t1 - self._t0,
            "cpu": cpu1 - self._cpu0,
            "depth": self._depth,
            "pid": rec.pid,
            "sid": self._sid,
            "parent": self._parent,
            "args": self.attrs,
        }
        rec._events.append(event)
        if _SINK is not None:
            _SINK(event)
        return False


class Recorder:
    """In-process trace buffer plus the run's :class:`MetricsRegistry`."""

    def __init__(self) -> None:
        self.pid = os.getpid()
        self._events: List[Dict[str, Any]] = []
        self._depth = 0
        self._next_sid = 1
        self._sid_stack: List[int] = []
        self._epoch_ns = time.time_ns()
        self._perf0 = time.perf_counter_ns()
        self.metrics = MetricsRegistry()

    # -- recording -------------------------------------------------

    def span(self, name: str, **attrs: Any) -> _SpanCtx:
        return _SpanCtx(self, name, attrs)

    def now(self) -> int:
        """Raw ``perf_counter_ns`` start mark for :meth:`complete`."""
        return time.perf_counter_ns()

    def complete(self, name: str, start_ns: int, **attrs: Any) -> int:
        """Record a span opened at *start_ns* (from :meth:`now`) ending now.

        This is the loop-friendly form: no context-manager object per
        batch, just one timestamp before and one call after.  Returns
        the wall duration in nanoseconds so callers can feed the same
        measurement into a histogram without a second clock read.
        """
        t1 = time.perf_counter_ns()
        sid = self._next_sid
        self._next_sid = sid + 1
        stack = self._sid_stack
        event = {
            "name": name,
            "ph": "X",
            "ts": self._epoch_ns + (start_ns - self._perf0),
            "dur": t1 - start_ns,
            "cpu": 0,
            "depth": self._depth,
            "pid": self.pid,
            "sid": sid,
            "parent": stack[-1] if stack else None,
            "args": attrs,
        }
        self._events.append(event)
        if _SINK is not None:
            _SINK(event)
        return t1 - start_ns

    def instant(self, name: str, **attrs: Any) -> None:
        stack = self._sid_stack
        event = {
            "name": name,
            "ph": "i",
            "ts": self._epoch_ns + (time.perf_counter_ns() - self._perf0),
            "dur": 0,
            "cpu": 0,
            "depth": self._depth,
            "pid": self.pid,
            "parent": stack[-1] if stack else None,
            "args": attrs,
        }
        self._events.append(event)
        if _SINK is not None:
            _SINK(event)

    def counter_sample(self, name: str, value: float) -> None:
        """Record a timestamped gauge reading (Chrome-trace phase ``C``).

        Samples render as counter tracks in the trace viewer; the
        resource sampler emits RSS / CPU% / GC / queue-depth series
        through this.
        """
        event = {
            "name": name,
            "ph": "C",
            "ts": self._epoch_ns + (time.perf_counter_ns() - self._perf0),
            "dur": 0,
            "cpu": 0,
            "depth": 0,
            "pid": self.pid,
            "args": {"value": value},
        }
        self._events.append(event)
        if _SINK is not None:
            _SINK(event)

    # -- access ----------------------------------------------------

    @property
    def events(self) -> List[Dict[str, Any]]:
        return self._events

    def find(self, name: str) -> List[Dict[str, Any]]:
        """All buffered events with the given *name* (spans and instants)."""
        return [e for e in self._events if e["name"] == name]

    # -- cross-process merge ---------------------------------------

    def drain_blob(self) -> Optional[Dict[str, Any]]:
        """Detach and return everything buffered so far, resetting state.

        Workers call this after each task; the returned blob travels
        with the worker's report and the parent feeds it to
        :meth:`absorb`.
        Returns ``None`` when there is nothing to ship.
        """
        snap = self.metrics.snapshot()
        if (
            not self._events
            and not snap["counters"]
            and not snap["gauges"]
            and not snap["hists"]
        ):
            return None
        blob = {"events": self._events, **snap}
        self._events = []
        self.metrics = MetricsRegistry()
        return blob

    def absorb(self, blob: Optional[Dict[str, Any]]) -> None:
        """Merge a worker's :meth:`drain_blob` output into this buffer.

        Worker events land in the parent buffer verbatim (they already
        carry the worker pid) without re-emitting to the event-log sink
        — the worker's own sink wrote them as they happened.
        """
        if not blob:
            return
        self._events.extend(blob.get("events", ()))
        self.metrics.merge(
            blob.get("counters"),
            blob.get("gauges"),
            blob.get("hists"),
            blob.get("gauge_policies"),
        )


# -- process-global enablement ------------------------------------------

_RECORDER: Optional[Recorder] = None
_ENV_CHECKED = False

#: Optional per-event callback (the JSONL event log).  Called with each
#: event dict right after it is buffered; installed/cleared by
#: :mod:`repro.obs.log` via :func:`set_event_sink`.
_SINK = None


def set_event_sink(sink) -> None:
    """Install (or clear, with ``None``) the per-event callback."""
    global _SINK
    _SINK = sink


def _maybe_adopt_log() -> None:
    """Arm the JSONL event log if ``REPRO_LOG`` is exported.

    Lazy import: :mod:`repro.obs.log` imports this module at top level,
    so the dependency must point one way only.
    """
    if os.environ.get("REPRO_LOG"):
        from repro.obs import log as _log

        _log.adopt_in_process()


def _adopt_from_env() -> Optional[Recorder]:
    global _RECORDER, _ENV_CHECKED
    _ENV_CHECKED = True
    if os.environ.get(ENV_VAR) or os.environ.get("REPRO_LOG"):
        _RECORDER = Recorder()
        _maybe_adopt_log()
    return _RECORDER


def active() -> Optional[Recorder]:
    """The process recorder, or ``None`` while tracing is disabled.

    Adopts ``REPRO_TRACE`` from the environment on first call so worker
    processes spawned by an armed parent start recording without any
    explicit handshake.
    """
    rec = _RECORDER
    if rec is None and not _ENV_CHECKED:
        return _adopt_from_env()
    return rec


def enabled() -> bool:
    return active() is not None


def enable(*, set_env: bool = True) -> Recorder:
    """Arm tracing with a fresh recorder; returns it.

    With *set_env* (the default) also exports ``REPRO_TRACE=1`` so
    worker processes spawned later adopt their own local recorder.
    """
    global _RECORDER, _ENV_CHECKED
    _RECORDER = Recorder()
    _ENV_CHECKED = True
    if set_env:
        os.environ[ENV_VAR] = "1"
    return _RECORDER


def adopt_in_worker() -> Optional[Recorder]:
    """A fresh recorder for a worker process; ``None`` if tracing is off.

    A *forked* worker inherits the parent's recorder object verbatim —
    the wrong ``pid`` and a buffer of parent events that would ship
    back and duplicate on merge.  A *spawned* worker starts clean but
    must adopt ``REPRO_TRACE``.  Both cases collapse to: replace the
    global with a brand-new recorder whenever tracing is armed.
    """
    global _RECORDER, _ENV_CHECKED
    _ENV_CHECKED = True
    if (
        _RECORDER is not None
        or os.environ.get(ENV_VAR)
        or os.environ.get("REPRO_LOG")
    ):
        _RECORDER = Recorder()
        _maybe_adopt_log()
    else:
        _RECORDER = None
    return _RECORDER


def disable() -> None:
    """Disarm tracing and drop the buffer; clears ``REPRO_TRACE``.

    Also shuts down the JSONL event log if one is armed (closing its
    file and clearing ``REPRO_LOG`` / ``REPRO_RUN_ID``) so a single
    ``disable()`` returns the process to the fully-dark state tests
    expect.
    """
    global _RECORDER, _ENV_CHECKED, _SINK
    _log = sys.modules.get("repro.obs.log")
    if _log is not None:
        _log.disable()
    _RECORDER = None
    _ENV_CHECKED = False
    _SINK = None
    os.environ.pop(ENV_VAR, None)
    os.environ.pop("REPRO_LOG", None)
    os.environ.pop("REPRO_RUN_ID", None)


class capture:
    """``with obs.capture() as rec:`` — scoped tracing for tests.

    Restores the previous recorder/environment state on exit, so a
    failing assertion cannot leak an armed recorder into later tests.
    """

    def __enter__(self) -> Recorder:
        self._prev = _RECORDER
        self._prev_env = os.environ.get(ENV_VAR)
        return enable()

    def __exit__(self, *exc: Any) -> bool:
        global _RECORDER, _ENV_CHECKED
        _RECORDER = self._prev
        _ENV_CHECKED = _RECORDER is not None
        if self._prev_env is None:
            os.environ.pop(ENV_VAR, None)
        else:
            os.environ[ENV_VAR] = self._prev_env
        return False


# -- module-level hooks (the instrumentation surface) -------------------


def span(name: str, **attrs: Any):
    """Open a span; the shared :data:`NULL_SPAN` when tracing is off."""
    rec = active()
    if rec is None:
        return NULL_SPAN
    return rec.span(name, **attrs)


def instant(name: str, **attrs: Any) -> None:
    """Record a point event; no-op when tracing is off."""
    rec = active()
    if rec is not None:
        rec.instant(name, **attrs)


def inc(name: str, n: int = 1) -> None:
    """Bump a counter; no-op when tracing is off."""
    rec = active()
    if rec is not None:
        rec.metrics.inc(name, n)


def gauge(name: str, value: float, policy: Optional[str] = None) -> None:
    """Set a gauge (optionally fixing its merge policy); no-op when off."""
    rec = active()
    if rec is not None:
        rec.metrics.gauge(name, value, policy)


def hist(name: str, value: float) -> None:
    """Record one histogram observation; no-op when tracing is off."""
    rec = active()
    if rec is not None:
        rec.metrics.hist(name, value)


def warn_event(warning: Warning, *, stacklevel: int = 2, **attrs: Any) -> None:
    """Emit *warning* through ``warnings.warn`` AND the event stream.

    The structured twin carries the category name, the message and any
    extra attributes, so chaos tests can assert on events instead of
    string-matching ``pytest.warns``.  The ordinary warning still fires
    with its original category, preserving filter behaviour.
    """
    rec = active()
    if rec is not None:
        cat = type(warning).__name__
        rec.instant("warning", category=cat, message=str(warning), **attrs)
        rec.metrics.inc(f"warning.{cat}")
    warnings.warn(warning, stacklevel=stacklevel + 1)


# -- Chrome-trace export ------------------------------------------------


def chrome_trace(events: Iterable[Dict[str, Any]]) -> Dict[str, Any]:
    """Render buffered events as a Chrome-trace / Perfetto JSON object.

    Load the result via ``chrome://tracing`` or https://ui.perfetto.dev.
    Timestamps convert from nanoseconds to the microseconds the format
    expects; nesting is reconstructed by the viewer from intervals.
    """
    out: List[Dict[str, Any]] = []
    pids = set()
    for e in events:
        pids.add(e["pid"])
        ev: Dict[str, Any] = {
            "name": e["name"],
            "cat": e["name"].split(".", 1)[0],
            "ph": e["ph"],
            "ts": e["ts"] / 1000.0,
            "pid": e["pid"],
            "tid": e["pid"],
            "args": dict(e["args"]),
        }
        if e["ph"] == "X":
            ev["dur"] = e["dur"] / 1000.0
            if e.get("cpu"):
                ev["args"]["cpu_ms"] = round(e["cpu"] / 1e6, 3)
        elif e["ph"] == "i":
            ev["s"] = "t"
        # ph "C" counter samples pass through with args={"value": v},
        # which the viewer renders as a counter track per name.
        out.append(ev)
    for pid in sorted(pids):
        out.append(
            {
                "name": "process_name",
                "ph": "M",
                "ts": 0,
                "pid": pid,
                "tid": pid,
                "args": {"name": f"repro[{pid}]"},
            }
        )
    out.sort(key=lambda ev: (ev["ph"] != "M", ev["ts"]))
    return {"traceEvents": out, "displayTimeUnit": "ms"}


def write_chrome_trace(path: str, events: Iterable[Dict[str, Any]]) -> None:
    doc = chrome_trace(events)
    tmp = f"{path}.tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    os.replace(tmp, path)


def events_from_chrome(doc: Dict[str, Any]) -> List[Dict[str, Any]]:
    """Reconstruct internal-format events from a Chrome-trace document.

    The inverse of :func:`chrome_trace` up to precision: microsecond
    timestamps widen back to nanoseconds and nesting depth — which the
    Chrome format leaves implicit — is rebuilt per process from
    interval containment.  This is what lets ``repro trace FILE``
    render a tree from a file written by an earlier run.
    """
    evs: List[Dict[str, Any]] = []
    for ev in doc.get("traceEvents", []):
        if ev.get("ph") not in ("X", "i"):
            continue
        evs.append(
            {
                "name": ev["name"],
                "ph": ev["ph"],
                "ts": int(ev["ts"] * 1000),
                "dur": int(ev.get("dur", 0) * 1000),
                "cpu": 0,
                "depth": 0,
                "pid": ev.get("pid", 0),
                "args": dict(ev.get("args", {})),
            }
        )
    evs.sort(key=lambda e: (e["ts"], -e["dur"]))
    stacks: Dict[int, List[int]] = {}
    for e in evs:
        stack = stacks.setdefault(e["pid"], [])
        while stack and e["ts"] >= stack[-1]:
            stack.pop()
        e["depth"] = len(stack)
        if e["ph"] == "X":
            stack.append(e["ts"] + e["dur"])
    return evs


# -- checked-in schema + stdlib validator -------------------------------

#: Minimal JSON-Schema-shaped description of the traces we emit.  CI's
#: `trace` smoke job validates `--trace` output against this with the
#: stdlib walker below — no jsonschema dependency.
TRACE_SCHEMA: Dict[str, Any] = {
    "type": "object",
    "required": ["traceEvents"],
    "properties": {
        "traceEvents": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["name", "ph", "ts", "pid", "tid"],
                "properties": {
                    "name": {"type": "string"},
                    "ph": {"enum": ["X", "i", "M", "C"]},
                    "ts": {"type": "number"},
                    "dur": {"type": "number"},
                    "pid": {"type": "integer"},
                    "tid": {"type": "integer"},
                    "args": {"type": "object"},
                },
            },
        },
        "displayTimeUnit": {"type": "string"},
    },
}

_TYPES = {
    "object": dict,
    "array": list,
    "string": str,
    "number": (int, float),
    "integer": int,
    "boolean": bool,
}


def validate_chrome_trace(
    doc: Any, schema: Optional[Dict[str, Any]] = None, _path: str = "$"
) -> List[str]:
    """Validate *doc* against :data:`TRACE_SCHEMA`; returns error strings.

    Supports the subset of JSON Schema the trace schema uses — ``type``,
    ``required``, ``properties``, ``items`` and ``enum`` — with plain
    stdlib recursion.  An empty list means the document conforms.
    """
    schema = TRACE_SCHEMA if schema is None else schema
    errors: List[str] = []
    typ = schema.get("type")
    if typ is not None:
        expect = _TYPES[typ]
        ok = isinstance(doc, expect)
        if ok and typ in ("number", "integer") and isinstance(doc, bool):
            ok = False
        if not ok:
            return [f"{_path}: expected {typ}, got {type(doc).__name__}"]
    if "enum" in schema and doc not in schema["enum"]:
        return [f"{_path}: {doc!r} not in {schema['enum']}"]
    if isinstance(doc, dict):
        for key in schema.get("required", ()):
            if key not in doc:
                errors.append(f"{_path}: missing required key {key!r}")
        for key, sub in schema.get("properties", {}).items():
            if key in doc:
                errors.extend(
                    validate_chrome_trace(doc[key], sub, f"{_path}.{key}")
                )
    if isinstance(doc, list) and "items" in schema:
        for i, item in enumerate(doc):
            errors.extend(
                validate_chrome_trace(item, schema["items"], f"{_path}[{i}]")
            )
    return errors


# -- human-readable tree ------------------------------------------------


def format_tree(
    events: Iterable[Dict[str, Any]], *, min_ms: float = 0.0
) -> str:
    """Render spans as an indented tree with durations, instants as dots.

    Events from every process interleave on one timeline; each line is
    ``<indent><name> <dur>ms [pid N] key=value ...``.  Spans shorter
    than *min_ms* are folded away (their children too).
    """
    evs = [e for e in events if e["ph"] in ("X", "i")]
    evs.sort(key=lambda e: (e["ts"], -e["dur"]))
    pids = {e["pid"] for e in evs}
    lines: List[str] = []
    hidden_below: Dict[int, int] = {}
    for e in evs:
        depth = e["depth"]
        cut = hidden_below.get(e["pid"])
        if cut is not None and depth > cut:
            continue
        hidden_below.pop(e["pid"], None)
        dur_ms = e["dur"] / 1e6
        if e["ph"] == "X" and dur_ms < min_ms:
            hidden_below[e["pid"]] = depth
            continue
        indent = "  " * depth
        tag = f" [pid {e['pid']}]" if len(pids) > 1 else ""
        attrs = " ".join(f"{k}={v}" for k, v in e["args"].items())
        attrs = f"  {attrs}" if attrs else ""
        if e["ph"] == "i":
            lines.append(f"{indent}· {e['name']}{tag}{attrs}")
        else:
            lines.append(f"{indent}{e['name']} {dur_ms:.3f}ms{tag}{attrs}")
    return "\n".join(lines)
