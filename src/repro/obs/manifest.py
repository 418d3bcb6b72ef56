"""Per-run manifests: what ran, on what, and where the time went.

A manifest is one JSON document summarising a traced run — code
version (``git describe``), interpreter and numpy versions, the backend
that was chosen plus any degradation chain, circuit fingerprints and
seed, wall/CPU time aggregated per top-level phase, the full metrics
snapshot, and the armed fault plan if chaos injection was on.  The CLI
persists it next to the job records in the result store
(``<store>/manifests/``) so every cached result has a durable record
of how it was produced.
"""

from __future__ import annotations

import itertools
import json
import os
import platform
import subprocess
import sys
import time
from typing import Any, Dict, Iterable, List, Optional, Tuple

from repro.obs.trace import Recorder

__all__ = [
    "build_manifest",
    "environment",
    "phase_times",
    "span_coverage",
    "write_manifest",
]

MANIFEST_SCHEMA_VERSION = 1


def environment() -> Dict[str, Any]:
    """Versions of everything that can change a result."""
    try:
        git = subprocess.run(
            ["git", "describe", "--always", "--dirty"],
            capture_output=True,
            text=True,
            timeout=5,
            cwd=os.path.dirname(os.path.abspath(__file__)),
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        git = None
    return {
        "git": git,
        "python": platform.python_version(),
        "numpy": _numpy_version(),
        "platform": platform.platform(),
        "pid": os.getpid(),
        "argv": list(sys.argv),
    }


def _numpy_version() -> Optional[str]:
    """The numpy version, without importing numpy for it.

    Read from the numpy this run loaded, or else from the installed
    package metadata; ``None`` when neither exists.
    """
    numpy = sys.modules.get("numpy")
    if numpy is not None:
        return getattr(numpy, "__version__", None)
    from importlib import metadata

    try:
        return metadata.version("numpy")
    except metadata.PackageNotFoundError:
        return None


def _top_spans(
    events: Iterable[Dict[str, Any]]
) -> List[Tuple[int, int, Dict[str, Any]]]:
    """(start, end, event) for every depth-0 complete span."""
    return [
        (e["ts"], e["ts"] + e["dur"], e)
        for e in events
        if e["ph"] == "X" and e["depth"] == 0
    ]


def phase_times(events: Iterable[Dict[str, Any]]) -> Dict[str, Any]:
    """Aggregate depth-0 spans by name into per-phase wall/CPU totals."""
    phases: Dict[str, Dict[str, Any]] = {}
    for _, _, e in _top_spans(events):
        agg = phases.setdefault(
            e["name"], {"count": 0, "wall_s": 0.0, "cpu_s": 0.0}
        )
        agg["count"] += 1
        agg["wall_s"] += e["dur"] / 1e9
        agg["cpu_s"] += e.get("cpu", 0) / 1e9
    for agg in phases.values():
        agg["wall_s"] = round(agg["wall_s"], 6)
        agg["cpu_s"] = round(agg["cpu_s"], 6)
    return dict(sorted(phases.items()))


def span_coverage(events: Iterable[Dict[str, Any]]) -> float:
    """Fraction of the traced extent covered by top-level spans.

    The extent is first-span-start to last-span-end across all
    processes; coverage is the merged-interval union of depth-0 spans
    over it.  The fig5 acceptance test pins this at ≥ 0.95 — time the
    trace cannot attribute to a phase is the analogue of the paper's
    "useless transitions" and should stay marginal.
    """
    spans = sorted((s, e) for s, e, _ in _top_spans(events))
    if not spans:
        return 0.0
    extent = max(e for _, e in spans) - spans[0][0]
    if extent <= 0:
        return 1.0
    covered = 0
    cur_start, cur_end = spans[0]
    for s, e in spans[1:]:
        if s > cur_end:
            covered += cur_end - cur_start
            cur_start, cur_end = s, e
        else:
            cur_end = max(cur_end, e)
    covered += cur_end - cur_start
    return covered / extent


def build_manifest(
    recorder: Recorder,
    *,
    command: str,
    backend: Optional[str] = None,
    degraded: Optional[List[Dict[str, Any]]] = None,
    fingerprints: Optional[Dict[str, str]] = None,
    seed: Optional[int] = None,
    extra: Optional[Dict[str, Any]] = None,
) -> Dict[str, Any]:
    """Assemble the manifest dict for a finished traced run."""
    from repro.obs import log as _log

    events = recorder.events
    manifest: Dict[str, Any] = {
        "schema": MANIFEST_SCHEMA_VERSION,
        "command": command,
        "run_id": _log.current_run_id(),
        "created": time.time(),
        "environment": environment(),
        "backend": backend,
        "degraded": degraded or [],
        "fingerprints": fingerprints or {},
        "seed": seed,
        "phases": phase_times(events),
        "span_coverage": round(span_coverage(events), 4),
        "n_events": len(events),
        "metrics": recorder.metrics.snapshot(),
    }
    # Armed fault plans are part of the run's identity: a manifest from
    # a chaos run must say so.  Lazy import keeps obs free of package
    # dependencies when faults never armed.
    try:
        from repro.service import faults

        plan = faults.active_plan()
        manifest["fault_plan"] = plan.to_dict() if plan else None
    except Exception:
        manifest["fault_plan"] = None
    if extra:
        manifest.update(extra)
    return manifest


# Monotonic per-process sequence for manifest filenames: a second-
# resolution stamp plus pid alone collides when one process writes two
# manifests within the same second, silently overwriting the first.
_SEQ = itertools.count()


def write_manifest(directory: str, manifest: Dict[str, Any]) -> str:
    """Persist *manifest* under *directory* (atomic tmp+rename).

    Returns the path written.  Callers pass ``<store root>/manifests``
    so manifests live next to the job records they describe.  Filenames
    are ``<command>-<stamp>-<pid>-<seq>.json``; the per-process
    sequence keeps same-second writes distinct.
    """
    os.makedirs(directory, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    base = f"{manifest.get('command', 'run')}-{stamp}-{os.getpid()}"
    while True:
        path = os.path.join(directory, f"{base}-{next(_SEQ):03d}.json")
        if not os.path.exists(path):
            break
    tmp = f"{path}.tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=False, default=str)
    os.replace(tmp, path)
    return path
