"""The perf-trajectory ledger: inspect and diff ``BENCH_sim.json``.

The committed benchmark snapshot is the repo's perf history — one row
per (backend, workload) with the median wall time, derived rate and
speedup vs the family reference.  This module makes that history a
first-class observable instead of a blob only CI reads:

* :func:`validate_snapshot` — stdlib schema check (same walker style as
  :data:`repro.obs.trace.TRACE_SCHEMA`; no jsonschema dependency);
* :func:`format_ledger` — render the trajectory as a table;
* :func:`diff_rows` / :func:`format_diff` — per-row deltas between two
  snapshots (new/removed rows called out, medians and rates compared);
* :func:`compare_snapshots` — the regression gate behind
  ``repro bench report --diff``.

Exposed on the CLI as ``repro bench report``.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Optional

from repro.obs.trace import validate_chrome_trace as _validate_with_schema

__all__ = [
    "BENCH_SCHEMA",
    "compare_snapshots",
    "diff_rows",
    "format_diff",
    "format_ledger",
    "load_snapshot",
    "validate_snapshot",
]

#: Schema for the committed benchmark snapshot, validated with the same
#: stdlib walker the trace schema uses.
BENCH_SCHEMA: Dict[str, Any] = {
    "type": "object",
    "required": ["schema", "results"],
    "properties": {
        "schema": {"type": "integer", "enum": [1]},
        "source": {"type": "string"},
        "python": {"type": "string"},
        "machine": {"type": "string"},
        "results": {"type": "object"},
    },
}

#: Schema for one result row.
ROW_SCHEMA: Dict[str, Any] = {
    "type": "object",
    "required": ["backend", "workload", "median_s"],
    "properties": {
        "backend": {"type": "string"},
        "workload": {"type": "string"},
        "median_s": {"type": "number"},
    },
}

#: Rate keys a row may carry, in display-preference order.
RATE_KEYS = ("cycles_per_s", "passes_per_s", "candidates_per_s")

#: Speedup keys a row may carry.
SPEEDUP_KEYS = (
    "speedup_vs_event",
    "speedup_vs_reference",
    "speedup_vs_sim_everything",
)


def load_snapshot(path: str) -> Dict[str, Any]:
    """Load a benchmark snapshot file; raises on unreadable/invalid JSON."""
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def validate_snapshot(doc: Any) -> List[str]:
    """Schema-check a snapshot; returns error strings (empty = valid)."""
    errors = _validate_with_schema(doc, BENCH_SCHEMA)
    if errors:
        return errors
    for key, row in doc.get("results", {}).items():
        errors.extend(
            _validate_with_schema(row, ROW_SCHEMA, f"$.results[{key!r}]")
        )
        if isinstance(row, dict):
            median = row.get("median_s")
            if isinstance(median, (int, float)) and median <= 0:
                errors.append(
                    f"$.results[{key!r}].median_s: must be > 0, "
                    f"got {median!r}"
                )
    return errors


def _rate(row: Dict[str, Any]) -> Optional[str]:
    for key in RATE_KEYS:
        if key in row:
            unit = key[: -len("_per_s")]
            return f"{row[key]:.1f} {unit}/s"
    return None


def _speedup(row: Dict[str, Any]) -> Optional[str]:
    for key in SPEEDUP_KEYS:
        if key in row:
            ref = key[len("speedup_vs_"):].replace("_", "-")
            return f"{row[key]}x vs {ref}"
    return None


def format_ledger(doc: Dict[str, Any]) -> str:
    """Render the trajectory as an aligned table, one row per workload."""
    results = doc.get("results", {})
    if not results:
        return "(no benchmark rows)"
    lines = []
    meta = [
        f"python {doc['python']}" if doc.get("python") else None,
        doc.get("machine"),
        f"{len(results)} rows",
    ]
    lines.append("perf trajectory: " + ", ".join(m for m in meta if m))
    width = max(len(k) for k in results)
    for key in sorted(results):
        row = results[key]
        cells = [f"{row['median_s'] * 1000:9.3f} ms median"]
        rate = _rate(row)
        if rate:
            cells.append(f"{rate:>22}")
        speedup = _speedup(row)
        if speedup:
            cells.append(speedup)
        lines.append(f"  {key:<{width}}  " + "  ".join(cells))
    return "\n".join(lines)


def compare_snapshots(
    reference: Dict[str, Any], current: Dict[str, Any], threshold: float
) -> List[str]:
    """Workloads whose median regressed by more than *threshold*.

    Only keys present in both snapshots are compared — new workloads
    gate nothing, removed ones just stop being checked.  This is the
    regression gate ``repro bench report --diff`` applies.
    """
    regressions = []
    ref_results = reference.get("results", {})
    for key, entry in current.get("results", {}).items():
        ref = ref_results.get(key)
        if ref is None or not ref.get("median_s"):
            continue
        ratio = entry["median_s"] / ref["median_s"]
        if ratio > 1.0 + threshold:
            regressions.append(
                f"{key}: {ref['median_s'] * 1000:.3f} ms -> "
                f"{entry['median_s'] * 1000:.3f} ms "
                f"({(ratio - 1) * 100:+.1f}%)"
            )
    return regressions


def diff_rows(
    reference: Dict[str, Any], current: Dict[str, Any]
) -> List[Dict[str, Any]]:
    """Per-row deltas between two snapshots.

    Each dict has ``key``, ``status`` (``"common"`` / ``"new"`` /
    ``"removed"``) and, for common rows, ``ref_median_s`` /
    ``cur_median_s`` / ``delta_frac`` (positive = slower now).
    """
    ref_results = reference.get("results", {})
    cur_results = current.get("results", {})
    rows: List[Dict[str, Any]] = []
    for key in sorted(set(ref_results) | set(cur_results)):
        ref = ref_results.get(key)
        cur = cur_results.get(key)
        if ref is None:
            rows.append({"key": key, "status": "new",
                         "cur_median_s": cur["median_s"]})
        elif cur is None:
            rows.append({"key": key, "status": "removed",
                         "ref_median_s": ref["median_s"]})
        else:
            delta = cur["median_s"] / ref["median_s"] - 1.0
            rows.append({
                "key": key,
                "status": "common",
                "ref_median_s": ref["median_s"],
                "cur_median_s": cur["median_s"],
                "delta_frac": round(delta, 4),
            })
    return rows


def format_diff(
    reference: Dict[str, Any],
    current: Dict[str, Any],
    threshold: float = 0.25,
) -> str:
    """Human table of :func:`diff_rows` plus the regression verdict."""
    rows = diff_rows(reference, current)
    if not rows:
        return "(no rows to diff)"
    width = max(len(r["key"]) for r in rows)
    lines = []
    for r in rows:
        if r["status"] == "new":
            lines.append(
                f"  {r['key']:<{width}}  "
                f"{'(new)':>12}  {r['cur_median_s'] * 1000:9.3f} ms"
            )
        elif r["status"] == "removed":
            lines.append(
                f"  {r['key']:<{width}}  "
                f"{r['ref_median_s'] * 1000:9.3f} ms  (removed)"
            )
        else:
            marker = " <-- regressed" if r["delta_frac"] > threshold else ""
            lines.append(
                f"  {r['key']:<{width}}  "
                f"{r['ref_median_s'] * 1000:9.3f} ms -> "
                f"{r['cur_median_s'] * 1000:9.3f} ms  "
                f"{r['delta_frac'] * 100:+6.1f}%{marker}"
            )
    regressions = compare_snapshots(reference, current, threshold)
    if regressions:
        lines.append(
            f"FAIL: {len(regressions)} workload(s) regressed "
            f">{threshold * 100:.0f}%"
        )
    else:
        lines.append(
            f"no workload regressed >{threshold * 100:.0f}%"
        )
    return "\n".join(lines)
