"""Counters, gauges and histograms for a traced run.

A :class:`MetricsRegistry` holds three flat string-keyed maps: integer
**counters** (monotonic within a run — store hits, pool retries, cells
evaluated), float **gauges** (point-in-time values — queue depth, cache
bytes, reuse fractions) and log-bucketed **histograms**
(:class:`repro.obs.hist.Histogram` — task latencies, store I/O times,
per-candidate cost).  Each :class:`repro.obs.trace.Recorder` owns one;
worker processes accumulate into their local registry and the parent
merges the deltas when results return.

Merge semantics (exact across the pool, whatever the arrival order):

* **counters** add — totals are exact;
* **histograms** add bucket-wise — distributions are exact in count
  and sum, associative and commutative;
* **gauges** follow a per-gauge policy set at record time:

  - ``"last"`` (default) — the incoming value overwrites.  Inherently
    arrival-order dependent under the pool, so only fit for gauges
    where any single worker's value is representative (a fraction every
    worker computes identically, a final configuration value).
  - ``"max"`` — high-water mark; merge keeps the larger value.  Gauges
    whose name ends in ``depth`` (queue depth and friends) default to
    this, so concurrent workers can't understate the peak.
  - ``"sum"`` — merge adds; for gauges that are really per-worker
    contributions (bytes buffered per worker).

Naming follows ``layer.event`` dotted lowercase: ``store.hit``,
``pool.retry``, ``sim.cell_evals``, ``backend.degraded``; histogram
names carry a unit suffix (``pool.task_latency_s``).  See the README
taxonomy tables for the full catalogue.
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Union

from repro.obs.hist import Histogram

__all__ = ["MetricsRegistry", "GAUGE_POLICIES"]

#: Valid gauge merge policies.
GAUGE_POLICIES = ("last", "max", "sum")


def _default_policy(name: str) -> str:
    """Queue-depth-style gauges default to high-water-mark merging."""
    return "max" if name.endswith("depth") else "last"


class MetricsRegistry:
    """Process-local counters, gauges and histograms with snapshot/merge."""

    __slots__ = ("counters", "gauges", "gauge_policies", "hists")

    def __init__(self) -> None:
        self.counters: Dict[str, int] = {}
        self.gauges: Dict[str, float] = {}
        self.gauge_policies: Dict[str, str] = {}
        self.hists: Dict[str, Histogram] = {}

    def inc(self, name: str, n: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + n

    def gauge(self, name: str, value: float, policy: Optional[str] = None) -> None:
        """Set a gauge; *policy* fixes its merge rule on first use.

        Locally a gauge always takes the newest value (a gauge *is* the
        current reading); the policy only governs how values from other
        registries fold in via :meth:`merge`.
        """
        if policy is None:
            policy = self.gauge_policies.get(name) or _default_policy(name)
        elif policy not in GAUGE_POLICIES:
            raise ValueError(f"unknown gauge policy {policy!r}")
        self.gauge_policies[name] = policy
        if policy == "max" and name in self.gauges:
            self.gauges[name] = max(self.gauges[name], value)
        else:
            self.gauges[name] = value

    def hist(self, name: str, value: float) -> None:
        """Record one observation into the named histogram."""
        h = self.hists.get(name)
        if h is None:
            h = self.hists[name] = Histogram()
        h.observe(value)

    def get(self, name: str) -> int:
        """Current value of a counter (0 if never bumped)."""
        return self.counters.get(name, 0)

    def merge(
        self,
        counters: Optional[Dict[str, int]] = None,
        gauges: Optional[Dict[str, float]] = None,
        hists: Optional[Dict[str, Union[Histogram, Dict[str, Any]]]] = None,
        gauge_policies: Optional[Dict[str, str]] = None,
    ) -> None:
        """Fold a worker snapshot in.

        Counters add, histograms add bucket-wise, gauges resolve by
        their per-name policy (``last`` overwrite / ``max`` high-water
        / ``sum`` add — see the module docstring).  A policy shipped in
        *gauge_policies* fills in names this registry hasn't seen;
        where both sides named a policy, the local one wins so a run's
        semantics can't be flipped mid-merge by a stale worker.
        """
        if counters:
            for name, n in counters.items():
                self.counters[name] = self.counters.get(name, 0) + n
        if gauges:
            incoming_policy = gauge_policies or {}
            for name, value in gauges.items():
                policy = (
                    self.gauge_policies.get(name)
                    or incoming_policy.get(name)
                    or _default_policy(name)
                )
                self.gauge_policies.setdefault(name, policy)
                if name not in self.gauges:
                    self.gauges[name] = value
                elif policy == "max":
                    self.gauges[name] = max(self.gauges[name], value)
                elif policy == "sum":
                    self.gauges[name] += value
                else:
                    self.gauges[name] = value
        if hists:
            for name, incoming in hists.items():
                if isinstance(incoming, dict):
                    incoming = Histogram.from_dict(incoming)
                h = self.hists.get(name)
                if h is None:
                    h = self.hists[name] = Histogram()
                h.merge(incoming)

    def snapshot(self) -> Dict[str, Any]:
        """Sorted, JSON-ready copy of the current state."""
        return {
            "counters": dict(sorted(self.counters.items())),
            "gauges": dict(sorted(self.gauges.items())),
            "gauge_policies": dict(sorted(self.gauge_policies.items())),
            "hists": {
                name: self.hists[name].to_dict()
                for name in sorted(self.hists)
            },
        }

    def format_table(self) -> str:
        """Sectioned text rendering for ``--metrics`` CLI output."""
        sections = []
        if self.counters:
            rows = [(k, str(v)) for k, v in sorted(self.counters.items())]
            sections.append(("counters", rows))
        if self.gauges:
            rows = [
                (k, f"{v:g} ({self.gauge_policies.get(k, 'last')})")
                for k, v in sorted(self.gauges.items())
            ]
            sections.append(("gauges", rows))
        if self.hists:
            rows = []
            for k, h in sorted(self.hists.items()):
                s = h.summary()
                rows.append((
                    k,
                    "count={count}  p50={p50:.6g}  p90={p90:.6g}  "
                    "p99={p99:.6g}  max={max:.6g}".format(**s)
                    if h.count
                    else "count=0",
                ))
            sections.append(("histograms", rows))
        if not sections:
            return "(no metrics recorded)"
        width = max(
            len(k) for _, rows in sections for k, _ in rows
        )
        lines = []
        for title, rows in sections:
            lines.append(f"-- {title} --")
            lines.extend(f"{k:<{width}}  {v}" for k, v in rows)
        return "\n".join(lines)
