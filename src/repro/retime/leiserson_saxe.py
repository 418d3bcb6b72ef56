"""Leiserson–Saxe FEAS retiming and minimum-period search.

``FEAS(G, c)`` decides whether clock period *c* is achievable by
retiming and produces a legal retiming when it is:

1. start with ``r(v) = 0``;
2. repeat ``|V| - 1`` times: compute the combinational arrival time
   ``Delta(v)`` in the retimed graph (longest zero-weight path ending
   at *v*, including ``d(v)``); increment ``r(v)`` for every vertex
   with ``Delta(v) > c``;
3. feasible iff afterwards ``max Delta <= c``.

Retiming keeps the register count ``w(P)`` of every host-to-host path
*P*, which cuts *P* into ``w(P) + 1`` register-free pieces, so no period
is below ``max_P ceil(d(P) / (w(P) + 1))``.  On a graph without
feedback one topological pass computes that bound and FEAS probes it
first; a failed probe, or feedback, falls back to binary search up to
the unretimed critical path, one cold FEAS per probe.  Exact for the
integer delays used throughout this library.

Everything runs on the flat arrays of
:class:`~repro.retime.graph.RetimingGraph` with lags as a per-slot
list.  One arrival pass costs ``O(|V| + |E|)`` and allocates only a
few per-slot lists:

* a sweep of the edge arrays computes every retimed weight, rejects a
  negative weight (an illegal retiming) or a zero-weight self-loop,
  and counts each vertex's zero-weight in-edges;
* Kahn's algorithm over the CSR out-adjacency, restricted to the
  zero-weight edges, then visits the vertices in topological order and
  pushes each arrival time forward, rejecting a zero-weight cycle when
  some vertex is never reached.

The topological order is recomputed per pass rather than fixed once:
in a graph with feedback (a register on a loop) the zero-weight edges
change with every lag update, so no single order of the full graph
serves every retiming.  FEAS reuses the last pass of its loop as the
final check, so a probe that settles after *k* updates runs ``k + 1``
passes.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.retime.graph import CELL_SLOT, HOST_OUT_SLOT, HOST_SLOT, RetimingGraph


def _arrival_times(
    graph: RetimingGraph, lags: List[int]
) -> Optional[List[int]]:
    """Per-slot longest-path arrival over zero-weight retimed edges.

    Returns ``None`` when a retimed weight is negative or the
    zero-weight subgraph has a cycle (the retiming leaves a
    register-free loop — infeasible).
    """
    dst = graph.dst
    wr = graph.retimed_weights(lags)
    n = len(lags)
    indeg = [0] * n
    for w, s, d in zip(wr, graph.src, dst):
        if w <= 0:
            if w < 0 or s == d:
                return None
            indeg[d] += 1
    delay = graph.slot_delay
    out_start, out_edge = graph.out_start, graph.out_edge
    arrival = [0] * n
    ready = [v for v in range(n) if not indeg[v]]
    reached = 0
    while ready:
        v = ready.pop()
        reached += 1
        a = arrival[v] + delay[v]
        arrival[v] = a
        for e in out_edge[out_start[v]:out_start[v + 1]]:
            if not wr[e]:
                t = dst[e]
                if a > arrival[t]:
                    arrival[t] = a
                indeg[t] -= 1
                if not indeg[t]:
                    ready.append(t)
    if reached != n:
        return None  # zero-weight cycle
    return arrival


def feas(
    graph: RetimingGraph, period: int
) -> Optional[Dict[int, int]]:
    """Return a legal retiming achieving *period*, or ``None``.

    ``r`` maps vertices to integer lags; the host is pinned at 0.
    Every arrival pass rejects negative retimed weights, so a lag list
    that passes the final check is legal.
    """
    if period < max(graph.slot_delay):
        return None
    lags = [0] * len(graph.slot_delay)
    arrival = _arrival_times(graph, lags)
    for _ in range(max(len(graph.vertices) - 1, 0)):
        if arrival is None:
            return None
        late = [
            v for v in range(CELL_SLOT, len(lags)) if arrival[v] > period
        ]
        if not late:
            break
        for v in late:
            lags[v] += 1
        arrival = _arrival_times(graph, lags)
    if arrival is None or max(arrival) > period:
        return None
    return graph.lag_dict(lags)


def retime_for_period(
    graph: RetimingGraph, period: int
) -> Dict[int, int]:
    """Like :func:`feas` but raises ``ValueError`` when infeasible."""
    r = feas(graph, period)
    if r is None:
        raise ValueError(f"no retiming achieves period {period}")
    return r


def _path_bound(graph: RetimingGraph) -> Optional[int]:
    """``max_P ceil(d(P) / (w(P) + 1))`` over host-to-host paths *P*, or
    ``None`` on a cycle: a Kahn pass over every edge carries, per slot,
    the longest host path into it for each register count so far."""
    dst, weight, delay = graph.dst, graph.weight, graph.slot_delay
    out_start, out_edge = graph.out_start, graph.out_edge
    n = len(delay)
    indeg = [0] * n
    for d in dst:
        indeg[d] += 1
    longest: List[Dict[int, int]] = [{} for _ in range(n)]
    longest[HOST_SLOT][0] = 0
    ready = [v for v in range(n) if not indeg[v]]
    reached = 0
    while ready:
        v = ready.pop()
        reached += 1
        dv, paths = delay[v], longest[v].items()
        for e in out_edge[out_start[v]:out_start[v + 1]]:
            t, w = dst[e], weight[e]
            into = longest[t]
            for k, a in paths:
                if a + dv > into.get(k + w, -1):
                    into[k + w] = a + dv
            indeg[t] -= 1
            if not indeg[t]:
                ready.append(t)
    ends = longest[HOST_OUT_SLOT].items()  # (registers, delay) per path class
    return None if reached < n else max((-(-a // (k + 1)) for k, a in ends), default=0)


def minimum_period(
    graph: RetimingGraph,
) -> Tuple[int, Dict[int, int]]:
    """The smallest achievable period and ``feas(graph, c)``: ``(c, r)``.

    The path bound is probed first; see the module docstring."""
    lo = max(graph.slot_delay)
    bound = _path_bound(graph)
    if bound is not None:
        lo = max(lo, bound)
        r = feas(graph, lo)
        if r is not None:
            return lo, r
        lo += 1
    arrival0 = _arrival_times(graph, [0] * len(graph.slot_delay))
    if arrival0 is None:
        raise ValueError("circuit has a register-free cycle; no legal period")
    hi = max(arrival0)
    best_r = feas(graph, hi)
    assert best_r is not None, "unretimed period must be feasible"
    best_c = hi
    while lo < hi:
        mid = (lo + hi) // 2
        r = feas(graph, mid)
        if r is not None:
            best_c, best_r = mid, r
            hi = mid
        else:
            lo = mid + 1
    return best_c, best_r
