"""Dict-walking Leiserson–Saxe FEAS — the oracle for the array version.

This is the original implementation :mod:`repro.retime.leiserson_saxe`
was lowered from.  It works on a graph's vertex-id view
(:class:`DictGraph`: ``vertices``, ``delay`` and one
:class:`Connection` record per edge, read from a
:class:`~repro.retime.graph.RetimingGraph`'s arrays by
:func:`dict_graph`) with lag dicts keyed by cell index plus ``HOST`` /
``HOST_OUT``, and rebuilds its adjacency per arrival pass, so it is
slow but easy to check by eye.  The property suite in
``tests/test_retime_ls.py`` asserts the production functions return
exactly what these do.

Do not optimise this module; its value is that it stays obvious.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Mapping, NamedTuple, Optional, Tuple

from repro.retime.graph import HOST, HOST_OUT, RetimingGraph


@dataclass(frozen=True)
class Connection:
    """One edge instance of the retiming graph.

    ``src``/``dst`` are vertices (combinational cell indices,
    ``HOST`` or ``HOST_OUT``); ``src_net`` is the net that carries the
    signal at the source side; ``dst_pin`` is the input-pin position on
    the destination cell, or the primary-output index at ``HOST_OUT``;
    ``weight`` counts the D-flipflops collapsed from the original path.
    """

    src: int
    src_net: int
    dst: int
    dst_pin: int
    weight: int


class DictGraph(NamedTuple):
    """A retiming graph's vertex-id view."""

    vertices: List[int]
    delay: Dict[int, int]
    connections: List[Connection]


def dict_graph(graph: RetimingGraph) -> DictGraph:
    """The vertex-id view of *graph*, one record per edge of its arrays."""
    by_slot = [HOST, HOST_OUT] + list(graph.vertices)
    return DictGraph(graph.vertices, graph.delay, [
        Connection(by_slot[s], net, by_slot[d], pin, w)
        for s, net, d, pin, w in zip(
            graph.src, graph.src_net, graph.dst, graph.dst_pin, graph.weight
        )
    ])


def with_output_stages(graph: RetimingGraph, stages: int) -> DictGraph:
    """*graph*'s view with *stages* more registers on every edge into
    the host, built from rewritten connection records."""
    view = dict_graph(graph)
    return view._replace(connections=[
        replace(c, weight=c.weight + stages) if c.dst == HOST_OUT else c
        for c in view.connections
    ])


def retimed_weight(conn: Connection, r: Mapping[int, int]) -> int:
    """``w_r(e) = w(e) + r(dst) - r(src)`` for one connection."""
    return conn.weight + r.get(conn.dst, 0) - r.get(conn.src, 0)


def is_legal(graph: DictGraph, r: Mapping[int, int]) -> bool:
    """True iff host lags are 0 and every retimed weight is non-negative."""
    if r.get(HOST, 0) != 0 or r.get(HOST_OUT, 0) != 0:
        return False
    return all(retimed_weight(c, r) >= 0 for c in graph.connections)


def count_flipflops(graph: DictGraph, r: Mapping[int, int]) -> int:
    """Flipflops after retiming *r*, one shared chain per source net."""
    depth_by_net: Dict[int, int] = {}
    for c in graph.connections:
        w = retimed_weight(c, r)
        if w < 0:
            raise ValueError("illegal retiming: negative edge weight")
        depth_by_net[c.src_net] = max(depth_by_net.get(c.src_net, 0), w)
    return sum(depth_by_net.values())


def arrival_times(
    graph: DictGraph, r: Dict[int, int]
) -> Optional[Dict[int, int]]:
    """Longest-path arrival per vertex over zero-weight retimed edges.

    Returns ``None`` when a retimed weight is negative or the
    zero-weight subgraph has a cycle.
    """
    vertices = [HOST, HOST_OUT] + list(graph.vertices)
    zero_in: Dict[int, list[int]] = {v: [] for v in vertices}
    out_edges: Dict[int, list[int]] = {v: [] for v in vertices}
    indeg: Dict[int, int] = {v: 0 for v in vertices}
    for conn in graph.connections:
        w = retimed_weight(conn, r)
        if w < 0:
            return None
        if w == 0 and conn.src != conn.dst:
            zero_in[conn.dst].append(conn.src)
            out_edges[conn.src].append(conn.dst)
            indeg[conn.dst] += 1
        elif w == 0 and conn.src == conn.dst:
            return None  # zero-weight self loop
    arrival: Dict[int, int] = {}
    ready = [v for v in vertices if indeg[v] == 0]
    order: list[int] = []
    while ready:
        v = ready.pop()
        order.append(v)
        for succ in out_edges[v]:
            indeg[succ] -= 1
            if indeg[succ] == 0:
                ready.append(succ)
    if len(order) != len(vertices):
        return None  # zero-weight cycle
    for v in order:
        base = max((arrival[u] for u in zero_in[v]), default=0)
        arrival[v] = base + graph.delay[v]
    return arrival


def feas(graph: DictGraph, period: int) -> Optional[Dict[int, int]]:
    """A legal retiming achieving *period*, or ``None``."""
    if period < max(graph.delay.values(), default=0):
        return None
    r: Dict[int, int] = {v: 0 for v in graph.vertices}
    r[HOST] = 0
    r[HOST_OUT] = 0
    for _ in range(max(len(graph.vertices) - 1, 0)):
        arrival = arrival_times(graph, r)
        if arrival is None:
            return None
        changed = False
        for v in graph.vertices:
            if arrival[v] > period:
                r[v] += 1
                changed = True
        if not changed:
            break
    arrival = arrival_times(graph, r)
    if arrival is None or max(arrival.values()) > period:
        return None
    if not is_legal(graph, r):
        return None
    return r


def unretimed_period(graph: DictGraph) -> Optional[int]:
    """Critical path of the unretimed graph (``None``: register-free loop)."""
    arrival = arrival_times(graph, {v: 0 for v in graph.vertices})
    return None if arrival is None else max(arrival.values())


def minimum_period(graph: DictGraph) -> Tuple[int, Dict[int, int]]:
    """Binary-search the smallest achievable period; returns ``(c, r)``."""
    hi = unretimed_period(graph)
    if hi is None:
        raise ValueError("circuit has a register-free cycle; no legal period")
    lo = max(graph.delay.values(), default=0)
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
