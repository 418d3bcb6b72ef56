"""Rebuild a netlist from a retiming assignment.

Given the retiming graph of a circuit and a legal retiming ``r``, the
rebuilt circuit places ``w_r(e)`` flipflops on every connection.
Flipflops are shared: connections driven by the same net tap a single
DFF chain at their respective depths, so a net fanning out to several
consumers never duplicates registers (this mirrors what retiming tools
emit and keeps the Table 3 flipflop counts honest).

Initial states are all-zero; for the paper's experiments (random-input
power measurement after a warm-up) initial-state equivalence is
irrelevant, only steady-state functional equivalence matters — which
holds by the Leiserson–Saxe correctness theorem and is verified by the
integration tests (pipelined output == combinational output delayed by
the added stages).
"""

from __future__ import annotations

from typing import Dict, Mapping, Tuple

from repro.netlist.circuit import Circuit
from repro.retime.graph import HOST_OUT, RetimingGraph


def apply_retiming(
    graph: RetimingGraph,
    r: Mapping[int, int],
    name: str | None = None,
) -> Circuit:
    """Construct the retimed circuit for assignment *r*.

    Raises ``ValueError`` if *r* is illegal (negative retimed weight).
    The new circuit preserves primary-input names, combinational cell
    names and output order; inserted flipflops are named
    ``rt_<source-net>_<depth>``.
    """
    old = graph.circuit
    if not graph.is_legal(dict(r)):
        raise ValueError("illegal retiming (negative edge weight or host lag)")
    new = Circuit(name or f"{old.name}_retimed")

    # Primary inputs, preserving names and order.
    net_map: Dict[int, int] = {}
    for pi in old.inputs:
        net_map[pi] = new.add_input(old.net_name(pi))

    # Fresh output nets for every combinational cell, preserving names.
    for ci in graph.vertices:
        cell = old.cells[ci]
        for out in cell.outputs:
            net_map[out] = new.new_net(old.net_name(out))

    # Shared DFF chains per source net.
    chains: Dict[Tuple[int, int], int] = {}

    def registered(src_net: int, depth: int) -> int:
        """New net carrying *src_net* delayed by *depth* flipflops."""
        if depth == 0:
            return net_map[src_net]
        key = (src_net, depth)
        if key not in chains:
            prev = registered(src_net, depth - 1)
            src_name = old.net_name(src_net).replace("[", "_").replace("]", "")
            chains[key] = new.add_dff(prev, name=f"rt_{src_name}_{depth}")
        return chains[key]

    conn_map = graph.connection_map()

    # Combinational cells in a dependency-safe order is not required
    # (nets pre-exist), so original order keeps names stable.
    for ci in graph.vertices:
        cell = old.cells[ci]
        new_inputs = []
        for pin in range(len(cell.inputs)):
            conn = conn_map[(ci, pin)]
            w = graph.retimed_weight(conn, r)
            new_inputs.append(registered(conn.src_net, w))
        new.add_cell(
            cell.kind,
            new_inputs,
            [net_map[out] for out in cell.outputs],
            name=cell.name,
            delay_hint=cell.delay_hint,
        )

    # Primary outputs, preserving order.
    for slot in range(len(old.outputs)):
        conn = conn_map[(HOST_OUT, slot)]
        w = graph.retimed_weight(conn, r)
        new.mark_output(registered(conn.src_net, w))
    return new
