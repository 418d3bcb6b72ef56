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
from repro.retime.graph import HOST_OUT_SLOT, RetimingGraph


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
    if not graph.is_legal(r):
        raise ValueError("illegal retiming (negative edge weight or host lag)")
    new = Circuit(name or f"{old.name}_retimed")

    # Primary inputs, preserving names and order.
    names = old.net_names
    net_map: Dict[int, int] = {}
    for pi in old.inputs:
        net_map[pi] = new.add_input(names[pi])

    # Fresh output nets for every combinational cell, preserving names.
    outputs = old.cell_outputs
    for ci in graph.vertices:
        for out in outputs[ci]:
            net_map[out] = new.new_net(names[out])

    # Shared DFF chains per source net.
    chains: Dict[Tuple[int, int], int] = {}

    def registered(src_net: int, depth: int) -> int:
        """New net carrying *src_net* delayed by *depth* flipflops."""
        if depth == 0:
            return net_map[src_net]
        key = (src_net, depth)
        if key not in chains:
            prev = registered(src_net, depth - 1)
            src_name = names[src_net].replace("[", "_").replace("]", "")
            chains[key] = new.add_dff(prev, name=f"rt_{src_name}_{depth}")
        return chains[key]

    # (destination slot, pin) -> (source net, retimed weight).
    taps = {
        (d, pin): (net, w)
        for d, pin, net, w in zip(
            graph.dst, graph.dst_pin, graph.src_net,
            graph.retimed_weights(graph.lags(r)),
        )
    }

    # Combinational cells in a dependency-safe order is not required
    # (nets pre-exist), so original order keeps names stable.
    kinds, inputs = old.cell_kinds, old.cell_inputs
    cell_names, hints = old.cell_names, old.cell_hints
    for ci in graph.vertices:
        s = graph.slot[ci]
        new_inputs = [
            registered(*taps[(s, pin)]) for pin in range(len(inputs[ci]))
        ]
        new._add_cell(kinds[ci], new_inputs, [net_map[out] for out in outputs[ci]],
                      cell_names[ci], hints[ci])

    # Primary outputs, preserving order.
    for slot in range(len(old.outputs)):
        new.mark_output(registered(*taps[(HOST_OUT_SLOT, slot)]))
    return new
