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

from itertools import islice
from typing import Mapping

from repro.netlist.cells import CellKind
from repro.netlist.circuit import Circuit, CircuitColumns
from repro.retime.graph import RetimingGraph


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
    weights = graph.legal_weights(r)
    if weights is None:
        raise ValueError("illegal retiming (negative edge weight or host lag)")
    new = CircuitColumns(name or f"{old.name}_retimed", old)
    outputs, net_map, DFF = old.cell_outputs, new.net_map, CellKind.DFF
    # Primary inputs, then every combinational cell's outputs, by name.
    new.inputs = new.copy_nets(old.inputs)
    new.copy_nets(out for ci in graph.vertices for out in outputs[ci])

    # The edges run in (vertex, pin) order, then the primary outputs':
    # each cell, in original order, takes the next one per input pin.
    taps = zip(graph.src_net, weights)
    kinds, inputs, cell_names = old.cell_kinds, old.cell_inputs, old.cell_names
    for ci in graph.vertices:
        new_inputs = [
            new.delayed(net, w, DFF, "rt") if w else net_map[net]
            for net, w in islice(taps, len(inputs[ci]))
        ]
        new.cells.extend((kinds[ci], new_inputs, [net_map[out] for out in outputs[ci]],
                          cell_names[ci]))
    new.outputs = [new.delayed(net, w, DFF, "rt") if w else net_map[net] for net, w in taps]
    return new.emit()
