"""Netlist clean-up transforms.

These passes keep optimised variants honest in comparisons:

* :func:`dead_cell_elimination` — drop cells whose outputs reach no
  primary output or flipflop (their activity would otherwise inflate
  counts for free);
* :func:`propagate_constants` — fold CONST0/CONST1 through gates,
  shrinking e.g. carry-select blocks fed by constant carry-in;
* :func:`strip_buffers` — remove BUF cells (the inverse of
  :func:`repro.opt.balance.balance_paths`, used to recover the
  original netlist shape in tests).

All passes return a fresh circuit; the input is never mutated.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.netlist.cells import CellKind, evaluate_kind
from repro.netlist.circuit import Circuit


def _rebuild(
    circuit: Circuit,
    keep_cell,
    replace_input,
    name_suffix: str,
) -> Circuit:
    """Copy *circuit*, dropping cells and rewiring inputs via callbacks.

    ``keep_cell(cell) -> bool`` decides survival; ``replace_input(net)
    -> net`` redirects any consumer pin (applied transitively before
    the copy).
    """
    new = Circuit(f"{circuit.name}{name_suffix}")
    net_map: Dict[int, int] = {}
    for pi in circuit.inputs:
        net_map[pi] = new.add_input(circuit.net_name(pi))
    for cell in circuit.cells:
        if not keep_cell(cell):
            continue
        for out in cell.outputs:
            net_map[out] = new.new_net(circuit.net_name(out))

    def resolve(old_net: int) -> int:
        seen = set()
        while True:
            replacement = replace_input(old_net)
            if replacement == old_net or replacement in seen:
                break
            seen.add(replacement)
            old_net = replacement
        mapped = net_map.get(old_net)
        if mapped is None:
            # Undriven internal nets (legal: they read as constant 0)
            # are materialized on demand so consumers and outputs can
            # still reference them instead of crashing the rebuild.
            mapped = net_map[old_net] = new.new_net(
                circuit.net_name(old_net)
            )
        return mapped

    for cell in circuit.cells:
        if not keep_cell(cell):
            continue
        new.add_cell(
            cell.kind,
            [resolve(n) for n in cell.inputs],
            [net_map[out] for out in cell.outputs],
            name=cell.name,
            delay_hint=cell.delay_hint,
        )
    for out in circuit.outputs:
        new.mark_output(resolve(out))
    return new


def dead_cell_elimination(circuit: Circuit) -> Circuit:
    """Remove cells that cannot influence any output or flipflop."""
    live_nets = set(circuit.outputs)
    for cell in circuit.cells:
        if cell.is_sequential:
            live_nets.update(cell.inputs)
    # Walk backwards until fixpoint.
    live_cells: set[int] = set()
    frontier = list(live_nets)
    while frontier:
        net = frontier.pop()
        driver = circuit.nets[net].driver
        if driver is None:
            continue
        ci = driver[0]
        if ci in live_cells:
            continue
        live_cells.add(ci)
        for n in circuit.cells[ci].inputs:
            frontier.append(n)

    return _rebuild(
        circuit,
        keep_cell=lambda cell: cell.index in live_cells,
        replace_input=lambda net: net,
        name_suffix="_dce",
    )


def propagate_constants(circuit: Circuit) -> Circuit:
    """Fold constants through combinational logic.

    Rules applied (then dead cells are swept):

    * any cell with all-constant inputs becomes a CONST cell
      (single-output kinds) or two CONST cells (FA/HA);
    * n-ary AND with a constant-0 input / OR with a constant-1 input is
      forced to a constant;
    * ``FA(a, b, 0) -> HA(a, b)`` and
      ``FA(a, b, 1) -> (XNOR(a, b), OR(a, b))`` — the carry-select
      adder's pre-computed carry hypotheses simplify this way;
    * ``HA(a, 0) -> (BUF(a), 0)``, ``HA(a, 1) -> (NOT(a), BUF(a))``;
    * ``MUX2`` with a constant select becomes a BUF of the taken leg.
    """
    const_value: Dict[int, int] = {}
    for cell in circuit.cells:
        if cell.kind is CellKind.CONST0:
            const_value[cell.outputs[0]] = 0
        elif cell.kind is CellKind.CONST1:
            const_value[cell.outputs[0]] = 1

    # Pass 1: decide replacements on the original circuit.
    # replacement: cell index -> list of (kind, input nets, output nets)
    replacement: Dict[int, list] = {}
    for cell in circuit.topological_cells():
        if cell.kind in (CellKind.CONST0, CellKind.CONST1, CellKind.DFF):
            continue
        values: list[Optional[int]] = [const_value.get(n) for n in cell.inputs]
        if all(v is not None for v in values):
            outs = evaluate_kind(cell.kind, values)  # type: ignore[arg-type]
            replacement[cell.index] = [
                (
                    CellKind.CONST1 if bit else CellKind.CONST0,
                    [],
                    [out_net],
                )
                for bit, out_net in zip(outs, cell.outputs)
            ]
            for bit, out_net in zip(outs, cell.outputs):
                const_value[out_net] = bit
            continue
        kind = cell.kind
        if kind is CellKind.AND and any(v == 0 for v in values):
            replacement[cell.index] = [(CellKind.CONST0, [], [cell.outputs[0]])]
            const_value[cell.outputs[0]] = 0
        elif kind is CellKind.OR and any(v == 1 for v in values):
            replacement[cell.index] = [(CellKind.CONST1, [], [cell.outputs[0]])]
            const_value[cell.outputs[0]] = 1
        elif kind is CellKind.FA and sum(v is not None for v in values) == 1:
            free = [n for n, v in zip(cell.inputs, values) if v is None]
            fixed = next(v for v in values if v is not None)
            s_net, c_net = cell.outputs
            if fixed == 0:
                replacement[cell.index] = [
                    (CellKind.HA, free, [s_net, c_net])
                ]
            else:
                replacement[cell.index] = [
                    (CellKind.XNOR, free, [s_net]),
                    (CellKind.OR, free, [c_net]),
                ]
        elif kind is CellKind.HA and sum(v is not None for v in values) == 1:
            free = next(n for n, v in zip(cell.inputs, values) if v is None)
            fixed = next(v for v in values if v is not None)
            s_net, c_net = cell.outputs
            if fixed == 0:
                replacement[cell.index] = [
                    (CellKind.BUF, [free], [s_net]),
                    (CellKind.CONST0, [], [c_net]),
                ]
                const_value[c_net] = 0
            else:
                replacement[cell.index] = [
                    (CellKind.NOT, [free], [s_net]),
                    (CellKind.BUF, [free], [c_net]),
                ]
        elif kind is CellKind.MUX2 and values[0] is not None:
            taken = cell.inputs[2] if values[0] else cell.inputs[1]
            replacement[cell.index] = [
                (CellKind.BUF, [taken], [cell.outputs[0]])
            ]

    # Pass 2: rebuild.
    new = Circuit(f"{circuit.name}_cp")
    net_map: Dict[int, int] = {}
    for pi in circuit.inputs:
        net_map[pi] = new.add_input(circuit.net_name(pi))
    for cell in circuit.cells:
        for out in cell.outputs:
            net_map[out] = new.new_net(circuit.net_name(out))
    for net in circuit.nets:
        # Undriven internal nets (constant-0 reads) survive the copy.
        if net.index not in net_map:
            net_map[net.index] = new.new_net(net.name)
    for cell in circuit.cells:
        pieces = replacement.get(cell.index)
        if pieces is None:
            new.add_cell(
                cell.kind,
                [net_map[n] for n in cell.inputs],
                [net_map[out] for out in cell.outputs],
                name=cell.name,
                delay_hint=cell.delay_hint,
            )
            continue
        for k, (kind, ins, outs) in enumerate(pieces):
            new.add_cell(
                kind,
                [net_map[n] for n in ins],
                [net_map[out] for out in outs],
                name=cell.name if len(pieces) == 1 else f"{cell.name}__{k}",
            )
    for out in circuit.outputs:
        new.mark_output(net_map[out])
    return dead_cell_elimination(new)


def strip_buffers(circuit: Circuit) -> Circuit:
    """Remove every BUF cell, rewiring consumers to the buffer input."""
    forward: Dict[int, int] = {}
    for cell in circuit.cells:
        if cell.kind is CellKind.BUF:
            forward[cell.outputs[0]] = cell.inputs[0]

    return _rebuild(
        circuit,
        keep_cell=lambda cell: cell.kind is not CellKind.BUF,
        replace_input=lambda net: forward.get(net, net),
        name_suffix="_nobuf",
    )
