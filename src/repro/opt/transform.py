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

from itertools import chain
from typing import Dict, Optional

from repro.netlist.cells import CellKind, evaluate_kind
from repro.netlist.circuit import Circuit, CircuitColumns
from repro.netlist.compiled import compile_circuit


def _rebuild(
    circuit: Circuit,
    keep_cell,
    replace_input,
    name_suffix: str,
) -> Circuit:
    """Copy *circuit*, dropping cells and rewiring inputs via callbacks.

    ``keep_cell(cell_index) -> bool`` decides survival;
    ``replace_input(net) -> net`` redirects any consumer pin (applied
    transitively before the copy).
    """
    new = CircuitColumns(f"{circuit.name}{name_suffix}", circuit)
    kept = [ci for ci in range(len(circuit.cell_kinds)) if keep_cell(ci)]
    outputs, net_map = circuit.cell_outputs, new.net_map
    new.inputs = new.copy_nets(circuit.inputs)
    new.copy_nets(out for ci in kept for out in outputs[ci])

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
            mapped = new.copy_nets((old_net,))[0]
        return mapped

    kinds, inputs, cell_names = circuit.cell_kinds, circuit.cell_inputs, circuit.cell_names
    for ci in kept:
        new.cells.extend((kinds[ci], [resolve(n) for n in inputs[ci]],
                          [net_map[out] for out in outputs[ci]], cell_names[ci]))
    new.outputs = [resolve(out) for out in circuit.outputs]
    return new.emit()


def _live_cells(circuit: Circuit) -> set[int]:
    """The cells whose outputs reach a primary output or a flipflop."""
    live_nets = set(circuit.outputs)
    for kind, ins in zip(circuit.cell_kinds, circuit.cell_inputs):
        if kind is CellKind.DFF:
            live_nets.update(ins)
    # Walk backwards until fixpoint.
    driver, inputs = circuit.net_driver, circuit.cell_inputs
    live_cells: set[int] = set()
    frontier = list(live_nets)
    while frontier:
        ci = driver[frontier.pop()]
        if ci < 0 or ci in live_cells:
            continue
        live_cells.add(ci)
        frontier.extend(inputs[ci])
    return live_cells


def every_net_is_port_or_driven(circuit: Circuit) -> bool:
    """Whether each net is a primary input or a cell output, once: then a
    rebuild copying those drops no net and names none twice."""
    undriven = [n for n, ci in enumerate(circuit.net_driver) if ci < 0]
    return sorted(circuit.inputs) == undriven


def dead_cell_elimination(circuit: Circuit) -> Circuit:
    """Remove cells that cannot influence any output or flipflop."""
    return _rebuild(
        circuit,
        keep_cell=_live_cells(circuit).__contains__,
        replace_input=lambda net: net,
        name_suffix="_dce",
    )


def cleanup_is_noop(circuit: Circuit) -> bool:
    """Whether :func:`propagate_constants` would keep *circuit*'s fingerprint:
    no CONST cell, dead cell or dropped net.  Raises, as the pass does,
    on a combinational cycle."""
    compile_circuit(circuit)
    kinds = circuit.cell_kinds
    return (
        CellKind.CONST0 not in kinds and CellKind.CONST1 not in kinds
        and every_net_is_port_or_driven(circuit)
        and len(_live_cells(circuit)) == len(kinds)
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
    kinds, inputs, outputs = (
        circuit.cell_kinds, circuit.cell_inputs, circuit.cell_outputs
    )
    const_value: Dict[int, int] = {}
    for kind, outs in zip(kinds, outputs):
        if kind is CellKind.CONST0:
            const_value[outs[0]] = 0
        elif kind is CellKind.CONST1:
            const_value[outs[0]] = 1

    # Pass 1: decide replacements on the original circuit.
    # replacement: cell index -> list of (kind, input nets, output nets)
    replacement: Dict[int, list] = {}
    for ci in compile_circuit(circuit).topo:
        kind, cell_ins, cell_outs = kinds[ci], inputs[ci], outputs[ci]
        if kind in (CellKind.CONST0, CellKind.CONST1):
            continue
        values: list[Optional[int]] = [const_value.get(n) for n in cell_ins]
        if all(v is not None for v in values):
            outs = evaluate_kind(kind, values)  # type: ignore[arg-type]
            replacement[ci] = [
                (
                    CellKind.CONST1 if bit else CellKind.CONST0,
                    [],
                    [out_net],
                )
                for bit, out_net in zip(outs, cell_outs)
            ]
            for bit, out_net in zip(outs, cell_outs):
                const_value[out_net] = bit
            continue
        if kind is CellKind.AND and any(v == 0 for v in values):
            replacement[ci] = [(CellKind.CONST0, [], [cell_outs[0]])]
            const_value[cell_outs[0]] = 0
        elif kind is CellKind.OR and any(v == 1 for v in values):
            replacement[ci] = [(CellKind.CONST1, [], [cell_outs[0]])]
            const_value[cell_outs[0]] = 1
        elif kind is CellKind.FA and sum(v is not None for v in values) == 1:
            free = [n for n, v in zip(cell_ins, values) if v is None]
            fixed = next(v for v in values if v is not None)
            s_net, c_net = cell_outs
            if fixed == 0:
                replacement[ci] = [
                    (CellKind.HA, free, [s_net, c_net])
                ]
            else:
                replacement[ci] = [
                    (CellKind.XNOR, free, [s_net]),
                    (CellKind.OR, free, [c_net]),
                ]
        elif kind is CellKind.HA and sum(v is not None for v in values) == 1:
            free = next(n for n, v in zip(cell_ins, values) if v is None)
            fixed = next(v for v in values if v is not None)
            s_net, c_net = cell_outs
            if fixed == 0:
                replacement[ci] = [
                    (CellKind.BUF, [free], [s_net]),
                    (CellKind.CONST0, [], [c_net]),
                ]
                const_value[c_net] = 0
            else:
                replacement[ci] = [
                    (CellKind.NOT, [free], [s_net]),
                    (CellKind.BUF, [free], [c_net]),
                ]
        elif kind is CellKind.MUX2 and values[0] is not None:
            taken = cell_ins[2] if values[0] else cell_ins[1]
            replacement[ci] = [
                (CellKind.BUF, [taken], [cell_outs[0]])
            ]

    # Pass 2: rebuild.
    new = CircuitColumns(f"{circuit.name}_cp", circuit)
    net_map = new.net_map
    new.inputs = new.copy_nets(circuit.inputs)
    new.copy_nets(chain.from_iterable(outputs))
    # Undriven internal nets (constant-0 reads) survive the copy.
    new.copy_nets(n for n in range(len(circuit.net_names)) if n not in net_map)
    cell_names, cells = circuit.cell_names, new.cells
    for ci, kind in enumerate(kinds):
        pieces = replacement.get(ci)
        if pieces is None:
            cells.extend((kind, [net_map[n] for n in inputs[ci]],
                          [net_map[out] for out in outputs[ci]], cell_names[ci]))
            continue
        name = cell_names[ci]
        for k, (piece_kind, ins, outs) in enumerate(pieces):
            cells.extend((piece_kind, [net_map[n] for n in ins], [net_map[out] for out in outs],
                          name if len(pieces) == 1 else f"{name}__{k}"))
    new.outputs = [net_map[out] for out in circuit.outputs]
    return dead_cell_elimination(new.emit())


def strip_buffers(circuit: Circuit) -> Circuit:
    """Remove every BUF cell, rewiring consumers to the buffer input."""
    kinds = circuit.cell_kinds
    forward: Dict[int, int] = {}
    for kind, ins, outs in zip(kinds, circuit.cell_inputs, circuit.cell_outputs):
        if kind is CellKind.BUF:
            forward[outs[0]] = ins[0]

    return _rebuild(
        circuit,
        keep_cell=lambda ci: kinds[ci] is not CellKind.BUF,
        replace_input=lambda net: forward.get(net, net),
        name_suffix="_nobuf",
    )
