"""Per-cell rebuilders — the oracle for the column-emitting versions.

These are the rebuilding transforms as they stood before they wrote
through :class:`~repro.netlist.circuit.CircuitColumns`: every net and
cell goes in through one ``new_net`` / ``add_input`` / ``_add_cell`` /
``mark_output`` call, and ``apply_retiming`` looks up each pin's edge in
a ``(slot, pin)`` dict.  ``tests/test_rebuild_oracle.py`` asserts the
production transforms build exactly the circuits these do: the same
flat lists, ports and fingerprints.

Do not optimise this module; its value is that it stays obvious.
"""

from __future__ import annotations

from typing import Dict, Mapping, Optional, Tuple

from repro.netlist.cells import CellKind, evaluate_kind
from repro.netlist.circuit import Circuit
from repro.netlist.compiled import compile_circuit
from repro.opt.balance import BalanceStats, _buffer_delay
from repro.retime.graph import HOST_OUT_SLOT, RetimingGraph
from repro.sim.delays import DelayModel, UnitDelay


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
    cell_names = old.cell_names
    for ci in graph.vertices:
        s = graph.slot[ci]
        new_inputs = [
            registered(*taps[(s, pin)]) for pin in range(len(inputs[ci]))
        ]
        new._add_cell(kinds[ci], new_inputs, [net_map[out] for out in outputs[ci]],
                      cell_names[ci])

    # Primary outputs, preserving order.
    for slot in range(len(old.outputs)):
        new.mark_output(registered(*taps[(HOST_OUT_SLOT, slot)]))
    return new


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
    new = Circuit(f"{circuit.name}{name_suffix}")
    names = circuit.net_names
    kept = [ci for ci in range(len(circuit.cell_kinds)) if keep_cell(ci)]
    net_map: Dict[int, int] = {}
    for pi in circuit.inputs:
        net_map[pi] = new.add_input(names[pi])
    outputs = circuit.cell_outputs
    for ci in kept:
        for out in outputs[ci]:
            net_map[out] = new.new_net(names[out])

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
            mapped = net_map[old_net] = new.new_net(names[old_net])
        return mapped

    kinds, inputs = circuit.cell_kinds, circuit.cell_inputs
    cell_names = circuit.cell_names
    for ci in kept:
        new._add_cell(kinds[ci], [resolve(n) for n in inputs[ci]],
                      [net_map[out] for out in outputs[ci]], cell_names[ci])
    for out in circuit.outputs:
        new.mark_output(resolve(out))
    return new


def dead_cell_elimination(circuit: Circuit) -> Circuit:
    """Remove cells that cannot influence any output or flipflop."""
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

    return _rebuild(
        circuit,
        keep_cell=live_cells.__contains__,
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
    new = Circuit(f"{circuit.name}_cp")
    names = circuit.net_names
    net_map: Dict[int, int] = {}
    for pi in circuit.inputs:
        net_map[pi] = new.add_input(names[pi])
    for outs in outputs:
        for out in outs:
            net_map[out] = new.new_net(names[out])
    for net, name in enumerate(names):
        # Undriven internal nets (constant-0 reads) survive the copy.
        if net not in net_map:
            net_map[net] = new.new_net(name)
    cell_names = circuit.cell_names
    for ci, kind in enumerate(kinds):
        pieces = replacement.get(ci)
        if pieces is None:
            new._add_cell(kind, [net_map[n] for n in inputs[ci]],
                          [net_map[out] for out in outputs[ci]], cell_names[ci])
            continue
        name = cell_names[ci]
        for k, (piece_kind, ins, outs) in enumerate(pieces):
            new._add_cell(piece_kind, [net_map[n] for n in ins], [net_map[out] for out in outs],
                          name if len(pieces) == 1 else f"{name}__{k}")
    for out in circuit.outputs:
        new.mark_output(net_map[out])
    return dead_cell_elimination(new)


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


def balance_paths(
    circuit: Circuit,
    delay_model: DelayModel | None = None,
    name: str | None = None,
) -> Tuple[Circuit, BalanceStats]:
    """Return a functionally identical circuit with balanced arrivals.

    Flipflops are preserved; their outputs count as time-zero sources
    (they switch at the clock edge like primary inputs) and their D
    inputs are not padded (a registered node ignores pre-edge skew).

    Returns ``(balanced_circuit, stats)``.
    """
    delay_model = delay_model or UnitDelay()
    d_buf = _buffer_delay(delay_model)

    level = compile_circuit(circuit, delay_model).levels

    new = Circuit(name or f"{circuit.name}_balanced")
    names = circuit.net_names
    kinds, inputs, outputs = (
        circuit.cell_kinds, circuit.cell_inputs, circuit.cell_outputs
    )
    net_map: Dict[int, int] = {}
    for pi in circuit.inputs:
        net_map[pi] = new.add_input(names[pi])
    for outs in outputs:
        for out in outs:
            net_map[out] = new.new_net(names[out])

    chains: Dict[Tuple[int, int], int] = {}
    buffers = 0
    max_skew = 0

    def delayed(old_net: int, skew: int) -> int:
        """New net carrying *old_net* delayed by *skew* time units."""
        nonlocal buffers
        if skew == 0:
            return net_map[old_net]
        if skew % d_buf:
            raise ValueError(
                f"skew {skew} not a multiple of the buffer delay {d_buf}"
            )
        key = (old_net, skew)
        if key not in chains:
            prev = delayed(old_net, skew - d_buf)
            src_name = names[old_net].replace("[", "_").replace("]", "")
            chains[key] = new.gate(
                CellKind.BUF, prev, name=f"bal_{src_name}_{skew}"
            )
            buffers += 1
        return chains[key]

    cell_names = circuit.cell_names
    for ci, kind in enumerate(kinds):
        ins = inputs[ci]
        if kind is CellKind.DFF:
            new_inputs = [net_map[n] for n in ins]
        else:
            arrivals = [level[n] for n in ins]
            latest = max(arrivals, default=0)
            new_inputs = []
            for n, at in zip(ins, arrivals):
                skew = latest - at
                max_skew = max(max_skew, skew)
                new_inputs.append(delayed(n, skew))
        new._add_cell(kind, new_inputs, [net_map[out] for out in outputs[ci]],
                      cell_names[ci])

    for out in circuit.outputs:
        new.mark_output(net_map[out])

    stats = BalanceStats(
        buffers_inserted=buffers,
        max_skew_padded=max_skew,
        original_cells=len(kinds),
    )
    return new, stats
