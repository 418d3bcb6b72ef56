"""Delay-path balancing by buffer insertion.

For every combinational cell, all input pins are padded with unit-delay
buffer chains so they share the latest arrival time among the cell's
inputs.  By induction over topological order every net then makes at
most one transition per clock cycle (primary inputs and flipflop
outputs switch once at cycle start, and a cell whose inputs all switch
at one instant evaluates exactly once), so *all* useless transitions
disappear — the idealised limit the paper's Section 4.2 reduction bound
``1 + L/F`` describes.

The price is buffer cells: their area and their (useful) switching
power partially offset the glitch savings, which is exactly the
trade-off the balancing-vs-retiming ablation benchmark measures.

Only unit-buffer delay models are supported (the buffer must have a
known integer delay to realise a given skew); the pass asks the delay
model for the buffer delay and raises if it cannot pad exact skews.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

from repro.netlist.cells import Cell, CellKind
from repro.netlist.circuit import Circuit
from repro.sim.delays import DelayModel, UnitDelay


@dataclass(frozen=True)
class BalanceStats:
    """Outcome summary of :func:`balance_paths`."""

    buffers_inserted: int
    max_skew_padded: int
    original_cells: int

    @property
    def overhead_ratio(self) -> float:
        """Buffers added per original cell."""
        if self.original_cells == 0:
            return 0.0
        return self.buffers_inserted / self.original_cells


def _buffer_delay(delay_model: DelayModel) -> int:
    probe = Cell("probe", CellKind.BUF, (0,), (1,))
    d = delay_model.delay(probe, 0)
    if d < 1:
        raise ValueError(
            "balance_paths needs buffers with delay >= 1 "
            f"(delay model gives {d})"
        )
    return d


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

    level = circuit.levelize(
        lambda cell, pos: delay_model.delay(cell, pos)
    )

    new = Circuit(name or f"{circuit.name}_balanced")
    net_map: Dict[int, int] = {}
    for pi in circuit.inputs:
        net_map[pi] = new.add_input(circuit.net_name(pi))
    for cell in circuit.cells:
        for out in cell.outputs:
            net_map[out] = new.new_net(circuit.net_name(out))

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
            src_name = circuit.net_name(old_net)
            src_name = src_name.replace("[", "_").replace("]", "")
            chains[key] = new.gate(
                CellKind.BUF, prev, name=f"bal_{src_name}_{skew}"
            )
            buffers += 1
        return chains[key]

    for cell in circuit.cells:
        if cell.is_sequential:
            new.add_cell(
                cell.kind,
                [net_map[n] for n in cell.inputs],
                [net_map[out] for out in cell.outputs],
                name=cell.name,
                delay_hint=cell.delay_hint,
            )
            continue
        arrivals = [level.get(n, 0) for n in cell.inputs]
        latest = max(arrivals, default=0)
        new_inputs = []
        for n, at in zip(cell.inputs, arrivals):
            skew = latest - at
            max_skew = max(max_skew, skew)
            new_inputs.append(delayed(n, skew))
        new.add_cell(
            cell.kind,
            new_inputs,
            [net_map[out] for out in cell.outputs],
            name=cell.name,
            delay_hint=cell.delay_hint,
        )

    for out in circuit.outputs:
        new.mark_output(net_map[out])

    stats = BalanceStats(
        buffers_inserted=buffers,
        max_skew_padded=max_skew,
        original_cells=len(circuit.cells),
    )
    return new, stats


def balancing_report(
    circuit: Circuit, delay_model: DelayModel | None = None
) -> Dict[str, float]:
    """Static skew profile of *circuit* (how unbalanced is it?).

    Reports the mean and maximum input-arrival skew over all
    combinational cells — the structural quantity that predicts glitch
    activity (paper Section 4: "decreasing the number of unbalanced
    delay paths ... significantly reduces the number of useless
    transitions").
    """
    delay_model = delay_model or UnitDelay()
    level = circuit.levelize(
        lambda cell, pos: delay_model.delay(cell, pos)
    )
    skews = []
    for cell in circuit.cells:
        if cell.is_sequential or len(cell.inputs) < 2:
            continue
        arrivals = [level.get(n, 0) for n in cell.inputs]
        skews.append(max(arrivals) - min(arrivals))
    if not skews:
        return {"cells": 0, "mean_skew": 0.0, "max_skew": 0, "skewed_fraction": 0.0}
    return {
        "cells": len(skews),
        "mean_skew": sum(skews) / len(skews),
        "max_skew": max(skews),
        "skewed_fraction": sum(1 for s in skews if s) / len(skews),
    }
