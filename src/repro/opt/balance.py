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
from itertools import chain
from typing import Dict, Iterator, Sequence, Tuple

from repro.netlist.cells import Cell, CellKind
from repro.netlist.circuit import Circuit, CircuitColumns
from repro.netlist.compiled import compile_circuit
from repro.opt.transform import every_net_is_port_or_driven
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
    levels: Sequence[int] | None = None,
) -> Tuple[Circuit, BalanceStats]:
    """Return a functionally identical circuit with balanced arrivals.

    Flipflops are preserved; their outputs count as time-zero sources
    (they switch at the clock edge like primary inputs) and their D
    inputs are not padded (a registered node ignores pre-edge skew).
    *levels*, where the caller has them, are
    ``compile_circuit(circuit, delay_model).levels``.

    Returns ``(balanced_circuit, stats)``.
    """
    delay_model = delay_model or UnitDelay()
    d_buf = _buffer_delay(delay_model)

    level = compile_circuit(circuit, delay_model).levels if levels is None else levels

    new = CircuitColumns(name or f"{circuit.name}_balanced", circuit)
    net_map = new.net_map
    kinds, inputs, outputs = (
        circuit.cell_kinds, circuit.cell_inputs, circuit.cell_outputs
    )
    new.inputs = new.copy_nets(circuit.inputs)
    new.copy_nets(chain.from_iterable(outputs))
    max_skew = 0
    cell_names, cells = circuit.cell_names, new.cells
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
                if skew % d_buf:
                    raise ValueError(
                        f"skew {skew} not a multiple of the buffer delay {d_buf}"
                    )
                new_inputs.append(
                    new.delayed(n, skew // d_buf, CellKind.BUF, "bal", d_buf)
                    if skew else net_map[n]
                )
        cells.extend((kind, new_inputs, [net_map[out] for out in outputs[ci]], cell_names[ci]))
    new.outputs = [net_map[out] for out in circuit.outputs]

    stats = BalanceStats(
        buffers_inserted=sum(len(c) - 1 for c in new.chains.values()),
        max_skew_padded=max_skew,
        original_cells=len(kinds),
    )
    return new.emit(), stats


def _input_skews(circuit: Circuit, level: Sequence[int]) -> Iterator[int]:
    """Each combinational multi-input cell's input-arrival skew, in order."""
    for kind, ins in zip(circuit.cell_kinds, circuit.cell_inputs):
        if kind is CellKind.DFF or len(ins) < 2:
            continue
        arrivals = [level[n] for n in ins]
        yield max(arrivals) - min(arrivals)


def balance_is_noop(
    circuit: Circuit,
    delay_model: DelayModel | None = None,
    levels: Sequence[int] | None = None,
) -> bool:
    """Whether :func:`balance_paths` would keep *circuit*'s fingerprint: no
    input skew and no dropped net.  Raises, as the pass does, on a buffer
    delay below 1 or a combinational cycle; *levels* as for the pass."""
    delay_model = delay_model or UnitDelay()
    _buffer_delay(delay_model)
    level = compile_circuit(circuit, delay_model).levels if levels is None else levels
    return every_net_is_port_or_driven(circuit) and not any(_input_skews(circuit, level))


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
    level = compile_circuit(circuit, delay_model).levels
    skews = list(_input_skews(circuit, level))
    if not skews:
        return {"cells": 0, "mean_skew": 0.0, "max_skew": 0, "skewed_fraction": 0.0}
    return {
        "cells": len(skews),
        "mean_skew": sum(skews) / len(skews),
        "max_skew": max(skews),
        "skewed_fraction": sum(1 for s in skews if s) / len(skews),
    }
