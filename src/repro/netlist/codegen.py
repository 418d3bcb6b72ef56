"""Levelization of the compiled IR: structural levels, vector groups, windows.

The numpy tier (:mod:`repro.sim.vector`) evaluates every cell of one
structural level and one kind as a single array operation.  This
module derives those batches from the compiled circuit's cached
topological order: :func:`levelize_cells` assigns each cell its
unit-depth level, and :func:`level_groups` buckets the topo order into
``(level, kind, arity, delays)`` groups whose members can be evaluated
together.  :func:`arrival_windows` records when each net can change
within a cycle; the two glitch-exact batch engines (lanes and vector)
take their per-cycle time axis from it (:func:`static_event_horizon`).
:func:`arrival_levels` gives each net's latest arrival, which the
critical path and path balancing read.

Everything here is pure Python — numpy is only touched by the vector
backend that consumes :func:`level_groups`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from repro.netlist.cells import CellKind
from repro.obs import trace as obs

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.netlist.compiled import CompiledCircuit


def levelize_cells(cc: "CompiledCircuit") -> List[int]:
    """Unit-depth level per cell (primary inputs and ff outputs at 0).

    Structural depth only — independent of the delay model; used to
    batch cells whose inputs are all ready into one vectorized op.
    """
    net_level = [0] * cc.n_nets
    cell_level = [0] * len(cc.cell_kinds)
    for ci in cc.topo:
        lvl = 0
        for n in cc.cell_inputs[ci]:
            if net_level[n] > lvl:
                lvl = net_level[n]
        cell_level[ci] = lvl
        for out in cc.cell_outputs[ci]:
            if lvl + 1 > net_level[out]:
                net_level[out] = lvl + 1
    return cell_level


@dataclass(frozen=True)
class CellGroup:
    """Cells sharing (level, kind, arity, per-output delays).

    ``pins[i]`` is the tuple of input nets on pin *i*, one entry per
    member cell; ``outs[k]`` is ``(delay, out_nets)`` for output
    position *k* (*delay* is ``None`` when compiled without a delay
    model).  All members are evaluable as one array operation once
    every earlier level has been applied.
    """

    level: int
    kind: CellKind
    pins: Tuple[Tuple[int, ...], ...]
    outs: Tuple[Tuple[Optional[int], Tuple[int, ...]], ...]


def level_groups(cc: "CompiledCircuit") -> Tuple[CellGroup, ...]:
    """Bucket the topo order into vectorizable :class:`CellGroup`\\ s."""
    with obs.span("codegen.levelize", circuit=cc.name, cells=len(cc.cell_kinds)):
        return _level_groups(cc)


def _level_groups(cc: "CompiledCircuit") -> Tuple[CellGroup, ...]:
    cell_level = cc.cell_levels
    buckets: Dict[tuple, List[int]] = {}
    for ci in cc.topo:
        delays = (
            None
            if cc.out_specs is None
            else tuple(dly for _, dly in cc.out_specs[ci])
        )
        key = (
            cell_level[ci],
            cc.cell_kinds[ci],
            len(cc.cell_inputs[ci]),
            delays,
        )
        buckets.setdefault(key, []).append(ci)
    groups = []
    for key in sorted(
        buckets, key=lambda k: (k[0], k[1].value, k[2], k[3] or ())
    ):
        level, kind, arity, _delays = key
        members = buckets[key]
        pins = tuple(
            tuple(cc.cell_inputs[ci][pin] for ci in members)
            for pin in range(arity)
        )
        n_out = len(cc.cell_outputs[members[0]])
        outs = []
        for pos in range(n_out):
            dly = (
                None
                if cc.out_specs is None
                else cc.out_specs[members[0]][pos][1]
            )
            outs.append(
                (dly, tuple(cc.cell_outputs[ci][pos] for ci in members))
            )
        groups.append(CellGroup(level, kind, pins, tuple(outs)))
    return tuple(groups)


def arrival_windows(cc: "CompiledCircuit") -> Tuple[List[int], List[int]]:
    """Per net, the earliest and latest delta time it can change at.

    Primary inputs and flipflop outputs change at the clock edge (time
    0), a combinational output ``d`` deltas after the earliest / latest
    change of its inputs; before and after that window a net holds its
    old and its new settled value.  Returns ``(lo, hi)`` lists indexed
    by net, both ``-1`` for a net that never changes (constants,
    undriven nets and logic fed only by them).
    """
    lo = [-1] * cc.n_nets
    hi = [-1] * cc.n_nets
    for net in (*cc.inputs, *cc.ff_q):
        lo[net] = hi[net] = 0
    cell_inputs, out_specs = cc.cell_inputs, cc.out_specs
    for ci in cc.topo:
        first = last = -1
        for n in cell_inputs[ci]:
            h = hi[n]
            if h >= 0:
                if h > last:
                    last = h
                if first < 0 or lo[n] < first:
                    first = lo[n]
        if last >= 0:
            for out_net, dly in out_specs[ci]:
                lo[out_net] = first + dly
                hi[out_net] = last + dly
    return lo, hi


def arrival_levels(cc: "CompiledCircuit") -> List[int]:
    """Per net, its latest arrival: the longest delay path that ends there.

    Inputs, flipflop outputs and undriven nets are at 0; a cell output
    at ``d`` after its latest input, or after 0 for a constant.  Unlike
    :func:`arrival_windows`, paths from a constant count: balancing
    pads against them, and the critical path includes them.
    """
    level = [0] * cc.n_nets
    cell_inputs, out_specs = cc.cell_inputs, cc.out_specs
    for ci in cc.topo:
        at = max([level[n] for n in cell_inputs[ci]], default=0)
        for out_net, dly in out_specs[ci]:
            level[out_net] = at + dly
    return level


def static_event_horizon(
    cc: "CompiledCircuit", circuit, delay_model, backend_label: str
) -> int:
    """``W``: 1 + the latest possible intra-cycle event time.

    Read off the arrival windows (:func:`arrival_windows`); rejects
    sub-unit combinational delays with the standard backend error
    message — shared by the lanes and vector engines' glitch modes.
    The successful result is memoized on the compiled snapshot (one
    value per (circuit, delay model) pair by construction), so repeated
    backend construction is free.
    """
    cached = cc.__dict__.get("_static_event_horizon")
    if cached is not None:
        return cached
    for ci in cc.topo:
        for _, dly in cc.out_specs[ci]:
            if dly < 1:
                raise ValueError(
                    f"the {backend_label} backend requires combinational "
                    f"delays >= 1, but {delay_model.describe()!r} "
                    f"gives cell {circuit.cells[ci].name!r} a delay of "
                    f"{dly}; pass an explicit ZeroDelay model for "
                    "zero-delay simulation"
                )
    W = max(0, max(cc.arrival_windows[1], default=0)) + 1
    cc.__dict__["_static_event_horizon"] = W
    return W
