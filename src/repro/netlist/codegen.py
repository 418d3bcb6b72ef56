"""Levelization of the compiled IR: vector groups, windows, arrival levels.

The numpy tier (:mod:`repro.sim.vector`) evaluates every cell of one
structural level and one kind as a single array operation.  This
module derives those batches from the compiled circuit's cached
topological order and the unit-depth levels the same Kahn pass gives
each cell (:attr:`~repro.netlist.compiled.CompiledCircuit.cell_levels`):
:func:`level_groups` buckets the topo order into ``(level, kind,
arity, delays)`` groups whose members can be evaluated together; the
members of a group share one delay tuple, which the compile resolved
once per kind.  :func:`arrival_windows` records when each net can
change within a cycle; the two glitch-exact batch engines (lanes and
vector) take their per-cycle time axis from it
(:func:`static_event_horizon`).
:func:`arrival_levels` gives each net's latest arrival, which the
critical path and path balancing read.

Everything here is pure Python — numpy is only touched by the vector
backend that consumes :func:`level_groups`.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import TYPE_CHECKING, Dict, List, Tuple

from repro import _nogc
from repro.netlist.cells import CellKind
from repro.obs import trace as obs

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.netlist.compiled import CompiledCircuit


@dataclass(frozen=True)
class CellGroup:
    """Cells sharing (level, kind, arity, per-output delays).

    ``pins[i]`` is the tuple of input nets on pin *i*, one entry per
    member cell; ``outs[k]`` is ``(delay, out_nets)`` for output
    position *k*.  All members are evaluable as one array operation
    once every earlier level has been applied.
    """

    level: int
    kind: CellKind
    pins: Tuple[Tuple[int, ...], ...]
    outs: Tuple[Tuple[int, Tuple[int, ...]], ...]


def level_groups(cc: "CompiledCircuit") -> Tuple[CellGroup, ...]:
    """Bucket the topo order into vectorizable :class:`CellGroup`\\ s."""
    with obs.span("codegen.levelize", circuit=cc.name, cells=len(cc.cell_kinds)):
        return _level_groups(cc)


@_nogc
def _level_groups(cc: "CompiledCircuit") -> Tuple[CellGroup, ...]:
    levels, kinds = cc.cell_levels, cc.cell_kinds
    inputs, outputs, delays = cc.cell_inputs, cc.cell_outputs, cc.cell_delays
    buckets: Dict[tuple, List[int]] = {}
    for ci in cc.topo:
        key = (levels[ci], kinds[ci], len(inputs[ci]), delays[ci])
        members = buckets.get(key)
        if members is None:
            buckets[key] = [ci]
        else:
            members.append(ci)
    groups = []
    for key in sorted(buckets, key=lambda k: (k[0], k[1].value, k[2], k[3])):
        level, kind, _arity, dlys = key
        members = buckets[key]
        groups.append(CellGroup(
            level, kind,
            tuple(zip(*map(inputs.__getitem__, members))),
            tuple(zip(dlys, zip(*map(outputs.__getitem__, members)))),
        ))
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
    cell_inputs, cell_outputs, delays = cc.cell_inputs, cc.cell_outputs, cc.cell_delays
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
            for out_net, dly in zip(cell_outputs[ci], delays[ci]):
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
    cell_inputs, cell_outputs, delays = cc.cell_inputs, cc.cell_outputs, cc.cell_delays
    for ci in cc.topo:
        at = max([level[n] for n in cell_inputs[ci]], default=0)
        for out_net, dly in zip(cell_outputs[ci], delays[ci]):
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
    delays = cc.cell_delays
    if min(chain.from_iterable(set(map(delays.__getitem__, cc.topo))), default=1) < 1:
        ci, dly = next(
            (ci, d) for ci in cc.topo for d in delays[ci] if d < 1
        )
        raise ValueError(
            f"the {backend_label} backend requires combinational "
            f"delays >= 1, but {delay_model.describe()!r} "
            f"gives cell {circuit.cell_names[ci]!r} a delay of "
            f"{dly}; pass an explicit ZeroDelay model for "
            "zero-delay simulation"
        )
    W = max(0, max(cc.arrival_windows[1], default=0)) + 1
    cc.__dict__["_static_event_horizon"] = W
    return W
