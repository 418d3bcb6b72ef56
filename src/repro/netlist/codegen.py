"""Codegen layer: flat specialized kernels emitted per compiled circuit.

The compiled IR (:mod:`repro.netlist.compiled`) already fuses each
cell's evaluator over captured net indices, but every pass still pays
one Python call, one returned tuple and one ``zip`` per cell.  This
module eliminates that dispatch entirely for the estimators' float
passes by *emitting source code* for a whole circuit pass — one
straight-line statement per cell, in the cached topological order —
and ``exec``-compiling it into a single flat function (chunked for
very large netlists, see :data:`CHUNK_CELLS`).

Two passes are generated per compiled circuit: :func:`build_prob_pass`
/ :func:`build_density_pass` — the signal-probability and
transition-density topological passes used by :mod:`repro.estimate`,
property-tested against the reference estimators
(:mod:`repro.estimate.reference`).

It is also home to the structural *levelization* used by the numpy
tier (:mod:`repro.sim.vector`): :func:`level_groups` buckets the topo
order into ``(level, kind, arity, delays)`` groups whose members can
be evaluated as one vectorized ndarray operation; and to
:func:`static_event_horizon`, the per-cycle time axis of the two
glitch-exact batch engines.

Everything here is pure Python — numpy is only touched by the vector
backend that consumes :func:`level_groups`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Tuple

from repro.netlist.cells import CellKind
from repro.obs import trace as obs

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.netlist.compiled import CompiledCircuit


#: Cells per exec-compiled chunk.  CPython compiles huge flat function
#: bodies fine but slows superlinearly; chunking keeps compile latency
#: proportional to circuit size while the runtime cost of chaining a
#: handful of chunk calls is noise.
CHUNK_CELLS = 2000


def _compile_blocks(
    blocks: List[List[str]], params: str, tag: str
) -> Callable:
    """``exec``-compile per-cell statement *blocks* into one callable.

    Each block is the statement list for one cell (relative
    indentation included).  Oversized bodies are split into
    :data:`CHUNK_CELLS`-cell chunk functions called in order.
    """
    if not blocks:
        def _noop(*args):
            return None
        return _noop
    funcs = []
    with obs.span("codegen.exec", tag=tag, cells=len(blocks)):
        for start in range(0, len(blocks), CHUNK_CELLS):
            lines = [f"def _kernel({params}):"]
            for block in blocks[start:start + CHUNK_CELLS]:
                for stmt in block:
                    lines.append("    " + stmt)
            src = "\n".join(lines) + "\n"
            ns: Dict[str, object] = {}
            exec(compile(src, f"<codegen {tag} #{start // CHUNK_CELLS}>", "exec"), ns)
            funcs.append(ns["_kernel"])
    if len(funcs) == 1:
        return funcs[0]

    def _chained(*args, _funcs=tuple(funcs)):
        for f in _funcs:
            f(*args)
    return _chained


# ---------------------------------------------------------------------------
# Per-kind expression emitters
# ---------------------------------------------------------------------------
#
# Each emitter returns ``(prelude_statements, output_expressions)``
# with the cell's input net indices inlined as literals.  A probability
# expression gives the cell's output one-probabilities under spatial
# independence of its inputs.  A density expression gives the output
# transition densities through Boolean-difference sensitisation:
# ``D(y) = sum_i P(dy/dx_i) * D(x_i)`` with the difference probability
# taken over the other inputs.

def _prob_exprs(
    kind: CellKind, ins: Tuple[int, ...]
) -> Tuple[List[str], List[str]]:
    p = [f"p[{n}]" for n in ins]
    if kind is CellKind.CONST0:
        return [], ["0.0"]
    if kind is CellKind.CONST1:
        return [], ["1.0"]
    if kind in (CellKind.BUF, CellKind.DFF):
        return [], [p[0]]
    if kind is CellKind.NOT:
        return [], [f"1.0 - {p[0]}"]
    if kind is CellKind.MUX2:
        s, a, b = p
        return [], [f"(1.0 - {s}) * {a} + {s} * {b}"]
    if kind is CellKind.HA:
        a, b = p
        return [], [f"{a} * (1.0 - {b}) + {b} * (1.0 - {a})", f"{a} * {b}"]
    if kind is CellKind.FA:
        a, b, c = p
        pre = [
            f"_t = (1.0 - 2.0 * {a}) * (1.0 - 2.0 * {b}) * (1.0 - 2.0 * {c})"
        ]
        return pre, [
            "(1.0 - _t) / 2.0",
            f"{a} * {b} + {c} * ({a} * (1.0 - {b}) + {b} * (1.0 - {a}))",
        ]
    if kind in (CellKind.AND, CellKind.NAND):
        core = " * ".join(p)
        if kind is CellKind.NAND:
            return [], [f"1.0 - {core}"]
        return [], [core]
    if kind in (CellKind.OR, CellKind.NOR):
        core = " * ".join(f"(1.0 - {x})" for x in p)
        if kind is CellKind.NOR:
            return [], [core]
        return [], [f"1.0 - {core}"]
    if kind in (CellKind.XOR, CellKind.XNOR):
        pre = ["_t = " + " * ".join(f"(1.0 - 2.0 * {x})" for x in p)]
        if kind is CellKind.XNOR:
            return pre, ["1.0 - (1.0 - _t) / 2.0"]
        return pre, ["(1.0 - _t) / 2.0"]
    raise NotImplementedError(f"no codegen probability rule for {kind}")


def _density_exprs(
    kind: CellKind, ins: Tuple[int, ...]
) -> Tuple[List[str], List[str]]:
    p = [f"p[{n}]" for n in ins]
    d = [f"d[{n}]" for n in ins]
    if kind in (CellKind.CONST0, CellKind.CONST1):
        return [], ["0.0"]
    if kind in (CellKind.BUF, CellKind.DFF, CellKind.NOT):
        return [], [d[0]]
    if kind in (CellKind.XOR, CellKind.XNOR):
        return [], [" + ".join(d)]
    if kind is CellKind.MUX2:
        ps, pa, pb = p
        ds, da, db = d
        return [], [
            f"({pa} * (1.0 - {pb}) + {pb} * (1.0 - {pa})) * {ds}"
            f" + (1.0 - {ps}) * {da} + {ps} * {db}"
        ]
    if kind is CellKind.HA:
        pa, pb = p
        da, db = d
        return [], [f"{da} + {db}", f"{pb} * {da} + {pa} * {db}"]
    if kind is CellKind.FA:
        pa, pb, pc = p
        da, db, dc = d
        return [], [
            f"{da} + {db} + {dc}",
            f"({pb} * (1.0 - {pc}) + {pc} * (1.0 - {pb})) * {da}"
            f" + ({pa} * (1.0 - {pc}) + {pc} * (1.0 - {pa})) * {db}"
            f" + ({pa} * (1.0 - {pb}) + {pb} * (1.0 - {pa})) * {dc}",
        ]
    if kind in (CellKind.AND, CellKind.NAND):
        if len(ins) == 2:
            return [], [f"{p[1]} * {d[0]} + {p[0]} * {d[1]}"]
        terms = []
        for pin in range(len(ins)):
            w = " * ".join(p[j] for j in range(len(ins)) if j != pin)
            terms.append(f"{w} * {d[pin]}")
        return [], [" + ".join(terms)]
    if kind in (CellKind.OR, CellKind.NOR):
        if len(ins) == 2:
            return [], [
                f"(1.0 - {p[1]}) * {d[0]} + (1.0 - {p[0]}) * {d[1]}"
            ]
        terms = []
        for pin in range(len(ins)):
            w = " * ".join(
                f"(1.0 - {p[j]})" for j in range(len(ins)) if j != pin
            )
            terms.append(f"{w} * {d[pin]}")
        return [], [" + ".join(terms)]
    raise NotImplementedError(f"no codegen density rule for {kind}")


# ---------------------------------------------------------------------------
# Pass builders
# ---------------------------------------------------------------------------

def _estimator_blocks(cc: "CompiledCircuit", which: str) -> List[List[str]]:
    blocks = []
    for ci in cc.topo:
        if which == "prob":
            pre, outs = _prob_exprs(cc.cell_kinds[ci], cc.cell_inputs[ci])
            target = "p"
        else:
            pre, outs = _density_exprs(cc.cell_kinds[ci], cc.cell_inputs[ci])
            target = "d"
        block = list(pre)
        for out_net, expr in zip(cc.cell_outputs[ci], outs):
            block.append(f"{target}[{out_net}] = {expr}")
        blocks.append(block)
    return blocks


def build_prob_pass(cc: "CompiledCircuit") -> Callable:
    """One flat ``f(p)`` signal-probability topo pass (in place)."""
    return _compile_blocks(
        _estimator_blocks(cc, "prob"), "p", f"prob {cc.name}"
    )


def build_density_pass(cc: "CompiledCircuit") -> Callable:
    """One flat ``f(p, d)`` transition-density topo pass (in place)."""
    return _compile_blocks(
        _estimator_blocks(cc, "density"), "p, d", f"density {cc.name}"
    )


def kernel_source(cc: "CompiledCircuit", which: str = "prob") -> str:
    """The generated source text of one pass, for docs and inspection."""
    if which == "prob":
        blocks, params = _estimator_blocks(cc, "prob"), "p"
    elif which == "density":
        blocks, params = _estimator_blocks(cc, "density"), "p, d"
    else:
        raise ValueError(
            f"unknown pass {which!r}; choose from prob, density"
        )
    lines = [f"def _kernel({params}):"]
    for block in blocks:
        for stmt in block:
            lines.append("    " + stmt)
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Levelization / grouping for the vectorized (numpy) tier
# ---------------------------------------------------------------------------

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


def static_event_horizon(
    cc: "CompiledCircuit", circuit, delay_model, backend_label: str
) -> int:
    """``W``: 1 + the latest possible intra-cycle event time.

    Levelizes the delay-resolved topo order and rejects sub-unit
    combinational delays with the standard backend error message —
    shared by the lanes and vector engines' glitch modes.  The
    successful result is memoized on the compiled snapshot (one value
    per (circuit, delay model) pair by construction), so repeated
    backend construction skips the levelization.
    """
    cached = cc.__dict__.get("_static_event_horizon")
    if cached is not None:
        return cached
    level = [0] * cc.n_nets
    for ci in cc.topo:
        arrival = 0
        for n in cc.cell_inputs[ci]:
            if level[n] > arrival:
                arrival = level[n]
        for out_net, dly in cc.out_specs[ci]:
            if dly < 1:
                raise ValueError(
                    f"the {backend_label} backend requires combinational "
                    f"delays >= 1, but {delay_model.describe()!r} "
                    f"gives cell {circuit.cells[ci].name!r} a delay of "
                    f"{dly}; pass an explicit ZeroDelay model for "
                    "zero-delay simulation"
                )
            if arrival + dly > level[out_net]:
                level[out_net] = arrival + dly
    W = (max(level) if level else 0) + 1
    cc.__dict__["_static_event_horizon"] = W
    return W
