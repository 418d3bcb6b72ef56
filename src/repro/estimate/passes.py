"""The estimators' per-kind rules: one topological pass each, as a loop.

Both passes walk :attr:`~repro.netlist.compiled.CompiledCircuit.topo_steps`
(one flat ``(kind, *input_nets, *output_nets)`` tuple per combinational
cell, in topological order) and write every cell's outputs into a flat
per-net float array, in place:

* :func:`probability_pass` — output one-probabilities under spatial
  independence of the cell's inputs;
* :func:`density_pass` — Najm transition densities through
  Boolean-difference sensitisation, ``D(y) = sum_i P(dy/dx_i) * D(x_i)``,
  with the difference probability over the other inputs in closed form
  per kind.

Every rule evaluates its products and sums left to right in pin order,
so each float is reproducible bit for bit.  Products start from 1.0,
which is exact; sums start from their first term, not 0.0, because
``0.0 + -0.0`` is ``+0.0``.  The truth-table oracle the rules are
property-tested against is :mod:`repro.estimate.reference`.
"""

from __future__ import annotations

from typing import List, Sequence

from repro.netlist.cells import CellKind

_FA, _HA, _MUX2 = CellKind.FA, CellKind.HA, CellKind.MUX2
_AND, _NAND, _OR, _NOR = CellKind.AND, CellKind.NAND, CellKind.OR, CellKind.NOR
_XOR, _XNOR = CellKind.XOR, CellKind.XNOR
_BUF, _NOT, _DFF, _CONST0 = CellKind.BUF, CellKind.NOT, CellKind.DFF, CellKind.CONST0


def probability_pass(steps: Sequence[tuple], p: List[float]) -> None:
    """Write every cell's output one-probabilities into *p*."""
    for step in steps:
        kind = step[0]
        if kind is _FA:
            _, a, b, c, s, co = step
            a, b, c = p[a], p[b], p[c]
            t = (1.0 - 2.0 * a) * (1.0 - 2.0 * b) * (1.0 - 2.0 * c)
            p[s] = (1.0 - t) / 2.0
            p[co] = a * b + c * (a * (1.0 - b) + b * (1.0 - a))
        elif kind is _HA:
            _, a, b, s, co = step
            a, b = p[a], p[b]
            p[s] = a * (1.0 - b) + b * (1.0 - a)
            p[co] = a * b
        elif kind is _AND or kind is _NAND:
            if len(step) == 4:  # 2 inputs (every multiplier partial product)
                _, a, b, y = step
                v = p[a] * p[b]
            else:
                y = step[-1]
                v = 1.0
                for n in step[1:-1]:
                    v *= p[n]
            p[y] = v if kind is _AND else 1.0 - v
        elif kind is _OR or kind is _NOR:
            v = 1.0
            for n in step[1:-1]:
                v *= 1.0 - p[n]
            p[step[-1]] = v if kind is _NOR else 1.0 - v
        elif kind is _XOR or kind is _XNOR:
            t = 1.0
            for n in step[1:-1]:
                t *= 1.0 - 2.0 * p[n]
            v = (1.0 - t) / 2.0
            p[step[-1]] = v if kind is _XOR else 1.0 - v
        elif kind is _MUX2:
            _, s, a, b, y = step
            s = p[s]
            p[y] = (1.0 - s) * p[a] + s * p[b]
        elif kind is _NOT:
            p[step[2]] = 1.0 - p[step[1]]
        elif kind is _BUF or kind is _DFF:
            p[step[2]] = p[step[1]]
        else:
            p[step[1]] = 0.0 if kind is _CONST0 else 1.0


def _sensitised(weights: List[float], dens: List[float]) -> float:
    """``sum_i (prod_{j != i} weights[j]) * dens[i]`` for AND/OR-like gates.

    Input *i* passes a toggle when every other input holds its
    non-controlling value (probability ``weights[j]``); a one-input
    gate's empty product is 1.0.
    """
    total = None
    for i, d_i in enumerate(dens):
        t = 1.0
        for j, w in enumerate(weights):
            if j != i:
                t *= w
        t *= d_i
        total = t if total is None else total + t
    return total


def density_pass(steps: Sequence[tuple], p: List[float], d: List[float]) -> None:
    """Write every cell's output transition densities into *d*.

    *p* holds the settled one-probabilities (:func:`probability_pass`).
    """
    for step in steps:
        kind = step[0]
        if kind is _FA:
            _, a, b, c, s, co = step
            pa, pb, pc = p[a], p[b], p[c]
            da, db, dc = d[a], d[b], d[c]
            d[s] = da + db + dc
            d[co] = (
                (pb * (1.0 - pc) + pc * (1.0 - pb)) * da
                + (pa * (1.0 - pc) + pc * (1.0 - pa)) * db
                + (pa * (1.0 - pb) + pb * (1.0 - pa)) * dc
            )
        elif kind is _HA:
            _, a, b, s, co = step
            da, db = d[a], d[b]
            d[s] = da + db
            d[co] = p[b] * da + p[a] * db
        elif kind is _AND or kind is _NAND:
            if len(step) == 4:
                _, a, b, y = step
                d[y] = p[b] * d[a] + p[a] * d[b]
            else:
                ins = step[1:-1]
                d[step[-1]] = _sensitised([p[n] for n in ins], [d[n] for n in ins])
        elif kind is _OR or kind is _NOR:
            if len(step) == 4:
                _, a, b, y = step
                d[y] = (1.0 - p[b]) * d[a] + (1.0 - p[a]) * d[b]
            else:
                ins = step[1:-1]
                d[step[-1]] = _sensitised(
                    [1.0 - p[n] for n in ins], [d[n] for n in ins]
                )
        elif kind is _XOR or kind is _XNOR:
            v = d[step[1]]
            for n in step[2:-1]:
                v += d[n]
            d[step[-1]] = v
        elif kind is _MUX2:
            _, s, a, b, y = step
            ps, pa, pb = p[s], p[a], p[b]
            d[y] = (
                (pa * (1.0 - pb) + pb * (1.0 - pa)) * d[s]
                + (1.0 - ps) * d[a] + ps * d[b]
            )
        elif kind is _BUF or kind is _NOT or kind is _DFF:
            d[step[2]] = d[step[1]]
        else:
            d[step[1]] = 0.0
