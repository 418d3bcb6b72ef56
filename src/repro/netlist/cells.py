"""Cell kinds and their Boolean evaluation semantics.

Cells are the atomic units of a netlist.  Most kinds are simple gates
with one output; two compound arithmetic kinds — half adder (``HA``)
and full adder (``FA``) — have two outputs (*sum*, *carry*) so that a
full adder can be simulated as a single stage with independent sum and
carry delays, exactly as the paper's "unit delay model for every full
adder stage" (Section 3) and its ``dsum = 2*dcarry`` refinement
(Table 2) require.

The ``DFF`` kind is the only sequential cell: it samples its ``d``
input at the active clock edge and presents it on ``q`` at the start of
the next cycle.  Clocking is implicit (single global clock), which
matches the paper's synchronous single-clock networks.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Sequence, Tuple


class CellKind(enum.Enum):
    """Enumeration of supported cell kinds.

    Members hash by identity: every kind-keyed table and kind set is
    probed once per cell, and ``Enum.__hash__`` would hash the name in
    Python on each probe.
    """

    __hash__ = object.__hash__

    CONST0 = "CONST0"
    CONST1 = "CONST1"
    BUF = "BUF"
    NOT = "NOT"
    AND = "AND"
    OR = "OR"
    NAND = "NAND"
    NOR = "NOR"
    XOR = "XOR"
    XNOR = "XNOR"
    MUX2 = "MUX2"  # inputs: (sel, a, b) -> a if sel == 0 else b
    HA = "HA"  # inputs: (a, b) -> (sum, carry)
    FA = "FA"  # inputs: (a, b, cin) -> (sum, carry)
    DFF = "DFF"  # inputs: (d,) -> (q,); sequential


#: Kinds evaluated combinationally by the simulator.
COMBINATIONAL_KINDS = frozenset(k for k in CellKind if k is not CellKind.DFF)

#: Kinds with clocked (edge-triggered) semantics.
SEQUENTIAL_KINDS = frozenset({CellKind.DFF})

#: Number of outputs per kind.
OUTPUT_COUNT = {
    CellKind.CONST0: 1,
    CellKind.CONST1: 1,
    CellKind.BUF: 1,
    CellKind.NOT: 1,
    CellKind.AND: 1,
    CellKind.OR: 1,
    CellKind.NAND: 1,
    CellKind.NOR: 1,
    CellKind.XOR: 1,
    CellKind.XNOR: 1,
    CellKind.MUX2: 1,
    CellKind.HA: 2,
    CellKind.FA: 2,
    CellKind.DFF: 1,
}

#: Fixed input arity per kind (``None`` means n-ary, >= 1).
INPUT_ARITY = {
    CellKind.CONST0: 0,
    CellKind.CONST1: 0,
    CellKind.BUF: 1,
    CellKind.NOT: 1,
    CellKind.AND: None,
    CellKind.OR: None,
    CellKind.NAND: None,
    CellKind.NOR: None,
    CellKind.XOR: None,
    CellKind.XNOR: None,
    CellKind.MUX2: 3,
    CellKind.HA: 2,
    CellKind.FA: 3,
    CellKind.DFF: 1,
}


def _bits_const0(ins, mask):
    return (0,)


def _bits_const1(ins, mask):
    return (mask,)


def _bits_buf(ins, mask):
    return (ins[0],)


def _bits_not(ins, mask):
    return (ins[0] ^ mask,)


def _bits_and(ins, mask):
    out = mask
    for v in ins:
        out &= v
    return (out,)


def _bits_or(ins, mask):
    out = 0
    for v in ins:
        out |= v
    return (out,)


def _bits_nand(ins, mask):
    return (_bits_and(ins, mask)[0] ^ mask,)


def _bits_nor(ins, mask):
    return (_bits_or(ins, mask)[0] ^ mask,)


def _bits_xor(ins, mask):
    out = 0
    for v in ins:
        out ^= v
    return (out,)


def _bits_xnor(ins, mask):
    return (_bits_xor(ins, mask)[0] ^ mask,)


def _bits_mux2(ins, mask):
    sel, a, b = ins
    return (a ^ ((a ^ b) & sel),)


def _bits_ha(ins, mask):
    a, b = ins
    return (a ^ b, a & b)


def _bits_fa(ins, mask):
    a, b, cin = ins
    p = a ^ b
    return (p ^ cin, (a & b) | (cin & p))


#: The Boolean function of every kind, over bitmask lanes: one int per
#: input, each bit an independent lane, inversions against *mask*
#: (``mask=1`` is plain 0/1 evaluation).  ``DFF`` maps to its
#: transparent (buffer) view; no simulator evaluates a sequential cell
#: through it.
_BIT_EVALUATORS = {
    CellKind.CONST0: _bits_const0,
    CellKind.CONST1: _bits_const1,
    CellKind.BUF: _bits_buf,
    CellKind.NOT: _bits_not,
    CellKind.AND: _bits_and,
    CellKind.OR: _bits_or,
    CellKind.NAND: _bits_nand,
    CellKind.NOR: _bits_nor,
    CellKind.XOR: _bits_xor,
    CellKind.XNOR: _bits_xnor,
    CellKind.MUX2: _bits_mux2,
    CellKind.HA: _bits_ha,
    CellKind.FA: _bits_fa,
    CellKind.DFF: _bits_buf,
}


def evaluate_kind(kind: CellKind, values: Sequence[int]) -> Tuple[int, ...]:
    """Evaluate the Boolean function of *kind* on input *values*.

    Values are ints in {0, 1}; the result is a tuple with one entry per
    output of the kind (see :data:`OUTPUT_COUNT`).
    """
    return _BIT_EVALUATORS[kind](values, 1)


@dataclass(slots=True)
class Cell:
    """A netlist cell instance.

    Attributes
    ----------
    name:
        Unique instance name within its circuit.
    kind:
        The :class:`CellKind` selecting the evaluation function.
    inputs:
        Net indices feeding the cell, in kind-defined order.
    outputs:
        Net indices driven by the cell, in kind-defined order
        (e.g. ``(sum, carry)`` for ``FA``).

    A cell carries no delay: the delay model times it
    (:mod:`repro.sim.delays`).
    """

    name: str
    kind: CellKind
    inputs: Tuple[int, ...]
    outputs: Tuple[int, ...]
    index: int = field(default=-1)

    @property
    def is_sequential(self) -> bool:
        """True for clocked cells (DFF)."""
        return self.kind is CellKind.DFF

    def evaluate(self, values: Sequence[int]) -> Tuple[int, ...]:
        """Evaluate this cell's combinational function on *values*."""
        return evaluate_kind(self.kind, values)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Cell({self.name!r}, {self.kind.value}, "
            f"in={self.inputs}, out={self.outputs})"
        )


def check_arity(kind: CellKind, n_inputs: int, n_outputs: int) -> None:
    """Raise ``ValueError`` if the input/output counts are illegal for *kind*."""
    arity = INPUT_ARITY[kind]
    if arity is None:
        if n_inputs < 1:
            raise ValueError(f"{kind.value} needs at least one input")
    elif n_inputs != arity:
        raise ValueError(
            f"{kind.value} takes exactly {arity} inputs, got {n_inputs}"
        )
    expected_out = OUTPUT_COUNT[kind]
    if n_outputs != expected_out:
        raise ValueError(
            f"{kind.value} drives exactly {expected_out} outputs, got {n_outputs}"
        )
