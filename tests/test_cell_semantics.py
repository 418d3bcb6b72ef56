"""Every cell kind on every 0/1 input pattern: one semantics, exactly.

The Boolean function of each kind is written once
(:data:`repro.netlist.cells._BIT_EVALUATORS`, read through
:func:`~repro.netlist.cells.evaluate_kind`).  For every kind and every
0/1 input pattern — n-ary gates at arity 1 to 4 — this checks it
against a plain-Python spec, then checks that everything derived from
it agrees:

* the fused bitmask kernel (:func:`repro.netlist.compiled._fuse_bits`)
  on one lane (the event engine's call, mask 1) and on two lanes at
  once;
* the vector tier's group op (:func:`repro.sim.vector._apply_group`,
  every non-constant kind) on Python ints at mask 1 and on a two-lane
  ``uint64`` array;
* the probability rule: inputs at probability 0.0/1.0 give exactly the
  Boolean output;
* the density rule: with the same probabilities and unit density on
  input *i* only, an output's density is exactly 1.0 when flipping
  input *i* flips it and exactly 0.0 otherwise.

Every value compared here is exact in floating point, so the asserts
use ``==``.
"""

import itertools

import pytest

try:
    import numpy as np
except ImportError:  # pragma: no cover - exercised by the no-numpy CI job
    np = None

from repro.estimate.density import transition_densities
from repro.estimate.probability import signal_probabilities
from repro.netlist.cells import INPUT_ARITY, OUTPUT_COUNT, CellKind, evaluate_kind
from repro.netlist.circuit import Circuit
from repro.netlist.compiled import _fuse_bits
from repro.sim.vector import _apply_group

_SPEC = {
    CellKind.CONST0: lambda x: (0,),
    CellKind.CONST1: lambda x: (1,),
    CellKind.BUF: lambda x: (x[0],),
    CellKind.DFF: lambda x: (x[0],),
    CellKind.NOT: lambda x: (1 - x[0],),
    CellKind.AND: lambda x: (int(all(x)),),
    CellKind.NAND: lambda x: (1 - all(x),),
    CellKind.OR: lambda x: (int(any(x)),),
    CellKind.NOR: lambda x: (1 - any(x),),
    CellKind.XOR: lambda x: (sum(x) % 2,),
    CellKind.XNOR: lambda x: (1 - sum(x) % 2,),
    CellKind.MUX2: lambda x: (x[2] if x[0] else x[1],),
    CellKind.HA: lambda x: (sum(x) % 2, sum(x) // 2),
    CellKind.FA: lambda x: (sum(x) % 2, sum(x) // 2),
}

CASES = [
    (kind, arity)
    for kind in CellKind
    for arity in (
        (1, 2, 3, 4) if INPUT_ARITY[kind] is None else (INPUT_ARITY[kind],)
    )
]


@pytest.mark.parametrize(
    "kind,arity", CASES, ids=[f"{k.value}-{n}" for k, n in CASES]
)
def test_every_pattern(kind, arity):
    circuit = Circuit(f"one_{kind.value}")
    ins = [circuit.add_input(f"x{i}") for i in range(arity)]
    outs = circuit.add_cell(kind, ins, name="g").outputs
    for net in outs:
        circuit.mark_output(net)
    bits = _fuse_bits(kind, tuple(range(arity)))
    for pattern in itertools.product((0, 1), repeat=arity):
        expected = _SPEC[kind](pattern)
        assert len(expected) == OUTPUT_COUNT[kind]
        assert evaluate_kind(kind, pattern) == expected
        assert bits(pattern, 1) == expected
        # Two lanes at once: the pattern in lane 0, its complement in 1.
        complement = _SPEC[kind]([v ^ 1 for v in pattern])
        two_lanes = tuple(e | c << 1 for e, c in zip(expected, complement))
        assert bits([v | (v ^ 1) << 1 for v in pattern], 3) == two_lanes
        if kind not in (CellKind.CONST0, CellKind.CONST1):
            assert _apply_group(kind, list(pattern), 1) == expected
            if np is not None:
                lanes = [
                    np.array([v | (v ^ 1) << 1], dtype=np.uint64)
                    for v in pattern
                ]
                got = _apply_group(kind, lanes, np.array([3], dtype=np.uint64))
                assert tuple(int(a[0]) for a in got) == two_lanes

        probs = {net: float(v) for net, v in zip(ins, pattern)}
        p_out = signal_probabilities(circuit, probs)
        assert [p_out[net] for net in outs] == [float(e) for e in expected]
        for i in range(arity):
            flipped = _SPEC[kind]([v ^ (k == i) for k, v in enumerate(pattern)])
            d_out = transition_densities(
                circuit, {net: float(k == i) for k, net in enumerate(ins)}, probs
            )
            assert [d_out[net] for net in outs] == [
                float(e != f) for e, f in zip(expected, flipped)
            ]
