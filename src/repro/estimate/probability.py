"""Signal-probability and switching-activity propagation.

``signal_probabilities`` propagates static one-probabilities through
the netlist assuming spatial independence of every cell's inputs (the
classic zero-delay model).  ``switching_activity`` derives the
per-cycle *useful* transition probability of each net under temporal
independence of successive input vectors: a net with one-probability
``p`` settles to different values in consecutive cycles with
probability ``2 p (1 - p)``.

Both are exact for fanout-tree circuits driven by independent inputs
(verified against exhaustive enumeration in the tests) and are biased
by reconvergent fanout elsewhere — one of the reasons the paper
simulates instead.  Note these estimators see **only useful
transitions**: a zero-delay model cannot represent glitches, which is
precisely the gap the paper's simulation-based method fills (the
ablation experiment quantifies this gap).

The propagation runs on the compiled circuit IR: one loop over its
topological steps (:func:`repro.estimate.passes.probability_pass`, one
closed-form rule per cell kind) over a flat per-net float array.  The
original dict-walking implementation survives as the oracle in
:mod:`repro.estimate.reference`; property tests pin agreement to
1e-12.
"""

from __future__ import annotations

from typing import Dict, List, Mapping

from repro.estimate.passes import probability_pass
from repro.netlist.circuit import Circuit
from repro.netlist.compiled import CompiledCircuit, compile_circuit
from repro.obs import trace as obs


def _validated_input_values(
    circuit: Circuit,
    values: Mapping[int, float] | float,
    what: str,
    low: float,
    high: float,
) -> Dict[int, float]:
    """Per-primary-input values from a scalar or a mapping, validated.

    A mapping must cover **exactly** the circuit's primary inputs:
    missing inputs and keys that are not primary-input net indices are
    both rejected — a typo'd net id would otherwise be silently
    ignored (or silently seed an internal net) and skew every
    downstream number.  Values outside ``[low, high]`` are rejected.
    """
    if isinstance(values, (int, float)):
        out = {n: float(values) for n in circuit.inputs}
    else:
        out = {n: float(p) for n, p in values.items()}
        input_set = set(circuit.inputs)
        unknown = set(out) - input_set
        if unknown:
            names = sorted(
                circuit.net_name(n)
                if isinstance(n, int) and 0 <= n < len(circuit.nets)
                else repr(n)
                for n in unknown
            )
            raise ValueError(
                f"{what} keys must be primary-input net indices; "
                f"got non-input keys {names}"
            )
        missing = input_set - set(out)
        if missing:
            raise ValueError(
                f"missing {what} for inputs "
                f"{sorted(circuit.net_name(n) for n in missing)}"
            )
    for v in out.values():
        if not low <= v <= high:
            raise ValueError(f"{what} must lie in [{low:g}, {high:g}]")
    return out


def _probability_array(
    cc: CompiledCircuit, input_probs: Dict[int, float]
) -> List[float]:
    """Flat per-net one-probabilities via :func:`probability_pass`.

    Undriven non-input nets read as 0.5 (maximum uncertainty), like
    the reference implementation's ``values.get(n, 0.5)``.  Flipflop
    outputs start at 0.5 and iterate to their D-input's steady state
    (two passes settle feed-forward pipelines; loops run to
    convergence or 64 rounds).
    """
    values = [0.5] * cc.n_nets
    for net, p in input_probs.items():
        values[net] = p
    steps = cc.topo_steps
    ff_d, ff_q = cc.ff_d, cc.ff_q
    for _ in range(64 if ff_q else 2):
        probability_pass(steps, values)
        changed = False
        for i, q in enumerate(ff_q):
            new = values[ff_d[i]]
            if abs(values[q] - new) > 1e-12:
                values[q] = new
                changed = True
        if not changed:
            break
    return values


def _as_net_dict(cc: CompiledCircuit, values: List[float]) -> Dict[int, float]:
    """Project a flat array onto the reported nets (inputs + cell outputs)."""
    out = {n: values[n] for n in cc.inputs}
    for outs in cc.cell_outputs:
        for net in outs:
            out[net] = values[net]
    return out


def signal_probabilities(
    circuit: Circuit,
    input_probs: Mapping[int, float] | float = 0.5,
) -> Dict[int, float]:
    """One-probability of every net under spatial independence.

    *input_probs* maps primary-input net indices to probabilities (a
    scalar applies to all inputs).  A mapping must cover every primary
    input and nothing else: missing inputs, keys that are not
    primary-input nets, and probabilities outside ``[0, 1]`` all raise
    ``ValueError``.  Flipflop outputs are assigned their D-input's
    steady-state probability by fixed-point iteration (two passes
    suffice for feed-forward pipelines; loops iterate to convergence
    or 64 rounds).
    """
    probs = _validated_input_values(
        circuit, input_probs, "probabilities", 0.0, 1.0
    )
    with obs.span("estimate.prob", circuit=circuit.name):
        cc = compile_circuit(circuit)
        return _as_net_dict(cc, _probability_array(cc, probs))


def switching_activity(
    circuit: Circuit,
    input_probs: Mapping[int, float] | float = 0.5,
) -> Dict[int, float]:
    """Per-cycle useful-transition probability ``2 p (1 - p)`` per net.

    Assumes successive input vectors are independent (the paper's
    random-input regime).  This equals the *useful* transition ratio —
    compare eq. (4): a sum bit with ``p = 1/2`` gets activity ``1/2``.
    """
    probs = signal_probabilities(circuit, input_probs)
    return {net: 2.0 * p * (1.0 - p) for net, p in probs.items()}
