"""Najm-style transition-density propagation.

The transition density ``D(y)`` of a gate output is estimated from its
input densities through Boolean-difference sensitisation:

    D(y) = sum_i  P(dy/dx_i) * D(x_i)

where ``dy/dx_i = y|x_i=1 XOR y|x_i=0`` and the probability is taken
over the other inputs (spatial independence).  Unlike the zero-delay
switching-activity model, density propagation *is* sensitive to
multiple input changes per cycle and therefore tracks glitch-rich
circuits more closely — but it still over/under-shoots under
reconvergent fanout, which the ablation experiment quantifies against
the simulator's exact counts.

Primary-input densities default to the random-vector value: a fresh
random bit toggles with probability 1/2 per cycle.  Stimulus-aware
densities (correlated / burst streams) come from
:func:`repro.estimate.workload.input_statistics`.

Like :mod:`repro.estimate.probability`, the propagation is one loop
over the compiled IR's topological steps
(:func:`repro.estimate.passes.density_pass`) over flat per-net float
arrays, with the Boolean-difference probabilities in closed form per
kind instead of the reference implementation's per-(cell, pin)
truth-table enumeration (:mod:`repro.estimate.reference`).
"""

from __future__ import annotations

from typing import Dict, Mapping

from repro.estimate.passes import density_pass
from repro.estimate.probability import (
    _as_net_dict,
    _probability_array,
    _validated_input_values,
)
from repro.netlist.circuit import Circuit
from repro.netlist.compiled import CompiledCircuit, compile_circuit
from repro.obs import trace as obs


def _density_array(
    cc: CompiledCircuit,
    probs: list,
    input_densities: Mapping[int, float],
) -> list:
    """Flat per-net transition densities via :func:`density_pass`.

    *probs* is the flat one-probability array
    (:func:`~repro.estimate.probability._probability_array`) — taken as
    an argument so callers that already propagated probabilities (the
    workload estimator computes probabilities, activities and
    densities in one go) never pay the fixed-point pass twice.
    """
    dens = [0.0] * cc.n_nets
    for net, d in input_densities.items():
        dens[net] = d
    steps = cc.topo_steps
    ff_d, ff_q = cc.ff_d, cc.ff_q
    # Feed-forward propagation; one refinement pass settles pipelines.
    for _ in range(2 if ff_q else 1):
        for i, q in enumerate(ff_q):
            d = dens[ff_d[i]]
            dens[q] = d if d < 1.0 else 1.0
        density_pass(steps, probs, dens)
    return dens


def transition_densities(
    circuit: Circuit,
    input_densities: Mapping[int, float] | float = 0.5,
    input_probs: Mapping[int, float] | float = 0.5,
) -> Dict[int, float]:
    """Estimated transitions per cycle for every net.

    *input_densities* maps primary-input nets to expected transitions
    per cycle (scalar applies to all; 0.5 for fresh random vectors).
    A mapping must cover every primary input and nothing else —
    missing inputs, keys that are not primary-input nets, and
    densities outside ``[0, 1]`` raise ``ValueError`` (a primary input
    can toggle at most once per cycle; internal nets may well exceed
    1.0, which is the point of the estimator).  Flipflop outputs
    inherit their D-net's density capped at 1.0 — a registered node
    can toggle at most once per cycle.
    """
    dens_in = _validated_input_values(
        circuit, input_densities, "densities", 0.0, 1.0
    )
    probs_in = _validated_input_values(
        circuit, input_probs, "probabilities", 0.0, 1.0
    )
    with obs.span("estimate.density", circuit=circuit.name):
        cc = compile_circuit(circuit)
        probs = _probability_array(cc, probs_in)
        return _as_net_dict(cc, _density_array(cc, probs, dens_in))
