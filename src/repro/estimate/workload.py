"""Stimulus-aware estimation: one estimate per (circuit, workload).

The simulators and the estimators must describe the *same* workload
for the estimate/simulate gap to mean anything.  The service layer
drives simulations from declarative
:class:`~repro.sim.vectors.StimulusSpec`\\ s; this module derives the
matching analytic input statistics — stationary one-probability and
per-cycle transition density per primary input — for every registered
stimulus kind:

* ``uniform`` — fresh random bits: ``p = 1/2``, ``D = 1/2``;
* ``correlated`` — lag-one correlated bits flipping with probability
  *f* (quantized to the generator's 2^-16 grid): ``p = 1/2``,
  ``D = f``;
* ``burst`` — two-state burst-Markov words: stationary burst
  occupancy ``p_burst / (p_burst + p_end)``, each burst cycle redraws
  uniformly, so ``p = 1/2`` and ``D = occupancy / 2``.

:func:`estimate_workload` bundles the three estimators into one
:class:`EstimateResult` over those statistics — the estimation-side
mirror of :meth:`repro.core.activity.ActivityRun.run`'s
:class:`~repro.core.activity.ActivityResult`, and the object the
service layer caches (:func:`repro.service.runner.cached_estimate`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, Tuple

from repro.estimate.density import _density_array
from repro.estimate.probability import _as_net_dict, _probability_array
from repro.netlist.circuit import Circuit
from repro.netlist.compiled import compile_circuit
from repro.obs import trace as obs
from repro.sim.vectors import (
    BurstMarkovStimulus,
    CorrelatedStimulus,
    StimulusSpec,
    UniformStimulus,
    _FLIP_BITS,
)


def _uniform_statistics(spec: UniformStimulus) -> Tuple[float, float]:
    return 0.5, 0.5


def _correlated_statistics(spec: CorrelatedStimulus) -> Tuple[float, float]:
    # The generator quantizes the flip probability to the dyadic grid;
    # use the value the stream actually realizes.
    quantized = round(spec.flip_probability * (1 << _FLIP_BITS))
    return 0.5, quantized / (1 << _FLIP_BITS)


def _burst_statistics(spec: BurstMarkovStimulus) -> Tuple[float, float]:
    total = spec.p_burst + spec.p_end
    occupancy = spec.p_burst / total if total > 0.0 else 0.0
    return 0.5, 0.5 * occupancy


#: Stimulus kind -> (stationary one-probability, transition density)
#: per primary-input bit.  Register new kinds here alongside
#: :data:`repro.sim.vectors.STIMULI`.
INPUT_STATISTICS: Dict[str, Callable[[StimulusSpec], Tuple[float, float]]] = {
    UniformStimulus.kind: _uniform_statistics,
    CorrelatedStimulus.kind: _correlated_statistics,
    BurstMarkovStimulus.kind: _burst_statistics,
}


def input_statistics(spec: StimulusSpec) -> Tuple[float, float]:
    """Per-input-bit ``(one_probability, transition_density)`` of *spec*.

    Raises ``ValueError`` for stimulus kinds without registered
    analytic statistics — an estimate over unknown input statistics
    would be silently wrong, not approximately right.
    """
    fn = INPUT_STATISTICS.get(spec.kind)
    if fn is None:
        raise ValueError(
            f"no analytic input statistics registered for stimulus kind "
            f"{spec.kind!r}; known kinds: {sorted(INPUT_STATISTICS)}"
        )
    return fn(spec)


def summarize_rates(
    n_nets: int, useful: float, total: float
) -> Dict[str, float]:
    """The headline estimate-rate summary dict.

    One source of truth for every surface that reports estimated
    rates (:meth:`EstimateResult.summary`, the service store's
    payload summaries), mirroring what
    :func:`repro.core.activity.summarize_counts` is for simulated
    counts.  ``useless`` is the density excess over the zero-delay
    useful rate, clamped at zero.
    """
    useless = max(0.0, total - useful)
    return {
        "nets": n_nets,
        "total": round(total, 4),
        "useful": round(useful, 4),
        "useless": round(useless, 4),
        "L/F": round(useless / useful if useful else 0.0, 4),
    }


def net_class(circuit: Circuit, net: int) -> str:
    """Classification label of one net by its driver.

    Primary inputs are ``"input"``; cell-driven nets are labelled by
    the driving kind, with the two-output arithmetic kinds split into
    their ``sum`` / ``carry`` halves (``"FA.sum"``, ``"HA.carry"``) —
    the classes the paper's Figure 5 separates.  Undriven internal
    nets are ``"undriven"``.
    """
    ci = circuit.net_driver[net]
    if ci < 0:
        return "input" if net in set(circuit.inputs) else "undriven"
    kind, outs = circuit.cell_kinds[ci], circuit.cell_outputs[ci]
    if len(outs) == 2:
        return f"{kind.value}.{('sum', 'carry')[outs.index(net)]}"
    return kind.value


@dataclass
class EstimateResult:
    """Analytic activity estimates for one (circuit, workload) pair.

    The estimation-side mirror of
    :class:`~repro.core.activity.ActivityResult`: per-net quantities
    keyed by net index, aggregates over the *monitored* nets (all
    cell-driven nets — the same default set the simulators count).
    Estimated quantities are per-cycle **rates**, not counts:

    * :attr:`probabilities` — stationary one-probability per net;
    * :attr:`activities` — zero-delay useful-transition rate: the iid
      ``2 p (1 - p)`` scaled by the workload's input correlation
      factor (see :func:`estimate_workload`; glitch-blind by
      construction);
    * :attr:`densities` — Najm transition density (sensitive to
      multiple transitions per cycle, so ``densities - activities``
      is the estimator's view of the glitch share).
    """

    circuit_name: str
    stimulus_description: str
    input_probability: float
    input_density: float
    probabilities: Dict[int, float] = field(default_factory=dict)
    activities: Dict[int, float] = field(default_factory=dict)
    densities: Dict[int, float] = field(default_factory=dict)
    monitored: Tuple[int, ...] = ()
    node_names: Dict[int, str] = field(default_factory=dict)

    # -- aggregates ----------------------------------------------------
    @property
    def useful_rate(self) -> float:
        """Estimated useful transitions per cycle over monitored nets."""
        return sum(self.activities.get(n, 0.0) for n in self.monitored)

    @property
    def density_rate(self) -> float:
        """Estimated total transitions per cycle over monitored nets."""
        return sum(self.densities.get(n, 0.0) for n in self.monitored)

    def summary(self) -> Dict[str, float]:
        """Headline estimate rates, shaped like the simulated summary.

        ``total`` / ``useful`` / ``useless`` are per-cycle rates (the
        simulated summary reports counts); see
        :func:`summarize_rates`.
        """
        return summarize_rates(
            len(self.monitored), self.useful_rate, self.density_rate
        )

    def restrict(self, nets: Iterable[int]) -> "EstimateResult":
        """A view aggregating only *nets* (e.g. one output word)."""
        wanted = set(nets)
        keep = tuple(n for n in self.monitored if n in wanted)
        return EstimateResult(
            circuit_name=self.circuit_name,
            stimulus_description=self.stimulus_description,
            input_probability=self.input_probability,
            input_density=self.input_density,
            probabilities=self.probabilities,
            activities=self.activities,
            densities=self.densities,
            monitored=keep,
            node_names=self.node_names,
        )

    def by_class(self, circuit: Circuit) -> Dict[str, Dict[str, float]]:
        """Aggregate estimated rates per :func:`net_class` of *circuit*."""
        classes: Dict[str, Dict[str, float]] = {}
        for n in self.monitored:
            row = classes.setdefault(
                net_class(circuit, n),
                {"nets": 0, "useful": 0.0, "density": 0.0},
            )
            row["nets"] += 1
            row["useful"] += self.activities.get(n, 0.0)
            row["density"] += self.densities.get(n, 0.0)
        return classes


def estimate_workload(
    circuit: Circuit,
    stimulus: StimulusSpec | None = None,
) -> EstimateResult:
    """Run all three estimators for *circuit* under *stimulus*.

    *stimulus* defaults to the paper's uniform random regime.  The
    stimulus seed does not matter — only the analytic statistics do —
    so estimates for differently-seeded but otherwise identical specs
    are identical (and share one cache entry in the service layer).

    The one-probability fixed point propagates once and feeds all
    three estimates.  The zero-delay *useful* activity is the iid
    formula ``2 q (1 - q)`` scaled by the inputs' lag-one correlation
    factor ``alpha = D_in / (2 p (1 - p))`` (1 for uniform inputs):
    exact for primary inputs and fanout trees, first-order elsewhere.
    Density propagation is linear in the input densities, so both
    estimates scale identically with the workload and the invariant
    shapes (e.g. density >= useful on glitchy structures) carry over
    from the uniform regime — without the scaling, a slow correlated
    workload would report a *useful* rate above its own *total* rate.
    """
    spec = stimulus if stimulus is not None else UniformStimulus()
    p, d = input_statistics(spec)
    with obs.span("estimate.workload", circuit=circuit.name):
        cc, prob_array, probabilities, activities = _probability_estimate(
            circuit, p, d
        )
        obs.inc("estimate.full_nets", cc.n_nets)
        dens_array = _density_array(
            cc, prob_array, {n: d for n in circuit.inputs}
        )
        return EstimateResult(
            circuit_name=circuit.name,
            stimulus_description=spec.describe(),
            input_probability=p,
            input_density=d,
            probabilities=probabilities,
            activities=activities,
            densities=_as_net_dict(cc, dens_array),
            monitored=tuple(
                net for net, ci in enumerate(circuit.net_driver) if ci >= 0
            ),
            node_names=dict(enumerate(circuit.net_names)),
        )


def useful_activities(
    circuit: Circuit,
    stimulus: StimulusSpec | None = None,
) -> Dict[int, float]:
    """Per-net zero-delay useful-transition rate under *stimulus*.

    Exactly :attr:`EstimateResult.activities` of
    :func:`estimate_workload`, from the probability pass alone: the
    density pass does not run.  The design-space
    explorer's candidate estimate reads nothing else.
    """
    spec = stimulus if stimulus is not None else UniformStimulus()
    p, d = input_statistics(spec)
    with obs.span("estimate.useful", circuit=circuit.name):
        return _probability_estimate(circuit, p, d)[3]


def _probability_estimate(circuit: Circuit, p: float, d: float):
    """The probability pass and the useful rates it implies.

    Returns ``(cc, prob_array, probabilities, activities)``: the
    compiled circuit, the flat one-probability array, and its
    per-net projections ``q`` and ``alpha * 2 q (1 - q)``.
    """
    cc = compile_circuit(circuit)
    prob_array = _probability_array(cc, {n: p for n in circuit.inputs})
    probabilities = _as_net_dict(cc, prob_array)
    iid_input_activity = 2.0 * p * (1.0 - p)
    alpha = d / iid_input_activity if iid_input_activity else 0.0
    activities = {
        net: alpha * 2.0 * q * (1.0 - q)
        for net, q in probabilities.items()
    }
    return cc, prob_array, probabilities, activities
