"""Multi-objective candidate costing: analytic (cheap) and simulated (exact).

Every candidate is scored on three minimised objectives — dynamic
power, die area, and pipeline latency — plus the achieved clock period
as metadata.  Area, latency and period are *structural*: they come
from the netlist alone (:mod:`repro.tech.area`, critical path) and are
identical between the analytic and simulated cost paths.  Only power
differs:

* :func:`simulated_cost` bills the glitch-exact per-net rise counts of
  an :class:`~repro.core.activity.ActivityResult` through the paper's
  three-component model (:func:`repro.core.power.estimate_power`);
* :func:`estimated_cost` replaces simulation with the fused analytic
  estimate: the zero-delay useful-transition rate per net
  (:func:`repro.estimate.workload.estimate_workload`) multiplied by a
  *glitch multiplier* from :func:`transition_instants` — the number of
  distinct time instants at which the driving cell's inputs can
  arrive under the chosen delay model.  A path-balanced cell has one
  arrival instant (multiplier 1: the estimate degenerates to the
  exact useful rate), while skewed structures like a ripple-carry
  chain accumulate instants linearly — the paper's "unbalanced delay
  paths cause useless transitions" made quantitative.  This is a
  first-order ranking proxy, not a count estimate; search drivers
  therefore record the estimate-vs-simulation rank agreement
  (:func:`rank_agreement`) of every run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Sequence, Tuple

from repro.core.activity import ActivityResult
from repro.core.power import dynamic_power, estimate_power
from repro.estimate.workload import estimate_workload
from repro.netlist.circuit import Circuit
from repro.sim.delays import DelayModel
from repro.sim.vectors import StimulusSpec
from repro.tech.area import AreaModel
from repro.tech.clock import ClockTreeModel
from repro.tech.library import TechnologyLibrary


def transition_instant_sets(
    circuit: Circuit, delay_model: DelayModel
) -> Dict[int, FrozenSet[int]]:
    """Per-net set of distinct potential transition instants per cycle.

    Primary inputs and flipflop outputs switch only at the clock edge
    (one instant, t=0).  A combinational output can change at
    ``t + d`` for every distinct instant *t* at which any of its
    inputs can change, so the instant sets propagate through one
    topological pass; their sizes bound how many times each net can
    evaluate per cycle.  Constant-driven and undriven nets never
    transition (zero instants — no entry here).  Sets are bounded by
    the critical path length, so the pass is cheap even on deep
    circuits.
    """
    empty: FrozenSet[int] = frozenset()
    edge: FrozenSet[int] = frozenset({0})
    instants: Dict[int, FrozenSet[int]] = {n: edge for n in circuit.inputs}
    for cell in circuit.cells:
        if cell.is_sequential:
            for out in cell.outputs:
                instants[out] = edge
    for cell in circuit.topological_cells():
        arrivals: FrozenSet[int] = empty
        for n in cell.inputs:
            arrivals |= instants.get(n, empty)
        for pos, out in enumerate(cell.outputs):
            d = delay_model.delay(cell, pos)
            instants[out] = frozenset(t + d for t in arrivals)
    return instants


def transition_instants(
    circuit: Circuit, delay_model: DelayModel
) -> Dict[int, int]:
    """Per-net **count** of potential transition instants per cycle.

    The size projection of :func:`transition_instant_sets` — the
    glitch multiplier :func:`estimated_cost` feeds into the analytic
    power term.
    """
    sets = transition_instant_sets(circuit, delay_model)
    return {net: len(times) for net, times in sets.items()}


@dataclass(frozen=True)
class CostVector:
    """The three minimised objectives plus pipeline-latency metadata.

    The Pareto axes are dynamic power, die area, and the critical path
    (*period*, in delay-model units — the minimum clock period, which
    is what retiming buys in exchange for flipflop and clock power).
    *latency* is the number of extra pipeline stages (added
    input-to-output clock cycles); it is constrained
    (``ExploreSpace.max_latency``) and reported, but not a dominance
    axis — a deeper pipeline at the same period, area and power is not
    a better design, it is the same point paid for twice.
    """

    power_mw: float
    area_mm2: float
    latency: int
    period: int = 0

    def objectives(self) -> Tuple[float, float, float]:
        return (self.power_mw, self.area_mm2, float(self.period))

    def dominates(self, other: "CostVector") -> bool:
        """Weak dominance: no objective worse, at least one better."""
        a, b = self.objectives(), other.objectives()
        return all(x <= y for x, y in zip(a, b)) and a != b

    def to_dict(self) -> Dict[str, float]:
        return {
            "power_mW": round(self.power_mw, 6),
            "area_mm2": round(self.area_mm2, 6),
            "latency": self.latency,
            "period": self.period,
        }

    @staticmethod
    def from_dict(doc: Dict[str, float]) -> "CostVector":
        return CostVector(
            power_mw=float(doc["power_mW"]),
            area_mm2=float(doc["area_mm2"]),
            latency=int(doc["latency"]),
            period=int(doc.get("period", 0)),
        )


@dataclass(frozen=True)
class CostContext:
    """The shared evaluation regime: technology, clock rate, models."""

    frequency: float = 5e6
    tech: TechnologyLibrary | None = None
    clock_model: ClockTreeModel | None = None
    area_model: AreaModel | None = None

    def resolved(
        self,
    ) -> Tuple[float, TechnologyLibrary, ClockTreeModel, AreaModel]:
        return (
            self.frequency,
            self.tech or TechnologyLibrary(),
            self.clock_model or ClockTreeModel(),
            self.area_model or AreaModel(),
        )

    @property
    def cacheable(self) -> bool:
        """Whether whole-exploration results under this regime may cache.

        Only the default technology/clock/area models are content-
        addressable (a custom subclass can change behaviour without
        changing any hashed field), so supplying any model instance
        disables the whole-result cache — per-candidate *simulation*
        entries are unaffected, they do not depend on the cost models.
        """
        return (
            self.tech is None
            and self.clock_model is None
            and self.area_model is None
        )

    def fingerprint_fields(self) -> Tuple:
        """The cache-identity of this regime (default models only)."""
        _, tech, clock_model, area_model = self.resolved()
        return (
            self.frequency,
            tech.name,
            tech.vdd,
            tech.ff_energy_per_cycle,
            clock_model.base_cap,
            clock_model.cap_per_ff,
            area_model.utilisation,
            area_model.overhead_mm2,
        )


def structural_metrics(
    circuit: Circuit,
    delay_model: DelayModel,
    context: CostContext,
    latency: int,
) -> Tuple[float, int]:
    """``(area_mm2, period)`` — exact, simulation-free objectives."""
    _, tech, _, area_model = context.resolved()
    return (
        area_model.circuit_area_mm2(circuit, tech),
        circuit.critical_path_length(
            lambda cell, pos: delay_model.delay(cell, pos)
        ),
    )


def estimated_cost(
    circuit: Circuit,
    delay_model: DelayModel,
    stimulus: StimulusSpec,
    context: CostContext,
    latency: int = 0,
) -> CostVector:
    """Analytic cost: fused useful-rate × glitch-multiplier power.

    Per net, estimated transitions per cycle are the workload's
    zero-delay useful rate times the net's transition-instant count;
    half of those are rises, billed through paper eq. 1.  Flipflop and
    clock power use the exact structural counts, and flipflop output
    nets are excluded from the logic component — the same accounting
    as :func:`repro.core.power.estimate_power`, so the two cost paths
    differ only in how glitches enter the logic term.
    """
    estimate = estimate_workload(circuit, stimulus)
    instants = transition_instants(circuit, delay_model)
    period = circuit.critical_path_length(
        lambda cell, pos: delay_model.delay(cell, pos)
    )
    return estimated_cost_from(
        circuit, context, latency, estimate, instants, period
    )


def _power_from_estimate(
    circuit: Circuit,
    context: CostContext,
    estimate,
    instant_counts: Dict[int, int],
) -> float:
    """Total analytic power (W) from an estimate + instant counts."""
    frequency, tech, clock_model, _ = context.resolved()
    ff_outputs = {
        c.outputs[0] for c in circuit.cells if c.is_sequential
    }
    logic = 0.0
    for net in estimate.monitored:
        if net in ff_outputs:
            continue
        rate = estimate.activities.get(net, 0.0) * instant_counts.get(net, 0)
        if rate <= 0.0:
            continue
        logic += dynamic_power(
            rate / 2.0,
            tech.net_load_capacitance(circuit, net),
            tech.vdd,
            frequency,
        )
    n_ff = circuit.num_flipflops
    return (
        logic
        + n_ff * tech.ff_average_power(frequency)
        + clock_model.power(n_ff, tech.vdd, frequency)
    )


def estimated_cost_from(
    circuit: Circuit,
    context: CostContext,
    latency: int,
    estimate,
    instant_counts: Dict[int, int],
    period: int,
) -> CostVector:
    """Assemble :func:`estimated_cost`'s :class:`CostVector`.

    Takes the already-computed ingredients — the workload estimate,
    the per-net instant counts and the critical path — and adds the
    analytic power (:func:`_power_from_estimate`) and the area.
    """
    _, tech, _, area_model = context.resolved()
    power = _power_from_estimate(circuit, context, estimate, instant_counts)
    area = area_model.circuit_area_mm2(circuit, tech)
    return CostVector(
        power_mw=power * 1e3, area_mm2=area, latency=latency, period=period
    )


def simulated_cost(
    circuit: Circuit,
    activity: ActivityResult,
    delay_model: DelayModel,
    context: CostContext,
    latency: int = 0,
) -> CostVector:
    """Exact cost from a glitch-exact simulation of *circuit*."""
    frequency, tech, clock_model, _ = context.resolved()
    breakdown = estimate_power(
        circuit, activity, frequency, tech, clock_model
    )
    area, period = structural_metrics(circuit, delay_model, context, latency)
    return CostVector(
        power_mw=breakdown.total * 1e3,
        area_mm2=area,
        latency=latency,
        period=period,
    )


def rank_agreement(
    estimated: Sequence[float], simulated: Sequence[float]
) -> float:
    """Kendall rank correlation between the two power orderings.

    1.0 means the analytic estimator ordered every candidate pair the
    same way glitch-exact simulation did (pruning on estimates was
    safe); values near 0 mean the estimate carried no ranking signal
    for this space and sim verification of the full space is
    mandatory.  Pairs tied on either side count as half-concordant.
    """
    if len(estimated) != len(simulated):
        raise ValueError("rank_agreement needs paired sequences")
    n = len(estimated)
    if n < 2:
        return 1.0
    concordant = 0.0
    pairs = 0
    for i in range(n):
        for j in range(i + 1, n):
            de = estimated[i] - estimated[j]
            ds = simulated[i] - simulated[j]
            pairs += 1
            if de == 0.0 or ds == 0.0:
                concordant += 0.5
            elif (de > 0.0) == (ds > 0.0):
                concordant += 1.0
    return round(2.0 * concordant / pairs - 1.0, 4)
