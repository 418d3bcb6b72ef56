"""Three-component dynamic power model (paper Section 5).

Power is split exactly the way the paper splits its measurements:

1. **combinational logic** — every 0->1 transition of a logic node
   charges that node's load from the supply: the per-net rise counts
   from simulation, times per-net load capacitance from the technology
   library, times ``Vdd^2 * f / cycles``;
2. **flipflops** — flipflop count times the pre-characterised average
   single-flipflop power at 50% input activity (paper footnote 1);
3. **clock line** — the affine clock-load model charged once per cycle.

The headline equation (paper eq. 1) is also exposed directly as
:func:`dynamic_power`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Tuple

from repro.core.activity import ActivityResult
from repro.netlist.cells import CellKind
from repro.netlist.circuit import Circuit
from repro.tech.clock import ClockTreeModel
from repro.tech.library import TechnologyLibrary


def dynamic_power(
    transition_probability: float,
    load_capacitance: float,
    vdd: float,
    frequency: float,
) -> float:
    """Paper eq. 1: ``P = p_t * C_load * Vdd^2 * f``.

    *transition_probability* is the probability of a power-consuming
    (0->1) transition per clock cycle; it may exceed 1 for glitchy
    nodes that rise several times per cycle.
    """
    if load_capacitance < 0:
        raise ValueError("capacitance cannot be negative")
    if transition_probability < 0:
        raise ValueError("transition probability cannot be negative")
    if vdd <= 0 or frequency <= 0:
        raise ValueError("vdd and frequency must be positive")
    return transition_probability * load_capacitance * vdd**2 * frequency


@dataclass(frozen=True)
class PowerBreakdown:
    """The paper's Table 3 row: logic / flipflop / clock / total watts."""

    logic: float
    flipflop: float
    clock: float

    @property
    def total(self) -> float:
        return self.logic + self.flipflop + self.clock

    def as_milliwatts(self) -> dict[str, float]:
        """All four figures in mW, rounded for reporting."""
        return {
            "logic_mW": round(self.logic * 1e3, 3),
            "flipflop_mW": round(self.flipflop * 1e3, 3),
            "clock_mW": round(self.clock * 1e3, 3),
            "total_mW": round(self.total * 1e3, 3),
        }


def power_from_rises(
    circuit: Circuit,
    rises: Iterable[Tuple[int, float]],
    frequency: float,
    tech: TechnologyLibrary | None = None,
    clock_model: ClockTreeModel | None = None,
) -> PowerBreakdown:
    """Bill ``(net, rises per cycle)`` pairs into a :class:`PowerBreakdown`.

    Each pair charges paper eq. 1 on the net's load, in the order
    given.  Flipflop output nets are excluded from the logic component
    — their switching is billed in the per-flipflop figure, matching
    the paper's accounting ("Power dissipation in the combinational
    logic was then calculated by subtracting the flipflop power from
    the simulated main power").
    """
    tech = tech or TechnologyLibrary()
    clock_model = clock_model or ClockTreeModel()
    loads = tech.net_loads(circuit)
    ff_outputs = {
        outs[0]
        for kind, outs in zip(circuit.cell_kinds, circuit.cell_outputs)
        if kind is CellKind.DFF
    }
    logic = 0.0
    for net, rate in rises:
        if rate <= 0 or net in ff_outputs:
            continue
        logic += dynamic_power(rate, loads[net], tech.vdd, frequency)
    n_ff = circuit.num_flipflops
    flipflop = n_ff * tech.ff_average_power(frequency)
    clock = clock_model.power(n_ff, tech.vdd, frequency)
    return PowerBreakdown(logic=logic, flipflop=flipflop, clock=clock)


def estimate_power(
    circuit: Circuit,
    activity: ActivityResult,
    frequency: float,
    tech: TechnologyLibrary | None = None,
    clock_model: ClockTreeModel | None = None,
) -> PowerBreakdown:
    """Estimate the three-component power of *circuit* at *frequency*.

    *activity* must come from a simulation of the same circuit; its
    per-net rise counts (averaged over the counted cycles) provide the
    transition probabilities of eq. 1, billed by
    :func:`power_from_rises`.
    """
    if activity.cycles <= 0:
        raise ValueError("activity result contains no counted cycles")
    cycles = activity.cycles
    counts = activity.counts  # the columns: no per-net record is built
    rises = ((net, r / cycles) for net, r in zip(counts.nets, counts.rises))
    return power_from_rises(circuit, rises, frequency, tech, clock_model)
