"""Pipelining = seeded registers + minimum-period retiming.

The paper's Table 3 circuits are "each retimed for a different clock
frequency, resulting in more or less pipeline flipflops".
:func:`pipeline_circuit` reproduces that flow: seed *stages* extra
register levels on the primary-output edges of the retiming graph,
then run FEAS to pull them back into the combinational fabric at the
minimum achievable period (or a caller-specified target period).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from repro.netlist.circuit import Circuit
from repro.retime.apply import apply_retiming
from repro.retime.graph import RetimingGraph
from repro.retime.leiserson_saxe import feas, minimum_period
from repro.sim.delays import DelayModel, UnitDelay


@dataclass
class PipelineResult:
    """Outcome of :func:`pipeline_circuit`.

    Attributes
    ----------
    circuit:
        The pipelined netlist.
    period:
        The clock period (in delay-model units) the retiming achieves.
    latency:
        Extra clock cycles of input-to-output latency added by the
        seeded stages (equal to the requested *stages*).
    retiming:
        The vertex lag assignment that produced the circuit.
    flipflops:
        Flipflop count of the pipelined circuit (with chain sharing).
    """

    circuit: Circuit
    period: int
    latency: int
    retiming: Dict[int, int]
    flipflops: int


def pipeline_circuit(
    circuit: Circuit,
    stages: int,
    delay_model: DelayModel | None = None,
    period: int | None = None,
    name: str | None = None,
    graph: RetimingGraph | None = None,
) -> PipelineResult:
    """Pipeline *circuit* with *stages* additional register levels.

    With ``stages=0`` and ``period=None`` this degenerates to plain
    minimum-period retiming of the existing registers.  When *period*
    is given, FEAS must achieve it with the seeded registers or a
    ``ValueError`` is raised; otherwise
    :func:`~repro.retime.leiserson_saxe.minimum_period` finds the
    minimum, one FEAS probe at its path bound on a feed-forward graph.

    *graph* lets callers that pipeline the same circuit at several
    depths (the design-space explorer expands ``retime(stages=k)`` for
    a range of *k*) reuse one extracted
    :meth:`RetimingGraph.from_circuit` instead of re-walking the
    netlist per depth; it must have been built from *circuit* under
    *delay_model*.
    """
    if stages < 0:
        raise ValueError("stage count cannot be negative")
    delay_model = delay_model or UnitDelay()
    if graph is None:
        graph = RetimingGraph.from_circuit(circuit, delay_model)
    elif graph.circuit is not circuit:
        raise ValueError("graph was built from a different circuit")
    graph = graph.with_output_stages(stages)
    if period is None:
        achieved, r = minimum_period(graph)
    else:
        r = feas(graph, period)
        if r is None:
            raise ValueError(
                f"period {period} infeasible with {stages} pipeline stages"
            )
        achieved = period
    new_circuit = apply_retiming(
        graph, r, name=name or f"{circuit.name}_p{stages}"
    )
    return PipelineResult(
        circuit=new_circuit,
        period=achieved,
        latency=stages,
        retiming=r,
        flipflops=new_circuit.num_flipflops,
    )
