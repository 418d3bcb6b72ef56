"""repro — reproduction of Leijten, van Meerbergen & Jess,
"Analysis and Reduction of Glitches in Synchronous Networks" (DATE 1995).

The library analyses transition activity in synchronous gate-level
networks, distinguishing *useful* transitions from *useless* ones
(glitches) by per-cycle parity evaluation, and reduces glitches by
retiming/pipelining, trading combinational logic power against
flipflop and clock power.

Quick start::

    import random
    from repro import build_multiplier_circuit, analyze, WordStimulus

    circuit, ports = build_multiplier_circuit(8, "array")
    stim = WordStimulus({"x": ports["x"], "y": ports["y"]})
    result = analyze(circuit, stim.random(random.Random(1), 500))
    print(result.summary())   # total / useful / useless / L-F ratio

See DESIGN.md for the full system inventory and EXPERIMENTS.md for the
paper-vs-measured record of every reproduced table and figure.
"""

from repro.core import (
    ActivityResult,
    ActivityRun,
    NodeActivity,
    PowerBreakdown,
    analyze,
    classify_toggle_count,
    dynamic_power,
    estimate_power,
    format_table,
    rca_expected_counts,
    rca_per_bit_table,
    worst_case_probability,
    worst_case_transitions,
    worst_case_vectors,
)
from repro.netlist import Circuit, CellKind, compile_circuit, validate
from repro.sim import (
    Simulator,
    UnitDelay,
    SumCarryDelay,
    PerKindDelay,
    WordStimulus,
    StimulusSpec,
    UniformStimulus,
    CorrelatedStimulus,
    BurstMarkovStimulus,
    make_stimulus,
    EventDrivenBackend,
    LanesBackend,
    dump_vcd,
)
from repro.circuits import (
    build_rca_circuit,
    build_multiplier_circuit,
    build_direction_detector,
    build_named_circuit,
)
from repro.service import (
    BatchScheduler,
    JobSpec,
    ResultStore,
    RunKey,
    cached_estimate,
    cached_run,
    configure_default_store,
)
from repro.estimate import (
    EstimateResult,
    estimate_workload,
    input_statistics,
    signal_probabilities,
    switching_activity,
    transition_densities,
)
from repro.retime import pipeline_circuit, RetimingGraph, minimum_period
from repro.opt import balance_paths, balancing_report
from repro.tech import TechnologyLibrary, ClockTreeModel, AreaModel

__version__ = "1.0.0"

__all__ = [
    "ActivityResult",
    "ActivityRun",
    "NodeActivity",
    "PowerBreakdown",
    "analyze",
    "classify_toggle_count",
    "dynamic_power",
    "estimate_power",
    "format_table",
    "rca_expected_counts",
    "rca_per_bit_table",
    "worst_case_probability",
    "worst_case_transitions",
    "worst_case_vectors",
    "Circuit",
    "CellKind",
    "compile_circuit",
    "validate",
    "Simulator",
    "EventDrivenBackend",
    "LanesBackend",
    "UnitDelay",
    "SumCarryDelay",
    "PerKindDelay",
    "WordStimulus",
    "StimulusSpec",
    "UniformStimulus",
    "CorrelatedStimulus",
    "BurstMarkovStimulus",
    "make_stimulus",
    "dump_vcd",
    "build_rca_circuit",
    "build_multiplier_circuit",
    "build_direction_detector",
    "build_named_circuit",
    "BatchScheduler",
    "JobSpec",
    "ResultStore",
    "RunKey",
    "cached_estimate",
    "cached_run",
    "configure_default_store",
    "EstimateResult",
    "estimate_workload",
    "input_statistics",
    "signal_probabilities",
    "switching_activity",
    "transition_densities",
    "pipeline_circuit",
    "RetimingGraph",
    "minimum_period",
    "balance_paths",
    "balancing_report",
    "TechnologyLibrary",
    "ClockTreeModel",
    "AreaModel",
    "__version__",
]
