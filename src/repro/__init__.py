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

``import repro`` loads none of the layers: each public name imports its
module on first use.  See the README's "Architecture" section for the
system inventory and its "Verifying" section for the pinned paper
numbers.
"""

__version__ = "1.2.0"


def _lazy_exports(namespace, exports):
    """Resolve a package's public names on first access (PEP 562).

    *exports* maps each module, relative to the package, to the names
    the package re-exports from it.  Importing the package imports none
    of them: the first access to a name imports its module and stores
    the value in the package, so later lookups are plain attribute
    reads.  Returns the package's ``__getattr__``, ``__dir__`` and
    ``__all__``.
    """
    from importlib import import_module

    package = namespace["__name__"]
    origin = {name: module for module, names in exports.items() for name in names}

    def __getattr__(name):
        module = origin.get(name)
        if module is None:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = namespace[name] = getattr(import_module(module, package), name)
        return value

    def __dir__():
        return sorted(namespace.keys() | origin.keys())

    return __getattr__, __dir__, list(origin)


__getattr__, __dir__, __all__ = _lazy_exports(globals(), {
    ".core": (
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
    ),
    ".netlist": ("Circuit", "CellKind", "compile_circuit", "validate"),
    ".sim": (
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
    ),
    ".circuits": (
        "build_rca_circuit",
        "build_multiplier_circuit",
        "build_direction_detector",
        "build_named_circuit",
    ),
    ".service": (
        "BatchScheduler",
        "JobSpec",
        "ResultStore",
        "RunKey",
        "cached_estimate",
        "cached_run",
        "configure_default_store",
    ),
    ".estimate": (
        "EstimateResult",
        "estimate_workload",
        "input_statistics",
        "signal_probabilities",
        "switching_activity",
        "transition_densities",
    ),
    ".retime": ("pipeline_circuit", "RetimingGraph", "minimum_period"),
    ".opt": ("balance_paths", "balancing_report"),
    ".tech": ("TechnologyLibrary", "ClockTreeModel", "AreaModel"),
})
__all__.append("__version__")
