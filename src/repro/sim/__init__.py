"""Gate/cell-level logic simulation with pluggable backends.

Three engines run a :class:`~repro.netlist.circuit.Circuit` over the
shared compiled IR (:mod:`repro.netlist.compiled`), behind the common
:class:`~repro.sim.backends.SimBackend` protocol:

* the **event-driven** engine (:mod:`repro.sim.engine`) propagates
  value changes in integer "delta time" within each clock cycle
  (transport delay, last-write-wins per net and time slot), exactly
  the delta-time model of the paper's Figure 3 — glitches observable,
  per-cycle traces and VCD recording available;
* the **lanes** engine (:mod:`repro.sim.lanes`) packs a batch of cycles
  into per-net Python-int bitmasks and evaluates each cell once per
  batch — one lane per cycle × delta time for glitch-exact activity
  bit-identical to the event-driven engine, or one lane per cycle for
  zero-delay settled simulation under an explicit ``ZeroDelay``;
* the **vector** engine (:mod:`repro.sim.vector`, optional numpy) runs
  the same two modes as levelized ndarray operations, by far the
  fastest.

:func:`~repro.sim.backends.select_backend` maps the ``"auto"`` policy
onto this menu.  Delay models are pluggable (:mod:`repro.sim.delays`),
enabling the paper's unit-delay experiments (Table 1) and the
``dsum = 2*dcarry`` refinement (Table 2) without touching the netlist.
"""

from repro import _lazy_exports

__getattr__, __dir__, __all__ = _lazy_exports(globals(), {
    ".delays": (
        "DelayModel",
        "UnitDelay",
        "ZeroDelay",
        "PerKindDelay",
        "SumCarryDelay",
        "HintedDelay",
        "LoadDelay",
    ),
    ".engine": ("Simulator", "CycleTrace"),
    ".backends": (
        "SimBackend",
        "RunStats",
        "EventDrivenBackend",
        "LanesBackend",
        "canonical_backend",
        "get_backend",
        "select_backend",
    ),
    ".vectors": (
        "WordStimulus",
        "StimulusSpec",
        "UniformStimulus",
        "CorrelatedStimulus",
        "BurstMarkovStimulus",
        "STIMULI",
        "make_stimulus",
        "stimulus_from_dict",
        "random_words",
        "correlated_words",
        "walking_ones",
        "gray_sequence",
    ),
    ".vcd": ("VcdWriter", "dump_vcd"),
})
