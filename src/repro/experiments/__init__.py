"""Experiment drivers — one module per paper table/figure.

Each driver returns plain dict/list data (and can render a text table)
so the same code backs the CLI (``repro experiment NAME``), the
benchmarks and the examples.  The README's "Architecture" section
places them in the system and its "Verifying" section quotes the
pinned Figure 5 numbers:

* :mod:`repro.experiments.rca` — Figure 5 and the Section 3.1 worst
  case (E1, E6);
* :mod:`repro.experiments.multipliers` — Tables 1 and 2 plus the
  input-correlation ablation (E2, E3, A2);
* :mod:`repro.experiments.detector` — Section 4.2 direction-detector
  numbers (E4);
* :mod:`repro.experiments.retiming_power` — Table 3 / Figure 10 sweep
  and the flipflop-activity ablation (E5, A3);
* :mod:`repro.experiments.adder_sweep` — adder-architecture ablation
  (A1).
"""

from repro import _lazy_exports

__getattr__, __dir__, __all__ = _lazy_exports(globals(), {
    ".rca": ("figure5_experiment", "worst_case_experiment"),
    ".multipliers": (
        "table1_experiment",
        "table2_experiment",
        "correlation_experiment",
    ),
    ".detector": ("section42_experiment",),
    ".retiming_power": ("table3_experiment", "ff_activity_experiment"),
    ".adder_sweep": ("adder_architecture_experiment",),
})
