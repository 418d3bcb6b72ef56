"""Transition-activity analysis: the paper's primary contribution.

Provides the useful/useless transition classification via parity
evaluation (:mod:`repro.core.transitions`), per-circuit activity
accounting on top of the event-driven simulator
(:mod:`repro.core.activity`), the closed-form ripple-carry-adder
probability model of paper Section 3 (:mod:`repro.core.analytical`),
and the three-component dynamic power model of Section 5
(:mod:`repro.core.power`).
"""

from repro import _lazy_exports

__getattr__, __dir__, __all__ = _lazy_exports(globals(), {
    ".transitions": ("classify_toggle_count", "glitch_count", "NodeActivity"),
    ".activity": ("ActivityResult", "ActivityRun", "analyze", "accumulate_traces"),
    ".analytical": (
        "transition_ratio_sum",
        "transition_ratio_carry",
        "useful_ratio_sum",
        "useless_ratio_sum",
        "useful_ratio_carry",
        "useless_ratio_carry",
        "rca_expected_counts",
        "rca_per_bit_table",
        "worst_case_transitions",
        "worst_case_probability",
        "worst_case_vectors",
    ),
    ".power": ("dynamic_power", "PowerBreakdown", "estimate_power"),
    ".report": ("format_table",),
})
