"""Parameterised generators for the paper's benchmark circuits.

All generators take a :class:`~repro.netlist.circuit.Circuit` under
construction plus input words (lists of net indices, LSB first) and
return output words.  A *prefix* argument namespaces cell and net names
so generators compose.

* :mod:`repro.circuits.primitives` — full/half adder (cell-level and
  gate-level), constants;
* :mod:`repro.circuits.adders` — ripple-carry (paper Section 3),
  carry-lookahead, carry-select, Kogge–Stone (for the architecture
  ablation);
* :mod:`repro.circuits.multipliers` — carry-save array and Wallace-tree
  multipliers (paper Section 4.1, Tables 1–2);
* :mod:`repro.circuits.comparators` — ripple comparator, min/max,
  absolute difference;
* :mod:`repro.circuits.direction_detector` — the Phideo progressive-
  scan direction detector (paper Section 4.2, Figure 8).
"""

from repro import _lazy_exports

__getattr__, __dir__, __all__ = _lazy_exports(globals(), {
    ".primitives": ("full_adder", "half_adder", "full_adder_gates", "constant_word"),
    ".adders": (
        "ripple_carry_adder",
        "build_rca_circuit",
        "carry_lookahead_adder",
        "carry_select_adder",
        "kogge_stone_adder",
    ),
    ".multipliers": (
        "array_multiplier",
        "wallace_tree_multiplier",
        "baugh_wooley_multiplier",
        "reduce_and_add_columns",
        "build_multiplier_circuit",
    ),
    ".comparators": ("greater_than", "equality", "min_max", "abs_diff", "subtractor"),
    ".direction_detector": ("build_direction_detector", "DirectionDetectorPorts"),
    ".datapath": (
        "constant_multiplier",
        "mac_unit",
        "transposed_fir",
        "reference_fir",
    ),
    ".catalog": ("build_named_circuit",),
})
