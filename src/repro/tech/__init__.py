"""Technology model: capacitance, energy and area of a 0.8 um / 5 V
CMOS standard-cell process.

The paper's Section 5 experiment uses layout extraction plus
circuit-level simulation of four real 0.8 um layouts.  We do not have
that testbed; this package is the substitution: a calibrated
capacitance/energy model that feeds the same three-way power split —
combinational logic, flipflops, clock line — from simulated transition
counts (the power model of the README's "Architecture" section, layer
4).  Default constants are calibrated so the paper's Table 3
magnitudes (mW at 5 MHz, pF of clock load, mm^2 of area) come out in
the right range.
"""

from repro import _lazy_exports

__getattr__, __dir__, __all__ = _lazy_exports(globals(), {
    ".library": ("TechnologyLibrary", "CellElectrical"),
    ".clock": ("ClockTreeModel",),
    ".area": ("AreaModel",),
})
