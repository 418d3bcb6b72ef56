"""Netlist optimisation passes.

The paper's conclusion names two glitch-reduction levers:

1. *"balancing delay paths"* — implemented by
   :func:`repro.opt.balance.balance_paths`, which pads every
   combinational cell input with delay buffers until all of a cell's
   inputs arrive simultaneously.  Under integer delays this provably
   eliminates **all** useless transitions (each net then toggles at
   most once per cycle), realising the paper's ``1 + L/F`` reduction
   bound at the cost of buffer area and buffer switching power.
2. *"introducing flipflops in the circuit"* — implemented by
   :mod:`repro.retime`.

:mod:`repro.opt.transform` provides the supporting netlist clean-up
passes (dead-cell elimination, constant propagation, buffer removal)
used when comparing optimised variants fairly.
"""

from repro import _lazy_exports

__getattr__, __dir__, __all__ = _lazy_exports(globals(), {
    ".balance": ("balance_paths", "balancing_report"),
    ".transform": (
        "dead_cell_elimination",
        "propagate_constants",
        "strip_buffers",
    ),
})
