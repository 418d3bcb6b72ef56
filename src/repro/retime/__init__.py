"""Retiming and pipelining (paper Section 5).

The paper inserts flipflops "by using retiming [7][8]" to balance delay
paths and eliminate glitches.  This package implements the classical
Leiserson–Saxe framework the cited tools derive from:

* :mod:`repro.retime.graph` — extract the retiming graph
  ``G = (V, E, d, w)`` from a netlist (combinational cells as vertices,
  flipflop counts as edge weights, a host vertex for I/O), lowered
  onto flat int arrays;
* :mod:`repro.retime.leiserson_saxe` — the FEAS feasibility algorithm
  and minimum-period retiming over those arrays, probing the path bound
  ``max ceil(d(P) / (w(P) + 1))`` first;
* :mod:`repro.retime.pipeline` — pipelining: seed extra register
  stages on the output edges, then retime them into the fabric;
* :mod:`repro.retime.apply` — rebuild a netlist from a retiming
  assignment, sharing flipflop chains per driving net.
"""

from repro import _lazy_exports

__getattr__, __dir__, __all__ = _lazy_exports(globals(), {
    ".graph": ("RetimingGraph", "HOST", "HOST_OUT"),
    ".leiserson_saxe": (
        "feas",
        "minimum_period",
        "retime_for_period",
    ),
    ".pipeline": ("pipeline_circuit", "PipelineResult"),
    ".apply": ("apply_retiming",),
})
