"""Gate/cell-level netlist data model.

A :class:`~repro.netlist.circuit.Circuit` is a flat network of
multi-output cells connected by single-driver nets, with designated
primary inputs, primary outputs and D-flipflops.  This is the substrate
on which the event-driven simulator (:mod:`repro.sim`), the retiming
engine (:mod:`repro.retime`) and the transition-activity analysis
(:mod:`repro.core`) operate.
"""

from repro import _lazy_exports

__getattr__, __dir__, __all__ = _lazy_exports(globals(), {
    ".cells": (
        "CellKind",
        "Cell",
        "COMBINATIONAL_KINDS",
        "SEQUENTIAL_KINDS",
        "evaluate_kind",
    ),
    ".circuit": ("Circuit", "Net"),
    ".compiled": (
        "CompiledCircuit",
        "circuit_fingerprint",
        "compile_circuit",
        "delay_fingerprint",
    ),
    ".validate": ("ValidationIssue", "ValidationError", "validate"),
    ".io": ("circuit_to_json", "circuit_from_json", "circuit_to_dot"),
})
# The submodule of the same name would shadow a lazy binding once it
# loads, so the function is bound now.
validate = __getattr__("validate")
