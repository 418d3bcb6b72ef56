"""Structural validation of circuits.

``validate(circuit)`` returns a list of :class:`ValidationIssue`;
``validate(circuit, strict=True)`` raises :class:`ValidationError` if
any issue of severity ``"error"`` is present.  Checks:

* every cell input net is driven (by a cell or a primary input);
* no net has more than one driver (enforced at construction, re-checked);
* no combinational cycles;
* primary outputs reference existing nets;
* floating cell outputs (no fanout, not a primary output) — warning;
* primary inputs that are also driven — error.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.netlist.circuit import Circuit


@dataclass(frozen=True)
class ValidationIssue:
    """A single finding from :func:`validate`."""

    severity: str  # "error" | "warning"
    code: str
    message: str

    def __str__(self) -> str:
        return f"[{self.severity}] {self.code}: {self.message}"


class ValidationError(ValueError):
    """Raised by ``validate(..., strict=True)`` when errors are present."""

    def __init__(self, issues: List[ValidationIssue]):
        self.issues = issues
        super().__init__(
            "; ".join(str(i) for i in issues if i.severity == "error")
        )


def validate(circuit: Circuit, strict: bool = False) -> List[ValidationIssue]:
    """Run all structural checks on *circuit*."""
    issues: List[ValidationIssue] = []
    input_set = set(circuit.inputs)
    output_set = set(circuit.outputs)
    net_names, driver = circuit.net_names, circuit.net_driver
    cell_names = circuit.cell_names
    start = circuit.fanout_csr()[0]

    for n, ci in enumerate(driver):
        if ci >= 0 and n in input_set:
            issues.append(
                ValidationIssue(
                    "error",
                    "driven-input",
                    f"primary input {net_names[n]!r} is also driven by "
                    f"{cell_names[ci]!r}",
                )
            )

    for name, ins, outs in zip(cell_names, circuit.cell_inputs, circuit.cell_outputs):
        for n in ins:
            if driver[n] < 0 and n not in input_set:
                issues.append(
                    ValidationIssue(
                        "error",
                        "undriven",
                        f"cell {name!r} reads undriven net {net_names[n]!r}",
                    )
                )
        unused = [
            out
            for out in outs
            if start[out] == start[out + 1] and out not in output_set
        ]
        # A multi-output cell with at least one used output may leave
        # the others unconnected (e.g. an unused carry-out) — that is
        # normal datapath practice, not a modelling error.
        if unused and len(unused) == len(outs):
            for out in unused:
                issues.append(
                    ValidationIssue(
                        "warning",
                        "floating",
                        f"net {net_names[out]!r} driven by "
                        f"{name!r} has no fanout and is not an output",
                    )
                )

    for out in circuit.outputs:
        if not 0 <= out < len(net_names):
            issues.append(
                ValidationIssue(
                    "error", "bad-output", f"output net index {out} out of range"
                )
            )
        elif driver[out] < 0 and out not in input_set:
            issues.append(
                ValidationIssue(
                    "warning",
                    "undriven-output",
                    f"primary output {net_names[out]!r} is undriven",
                )
            )

    try:
        circuit.topological_cells()
    except ValueError as exc:
        issues.append(ValidationIssue("error", "comb-cycle", str(exc)))

    if strict and any(i.severity == "error" for i in issues):
        raise ValidationError(issues)
    return issues
