"""Unit tests for structural validation."""

import pytest

from repro.netlist.cells import CellKind
from repro.netlist.circuit import Circuit
from repro.netlist.validate import ValidationError, validate


def codes(issues):
    return sorted(i.code for i in issues)


class TestValidate:
    def test_clean_circuit(self):
        c = Circuit("t")
        a, b = c.add_input("a"), c.add_input("b")
        y = c.gate(CellKind.AND, a, b)
        c.mark_output(y)
        assert validate(c) == []

    def test_undriven_input_net(self):
        c = Circuit("t")
        a = c.add_input("a")
        dangling = c.new_net("dangling")
        y = c.gate(CellKind.AND, a, dangling)
        c.mark_output(y)
        issues = validate(c)
        assert "undriven" in codes(issues)
        assert any(i.severity == "error" for i in issues)

    def test_floating_output_warning(self):
        c = Circuit("t")
        a = c.add_input("a")
        c.gate(CellKind.NOT, a)  # never consumed, never an output
        issues = validate(c)
        assert codes(issues) == ["floating"]
        assert issues[0].severity == "warning"

    def test_undriven_primary_output_warning(self):
        c = Circuit("t")
        n = c.new_net("x")
        c.mark_output(n)
        assert "undriven-output" in codes(validate(c))

    def test_comb_cycle_reported(self):
        c = Circuit("t")
        a = c.add_input("a")
        fb = c.new_net("fb")
        y = c.gate(CellKind.AND, a, fb)
        c.add_cell(CellKind.NOT, [y], [fb])
        c.mark_output(fb)
        assert "comb-cycle" in codes(validate(c))

    def test_strict_raises_on_error(self):
        c = Circuit("t")
        a = c.add_input("a")
        dangling = c.new_net("d")
        y = c.gate(CellKind.AND, a, dangling)
        c.mark_output(y)
        with pytest.raises(ValidationError):
            validate(c, strict=True)

    def test_strict_tolerates_warnings(self):
        c = Circuit("t")
        a = c.add_input("a")
        c.gate(CellKind.NOT, a)  # floating -> warning only
        issues = validate(c, strict=True)
        assert codes(issues) == ["floating"]

    def test_issue_str_format(self):
        c = Circuit("t")
        a = c.add_input("a")
        c.gate(CellKind.NOT, a)
        text = str(validate(c)[0])
        assert "[warning]" in text and "floating" in text

    def test_paper_circuits_are_clean(self):
        from repro.circuits.adders import build_rca_circuit
        from repro.circuits.direction_detector import build_direction_detector
        from repro.circuits.multipliers import build_multiplier_circuit

        for builder in (
            lambda: build_rca_circuit(8)[0],
            lambda: build_multiplier_circuit(6, "array")[0],
            lambda: build_multiplier_circuit(6, "wallace")[0],
            lambda: build_direction_detector(width=4, threshold=5)[0],
        ):
            assert validate(builder()) == []

    def test_reads_the_flat_lists(self, monkeypatch):
        """No check builds a ``Net`` view, so a net read by thousands of
        cells costs one pass, not one copy of its readers per pin."""
        c = Circuit("t")
        en, a, b = c.add_input("en"), c.add_input("a"), c.add_input("b")
        c.mark_output(c.gate(CellKind.AND, a, c.new_net("dangling")))
        c.gate(CellKind.NOT, a, name="lonely")
        c.mark_output(c.gate(CellKind.BUF, a, output=b))
        for i in range(2000):
            c.mark_output(c.gate(CellKind.AND, en, a, name=f"g{i}"))

        def no_view(self, n):
            raise AssertionError(f"validate built the view of net {n}")

        monkeypatch.setattr(Circuit, "_net_row", no_view)
        assert codes(validate(c)) == ["driven-input", "floating", "undriven"]
