"""Unit tests for the technology model (capacitance, clock, area)."""

import pytest

from repro.netlist.cells import CellKind
from repro.netlist.circuit import Circuit
from repro.tech.area import AreaModel
from repro.tech.clock import ClockTreeModel
from repro.tech.library import CellElectrical, TechnologyLibrary


class TestLoadCapacitance:
    def _fanout_circuit(self, fanout: int) -> tuple[Circuit, int]:
        c = Circuit("t")
        a = c.add_input("a")
        y = c.gate(CellKind.NOT, a, name="drv")
        for i in range(fanout):
            c.mark_output(c.gate(CellKind.BUF, y, name=f"ld{i}"))
        return c, y

    def test_cap_by_hand(self):
        tech = TechnologyLibrary()
        c, y = self._fanout_circuit(3)
        inv = tech.electrical(CellKind.NOT)
        buf = tech.electrical(CellKind.BUF)
        expected = inv.output_cap + 3 * (buf.input_cap + tech.wire_cap_per_fanout)
        assert tech.net_loads(c)[y] == pytest.approx(expected)

    def test_cap_grows_with_fanout(self):
        tech = TechnologyLibrary()
        caps = []
        for fo in (1, 2, 5):
            c, y = self._fanout_circuit(fo)
            caps.append(tech.net_loads(c)[y])
        assert caps == sorted(caps)
        assert caps[2] > caps[0]

    def test_primary_input_net_has_no_driver_cap(self):
        tech = TechnologyLibrary()
        c = Circuit("t")
        a = c.add_input("a")
        c.mark_output(c.gate(CellKind.BUF, a))
        buf = tech.electrical(CellKind.BUF)
        assert tech.net_loads(c)[a] == pytest.approx(
            buf.input_cap + tech.wire_cap_per_fanout
        )

    def test_unknown_kind_rejected(self):
        tech = TechnologyLibrary(cells={})
        c, y = self._fanout_circuit(1)
        with pytest.raises(KeyError):
            tech.net_loads(c)

    def test_scaled_voltage_and_caps(self):
        tech = TechnologyLibrary()
        low = tech.scaled(voltage=3.3, cap_scale=0.5)
        assert low.vdd == 3.3
        assert low.wire_cap_per_fanout == pytest.approx(
            tech.wire_cap_per_fanout / 2
        )
        assert low.electrical(CellKind.NOT).input_cap == pytest.approx(
            tech.electrical(CellKind.NOT).input_cap / 2
        )
        # Area does not scale with capacitance scaling.
        assert low.electrical(CellKind.NOT).area_um2 == tech.electrical(
            CellKind.NOT
        ).area_um2


class TestClockModel:
    def test_affine_in_ff_count(self):
        m = ClockTreeModel()
        c0, c1, c2 = m.capacitance(0), m.capacitance(100), m.capacitance(200)
        assert c2 - c1 == pytest.approx(c1 - c0)

    def test_paper_table3_loads(self):
        """Defaults were fitted to Table 3: ~3.2 pF @ 48 FFs, ~19.9 pF @ 350."""
        m = ClockTreeModel()
        assert m.capacitance(48) * 1e12 == pytest.approx(3.2, rel=0.05)
        assert m.capacitance(350) * 1e12 == pytest.approx(19.9, rel=0.05)

    def test_power_formula(self):
        m = ClockTreeModel()
        assert m.power(100, 5.0, 1e6) == pytest.approx(
            m.capacitance(100) * 25 * 1e6
        )

    def test_bad_arguments(self):
        m = ClockTreeModel()
        with pytest.raises(ValueError):
            m.capacitance(-1)
        with pytest.raises(ValueError):
            m.power(10, 0, 1e6)


class TestAreaModel:
    def test_monotone_in_cells(self):
        tech = TechnologyLibrary()
        model = AreaModel()
        small = Circuit("s")
        a = small.add_input("a")
        small.mark_output(small.gate(CellKind.NOT, a))
        big = Circuit("b")
        a = big.add_input("a")
        n = a
        for i in range(50):
            n = big.gate(CellKind.NOT, n, name=f"g{i}")
        big.mark_output(n)
        assert model.circuit_area_mm2(big, tech) > model.circuit_area_mm2(
            small, tech
        )

    def test_utilisation_guard(self):
        tech = TechnologyLibrary()
        c = Circuit("t")
        a = c.add_input("a")
        c.mark_output(c.gate(CellKind.NOT, a))
        with pytest.raises(ValueError):
            AreaModel(utilisation=0.0).circuit_area_mm2(c, tech)

    def test_paper_area_range(self):
        """Detector variants should land in the paper's 0.7-1.3 mm^2 band."""
        from repro.circuits.direction_detector import build_direction_detector

        tech = TechnologyLibrary()
        model = AreaModel()
        c, _ = build_direction_detector(width=8, register_inputs=True)
        area = model.circuit_area_mm2(c, tech)
        assert 0.4 < area < 1.5


class TestCellElectrical:
    def test_frozen(self):
        e = CellElectrical(1e-15, 2e-15, 100.0)
        with pytest.raises(Exception):
            e.input_cap = 0.0
