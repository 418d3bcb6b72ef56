"""Unit tests for the three-component power model (paper Section 5)."""

import pytest

from repro.core.activity import analyze
from repro.core.power import PowerBreakdown, dynamic_power, estimate_power
from repro.netlist.cells import CellKind
from repro.netlist.circuit import Circuit
from repro.tech.clock import ClockTreeModel
from repro.tech.library import TechnologyLibrary


class TestDynamicPower:
    def test_equation_1(self):
        # p=0.5, C=1pF, 5V, 10MHz -> 0.5 * 1e-12 * 25 * 1e7 = 125 uW
        assert dynamic_power(0.5, 1e-12, 5.0, 1e7) == pytest.approx(125e-6)

    def test_transition_probability_may_exceed_one(self):
        """Glitchy nodes rise more than once per cycle on average."""
        assert dynamic_power(2.5, 1e-12, 5.0, 1e7) == pytest.approx(625e-6)

    @pytest.mark.parametrize(
        "p,c,v,f",
        [(-0.1, 1e-12, 5, 1e6), (0.5, -1e-12, 5, 1e6),
         (0.5, 1e-12, 0, 1e6), (0.5, 1e-12, 5, 0)],
    )
    def test_rejects_bad_arguments(self, p, c, v, f):
        with pytest.raises(ValueError):
            dynamic_power(p, c, v, f)


class TestBreakdown:
    def test_total_and_milliwatts(self):
        b = PowerBreakdown(logic=0.010, flipflop=0.002, clock=0.001)
        assert b.total == pytest.approx(0.013)
        mw = b.as_milliwatts()
        assert mw["logic_mW"] == 10.0
        assert mw["total_mW"] == 13.0


class TestEstimatePower:
    def _buffer_circuit(self):
        c = Circuit("buf")
        a = c.add_input("a")
        y = c.new_net("y")
        c.gate(CellKind.BUF, a, output=y, name="b")
        c.mark_output(y)
        return c

    def test_hand_computed_logic_power(self):
        """One buffer toggling every cycle: power computable by hand."""
        c = self._buffer_circuit()
        vectors = [[k % 2] for k in range(11)]  # warm-up + 10 cycles
        activity = analyze(c, vectors)
        tech = TechnologyLibrary()
        clock = ClockTreeModel()
        f = 1e6
        breakdown = estimate_power(c, activity, f, tech, clock)
        # y rises 5 times in 10 cycles -> p_rise = 0.5.
        cap = tech.net_loads(c)[c.net("y")]
        assert breakdown.logic == pytest.approx(0.5 * cap * tech.vdd**2 * f)
        assert breakdown.flipflop == 0.0
        assert breakdown.clock == pytest.approx(
            clock.capacitance(0) * tech.vdd**2 * f
        )

    def test_ff_outputs_excluded_from_logic(self):
        c = Circuit("t")
        a = c.add_input("a")
        q = c.add_dff(a, name="ff")
        c.mark_output(q)
        activity = analyze(c, [[k % 2] for k in range(11)])
        breakdown = estimate_power(c, activity, 1e6)
        assert breakdown.logic == 0.0  # the only toggling net is a Q
        assert breakdown.flipflop > 0.0

    def test_flipflop_power_linear_in_count(self):
        tech = TechnologyLibrary()
        results = []
        for n in (1, 4):
            c = Circuit(f"t{n}")
            a = c.add_input("a")
            net = a
            for i in range(n):
                net = c.add_dff(net, name=f"ff{i}")
            c.mark_output(net)
            activity = analyze(c, [[k % 2] for k in range(6)])
            results.append(estimate_power(c, activity, 1e6, tech).flipflop)
        assert results[1] == pytest.approx(4 * results[0])

    def test_reads_the_count_columns(self, monkeypatch):
        """A column result is priced without building per-net records,
        and prices as its record form does."""
        from repro.circuits.catalog import build_named_circuit
        from repro.core.activity import ActivityResult, ActivityRun
        from repro.core.transitions import CountColumns
        from repro.sim.vectors import UniformStimulus

        c, stim = build_named_circuit("rca8")
        columns = ActivityRun(c).run(UniformStimulus(seed=2).vectors(stim, 41))
        records = ActivityResult(
            columns.circuit_name, columns.delay_description, columns.cycles,
            per_node=columns.counts.records(),
        )
        expected = estimate_power(c, records, 5e6)

        def no_records(self):
            raise AssertionError("estimate_power built per-net records")

        monkeypatch.setattr(CountColumns, "records", no_records)
        assert estimate_power(c, columns, 5e6) == expected
        assert columns._per_node is None

    def test_requires_cycles(self):
        c = self._buffer_circuit()
        from repro.core.activity import ActivityResult

        with pytest.raises(ValueError, match="no counted cycles"):
            estimate_power(c, ActivityResult("buf", "unit"), 1e6)

    def test_paper_magnitudes_at_48_ffs(self):
        """Calibration check: 48 FFs at 5 MHz give paper-like FF/clock power."""
        tech = TechnologyLibrary()
        clock = ClockTreeModel()
        ff_mw = 48 * tech.ff_average_power(5e6) * 1e3
        clk_mw = clock.power(48, tech.vdd, 5e6) * 1e3
        assert ff_mw == pytest.approx(0.9, rel=0.05)  # paper: 0.9 mW
        assert clk_mw == pytest.approx(0.5, rel=0.3)  # paper: 0.5 mW
