"""Shape tests for every experiment driver (reduced vector counts).

These tests assert the *qualitative* findings of the paper — who wins,
in which direction ratios move, where the optimum lies — rather than
absolute transition counts, as README "Verifying" describes for the
paper's experiments.
"""

import pytest

from repro.experiments.adder_sweep import (
    adder_architecture_experiment,
    format_adder_sweep,
)
from repro.experiments.detector import section42_experiment
from repro.experiments.multipliers import (
    correlation_experiment,
    format_rows,
    table1_experiment,
    table2_experiment,
)
from repro.experiments.rca import (
    figure5_experiment,
    format_figure5,
    worst_case_experiment,
)
from repro.experiments.retiming_power import (
    ff_activity_experiment,
    format_table3,
    table3_experiment,
)

pytestmark = pytest.mark.integration


class TestFigure5:
    def test_simulation_matches_analytic_model(self):
        data = figure5_experiment(n_bits=16, n_vectors=1500, seed=7)
        assert data["total_rel_error"] < 0.03
        sim = data["simulated"]
        ana = data["analytic"]
        assert sim["useful"] == pytest.approx(ana["useful"], rel=0.03)
        assert sim["useless"] == pytest.approx(ana["useless"], rel=0.05)
        assert sim["L/F"] == pytest.approx(ana["L/F"], abs=0.06)

    def test_per_bit_profile_shape(self):
        """Figure 5: sum-useless grows along the word, useful is flat."""
        data = figure5_experiment(n_bits=16, n_vectors=1000, seed=3)
        rows = data["per_bit"]
        assert rows[0]["sum_useless_sim"] == 0
        assert rows[10]["sum_useless_sim"] > rows[2]["sum_useless_sim"]
        useful = [r["sum_useful_sim"] for r in rows]
        assert max(useful) - min(useful) < 0.2 * data["n_vectors"]

    def test_formatting(self):
        data = figure5_experiment(n_bits=4, n_vectors=50)
        text = format_figure5(data)
        assert "Figure 5" in text and "bit" in text


class TestWorstCase:
    @pytest.mark.parametrize("n", [2, 5, 12])
    def test_exactly_n_toggles(self, n):
        data = worst_case_experiment(n)
        assert data["top_carry_toggles"] == n == data["bound"]


class TestTable1:
    def test_orderings(self):
        data = table1_experiment(n_vectors=150, sizes=(8,))
        by_arch = {r["architecture"]: r for r in data["rows"]}
        # Array glitches far more (paper: 1.51 vs 0.28).
        assert by_arch["array"]["L/F"] > 2 * by_arch["wallace"]["L/F"]
        assert by_arch["array"]["useless"] > by_arch["wallace"]["useless"]

    def test_array_degrades_with_size(self):
        data = table1_experiment(n_vectors=100, sizes=(8, 16))
        arr = {r["size"]: r for r in data["rows"] if r["architecture"] == "array"}
        assert arr["16x16"]["L/F"] > arr["8x8"]["L/F"]

    def test_formatting(self):
        data = table1_experiment(n_vectors=20, sizes=(8,))
        assert "architecture" in format_rows(data, "t")


class TestTable2:
    def test_imbalance_worsens_ratio(self):
        data = table2_experiment(n_vectors=150)
        rows = {
            (r["architecture"], r["delay"]): r for r in data["rows"]
        }
        for arch in ("array", "wallace"):
            balanced = rows[(arch, "dsum=dcarry")]
            skewed = rows[(arch, "dsum=2*dcarry")]
            assert skewed["L/F"] > balanced["L/F"]
            assert skewed["useful"] == balanced["useful"]  # function unchanged


class TestCorrelationAblation:
    def test_activity_drops_with_correlation(self):
        data = correlation_experiment(
            n_vectors=150, flip_probabilities=(0.5, 0.05)
        )
        arr = [r for r in data["rows"] if r["architecture"] == "array"]
        random_inputs = next(r for r in arr if r["flip_probability"] == 0.5)
        correlated = next(r for r in arr if r["flip_probability"] == 0.05)
        assert correlated["total"] < random_inputs["total"]

    def test_ordering_survives_correlation(self):
        data = correlation_experiment(
            n_vectors=150, flip_probabilities=(0.1,)
        )
        by_arch = {r["architecture"]: r for r in data["rows"]}
        assert by_arch["array"]["L/F"] > by_arch["wallace"]["L/F"]


class TestSection42:
    def test_detector_is_glitch_dominated(self):
        data = section42_experiment(n_vectors=400)
        # Paper: L/F = 3.79.  Require the qualitative regime L/F >> 1.
        assert data["L/F"] > 2.0
        assert data["reduction_bound"] == pytest.approx(1 + data["L/F"])
        assert data["useful"] + data["useless"] == data["total"]

    def test_per_stage_breakdown_present(self):
        data = section42_experiment(n_vectors=100)
        assert set(data["per_stage"]) == {"d_left", "d_mid", "d_right"}
        for stage in data["per_stage"].values():
            assert stage["total"] > 0


class TestTable3:
    @pytest.fixture(scope="class")
    def data(self):
        return table3_experiment(stages=(0, 1, 2, 4), n_vectors=80)

    def test_circuit1_has_48_flipflops(self, data):
        assert data["rows"][0]["flipflops"] == 48  # paper circuit 1

    def test_flipflops_increase_with_stages(self, data):
        ffs = [r["flipflops"] for r in data["rows"]]
        assert ffs == sorted(ffs) and ffs[-1] > ffs[0]

    def test_logic_power_decreases(self, data):
        logic = [r["logic_mW"] for r in data["rows"]]
        assert all(a > b for a, b in zip(logic, logic[1:]))
        assert data["logic_power_ratio_first_to_last"] > 2.0  # paper: 3.6

    def test_ff_and_clock_power_increase(self, data):
        for key in ("flipflop_mW", "clock_mW"):
            series = [r[key] for r in data["rows"]]
            assert all(a < b for a, b in zip(series, series[1:]))

    def test_total_power_has_interior_minimum(self, data):
        totals = [r["total_mW"] for r in data["rows"]]
        idx = data["optimum_index"]
        assert totals[idx] == min(totals)
        assert idx not in (0,), "optimum should not be the glitchiest point"

    def test_period_shrinks_with_stages(self, data):
        periods = [r["period"] for r in data["rows"]]
        assert all(a >= b for a, b in zip(periods, periods[1:]))

    def test_clock_cap_tracks_ffs(self, data):
        rows = data["rows"]
        for r in rows:
            assert r["clock_cap_pF"] == pytest.approx(
                0.55 + 0.055 * r["flipflops"], rel=0.02
            )

    def test_formatting(self, data):
        assert "Table 3" in format_table3(data)


class TestFfActivityAblation:
    def test_mean_activity_in_plausible_band(self):
        """Footnote 1 assumed 50%; measured values should be same order."""
        data = ff_activity_experiment(stages=(0, 2), n_vectors=60)
        for row in data["rows"]:
            assert 0.2 < row["mean_d_activity"] < 0.8
        assert data["assumed"] == 0.5


class TestAdderSweep:
    def test_balance_ordering(self):
        data = adder_architecture_experiment(n_bits=16, n_vectors=200)
        ratio = {r["architecture"]: r["L/F"] for r in data["rows"]}
        assert ratio["ripple"] > ratio["lookahead"] > ratio["kogge-stone"]
        assert ratio["ripple"] > ratio["carry-select"]

    def test_formatting(self):
        data = adder_architecture_experiment(n_bits=8, n_vectors=50)
        assert "kogge-stone" in format_adder_sweep(data)
