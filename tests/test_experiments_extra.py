"""Shape tests for the extension experiments (balance, video) and the
public API surface."""

import pytest

from repro.experiments.balance import (
    balancing_vs_retiming_experiment,
    format_balance_comparison,
)
from repro.experiments.video import video_vs_random_experiment

pytestmark = pytest.mark.integration


class TestBalanceExperiment:
    @pytest.fixture(scope="class")
    def data(self):
        return balancing_vs_retiming_experiment(n_bits=10, n_vectors=120)

    def test_balanced_variant_glitch_free(self, data):
        assert data["rows"]["balanced"]["useless"] == 0
        assert data["rows"]["balanced"]["L/F"] == 0.0

    def test_pipelined_variant_reduces_glitches(self, data):
        assert (
            data["rows"]["pipelined"]["useless"]
            < data["rows"]["original"]["useless"]
        )

    def test_costs_reported(self, data):
        rows = data["rows"]
        assert rows["balanced"]["cells"] > rows["original"]["cells"]
        assert rows["pipelined"]["flipflops"] > 0
        assert rows["balanced"]["area_mm2"] > rows["original"]["area_mm2"]
        assert data["buffers_inserted"] > 0

    def test_formatting(self, data):
        text = format_balance_comparison(data)
        assert "balanced" in text and "pipelined" in text


class TestVideoExperiment:
    @pytest.fixture(scope="class")
    def data(self):
        return video_vs_random_experiment(width=16, height=8, n_fields=2)

    def test_equal_workloads(self, data):
        assert data["video"]["cycles"] == data["random"]["cycles"]

    def test_both_glitch_dominated(self, data):
        assert data["video"]["L/F"] > 1.5
        assert data["random"]["L/F"] > 1.5

    def test_site_count(self, data):
        assert data["sites"] == 2 * (8 - 1) * 16 - 1


class TestPublicApi:
    def test_all_exports_resolve(self):
        import repro

        for name in repro.__all__:
            assert getattr(repro, name) is not None, name

    def test_version(self):
        """The package ships the version ``repro.__version__`` states.

        pyproject.toml declares the version dynamic and names that
        attribute, which setuptools reads as a literal from the source.
        """
        import ast
        import re
        from pathlib import Path

        import repro

        root = Path(__file__).resolve().parent.parent
        pyproject = (root / "pyproject.toml").read_text()
        project = pyproject.split("\n[project]\n", 1)[1].split("\n[", 1)[0]
        assert re.search(r'^dynamic = \["version"\]$', project, re.M)
        assert not re.search(r"^version\s*=", project, re.M)
        assert 'version = { attr = "repro.__version__" }' in pyproject
        tree = ast.parse((root / "src" / "repro" / "__init__.py").read_text())
        (literal,) = [
            ast.literal_eval(node.value)
            for node in tree.body
            if isinstance(node, ast.Assign)
            and [getattr(t, "id", None) for t in node.targets] == ["__version__"]
        ]
        assert literal == repro.__version__
        assert re.fullmatch(r"\d+\.\d+\.\d+", repro.__version__)

    def test_subpackage_exports_resolve(self):
        import repro.circuits as c
        import repro.core as core
        import repro.estimate as est
        import repro.netlist as nl
        import repro.opt as opt
        import repro.retime as rt
        import repro.sim as sim
        import repro.tech as tech
        import repro.video as video

        for module in (c, core, est, nl, opt, rt, sim, tech, video):
            for name in module.__all__:
                assert getattr(module, name) is not None, (module, name)
