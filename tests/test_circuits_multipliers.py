"""Functional and structural tests for the multipliers."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.circuits.multipliers import (
    array_multiplier,
    build_multiplier_circuit,
    wallace_tree_multiplier,
)
from repro.netlist.circuit import Circuit, int_to_bits
from repro.netlist.validate import validate
from repro.sim.engine import Simulator
from repro.sim.vectors import WordStimulus


@pytest.mark.parametrize("architecture", ["array", "wallace"])
def test_exhaustive_4x4(architecture):
    c, ports = build_multiplier_circuit(4, architecture)
    assert not [i for i in validate(c) if i.severity == "error"]
    for x in range(16):
        for y in range(16):
            bits = int_to_bits(x, 4) + int_to_bits(y, 4)
            values, _ = c.evaluate(bits)
            got = sum(values[n] << i for i, n in enumerate(ports["product"]))
            assert got == x * y, (architecture, x, y)


@pytest.mark.parametrize("architecture", ["array", "wallace"])
@settings(max_examples=40, deadline=None)
@given(
    x=st.integers(min_value=0, max_value=255),
    y=st.integers(min_value=0, max_value=255),
)
def test_random_8x8_property(architecture, x, y):
    c, ports = build_multiplier_circuit(8, architecture)
    bits = int_to_bits(x, 8) + int_to_bits(y, 8)
    values, _ = c.evaluate(bits)
    got = sum(values[n] << i for i, n in enumerate(ports["product"]))
    assert got == x * y


@pytest.mark.parametrize("architecture", ["array", "wallace"])
def test_event_simulation_matches(architecture, rng):
    c, ports = build_multiplier_circuit(8, architecture)
    stim = WordStimulus({"x": ports["x"], "y": ports["y"]})
    sim = Simulator(c)
    sim.settle(stim.vector(x=0, y=0))
    for _ in range(60):
        x, y = rng.randint(0, 255), rng.randint(0, 255)
        sim.step(stim.vector(x=x, y=y))
        assert sim.word_value(ports["product"]) == x * y


@pytest.mark.parametrize("architecture", ["array", "wallace"])
def test_rectangular_operands(architecture):
    c = Circuit("rect")
    x = c.add_input_word("x", 6)
    y = c.add_input_word("y", 3)
    builder = array_multiplier if architecture == "array" else wallace_tree_multiplier
    product = builder(c, x, y)
    c.mark_output_word(product, "p")
    assert len(product) == 9
    for xv in (0, 5, 63):
        for yv in range(8):
            bits = int_to_bits(xv, 6) + int_to_bits(yv, 3)
            values, _ = c.evaluate(bits)
            got = sum(values[n] << i for i, n in enumerate(product))
            assert got == xv * yv


class TestStructure:
    def test_partial_product_count(self):
        c, _ = build_multiplier_circuit(8, "array")
        hist = c.kind_histogram()
        assert hist["AND"] == 64  # the 8x8 AND matrix

    @pytest.mark.parametrize("n,max_layers", [(8, 4), (16, 6)])
    def test_wallace_reduction_is_logarithmic(self, n, max_layers):
        """Column heights shrink by ~2/3 per layer (Dadda sequence)."""
        c, _ = build_multiplier_circuit(n, "wallace")
        layers = {
            int(cell.name.split("_l")[1].split("_")[0])
            for cell in c.cells
            if "_l" in cell.name and cell.kind.value in ("FA", "HA")
        }
        assert max(layers) + 1 <= max_layers

    def test_array_rows_are_linear(self):
        """The array has one carry-save row per multiplier bit."""
        c, _ = build_multiplier_circuit(8, "array")
        rows = {
            int(cell.name.split("_fa")[1].split("_")[0])
            for cell in c.cells
            if "_fa" in cell.name and cell.kind.value == "FA"
        }
        assert rows == set(range(2, 8))  # rows 2..7 are full FA rows

    def test_product_width(self):
        for n in (2, 3, 5):
            for arch in ("array", "wallace"):
                _, ports = build_multiplier_circuit(n, arch)
                assert len(ports["product"]) == 2 * n

    def test_unknown_architecture_rejected(self):
        with pytest.raises(ValueError, match="unknown architecture"):
            build_multiplier_circuit(8, "booth")

    def test_degenerate_width_rejected(self):
        c = Circuit("t")
        with pytest.raises(ValueError):
            array_multiplier(c, [], [])


def test_glitchiness_ordering(rng):
    """The paper's Table 1 headline: array glitches far more than wallace."""
    from repro.core.activity import analyze

    ratios = {}
    for arch in ("array", "wallace"):
        c, ports = build_multiplier_circuit(8, arch)
        stim = WordStimulus({"x": ports["x"], "y": ports["y"]})
        result = analyze(c, stim.random(rng, 151))
        ratios[arch] = result.useless_useful_ratio()
    assert ratios["array"] > 2 * ratios["wallace"]


class TestFarmStamping:
    """The farm's stamped tiles equal a per-cell build of the same farm."""

    @staticmethod
    def _per_cell_farm(n_bits, min_cells):
        """The farm built one cell at a time, every tile through
        ``array_multiplier``, as the farm was built before tile stamping)."""
        from math import ceil

        def rotated(word, k):
            k %= len(word)
            return word[k:] + word[:k]

        probe = Circuit("probe")
        array_multiplier(
            probe, probe.add_input_word("x", n_bits),
            probe.add_input_word("y", n_bits), prefix="t0",
        )
        tiles = max(1, ceil(min_cells / len(probe.cell_kinds)))
        c = Circuit(f"farm{n_bits}")
        x = c.add_input_word("x", n_bits)
        y = c.add_input_word("y", n_bits)
        products = []
        for t in range(tiles):
            p = array_multiplier(c, rotated(x, t), rotated(y, 2 * t), prefix=f"t{t}")
            c.mark_output_word(p, f"p{t}")
            products.append(p)
        return c, products

    @pytest.mark.parametrize("n_bits, min_cells", [(4, 100), (4, 1), (8, 2000)])
    def test_stamped_equals_per_cell(self, n_bits, min_cells):
        from repro.circuits.farm import build_multiplier_farm

        farm, ports = build_multiplier_farm(n_bits, min_cells)
        oracle, products = self._per_cell_farm(n_bits, min_cells)
        for column in (
            "cell_kinds", "cell_inputs", "cell_outputs", "cell_names",
            "net_names", "net_driver", "inputs", "outputs",
            "_net_by_name", "_cell_by_name", "_anon_net", "_anon_cell",
        ):
            assert getattr(farm, column) == getattr(oracle, column), column
        assert ports["products"] == products
        assert farm.fingerprint() == oracle.fingerprint()

    def test_name_table_holds_the_pins_ints(self):
        """One int object per net: the name table files every stamped net
        under the object its pins hold."""
        from repro.circuits.farm import build_multiplier_farm

        farm, _ = build_multiplier_farm(8, 2000)
        by_name, names = farm._net_by_name, farm.net_names
        assert len(names) > 1000  # past the interpreter's small-int cache
        for pins in (*farm.cell_inputs, *farm.cell_outputs):
            assert all(by_name[names[n]] is n for n in pins)
