"""Unit tests for delay models."""

import pytest

from repro.netlist.cells import Cell, CellKind
from repro.sim.delays import (
    HintedDelay,
    LoadDelay,
    PerKindDelay,
    SumCarryDelay,
    UnitDelay,
    ZeroDelay,
)


def _fa():
    return Cell("fa", CellKind.FA, (0, 1, 2), (3, 4))


def _xor():
    return Cell("x", CellKind.XOR, (0, 1), (2,))


class TestUnitAndZero:
    def test_unit(self):
        m = UnitDelay()
        assert m.delay(_fa(), 0) == 1
        assert m.delay(_fa(), 1) == 1
        assert m.delay(_xor(), 0) == 1

    def test_zero(self):
        m = ZeroDelay()
        assert m.delay(_xor(), 0) == 0

    def test_describe(self):
        assert "unit" in UnitDelay().describe()
        assert "zero" in ZeroDelay().describe()


class TestPerKind:
    def test_lookup_and_default(self):
        m = PerKindDelay({CellKind.XOR: 3}, default=2)
        assert m.delay(_xor(), 0) == 3
        assert m.delay(_fa(), 0) == 2

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            PerKindDelay({CellKind.AND: -1})

    def test_negative_default_rejected(self):
        with pytest.raises(ValueError, match="negative default delay"):
            PerKindDelay({}, default=-1)
        # 0 stays legal: the batch engines reject it themselves.
        assert PerKindDelay({}, default=0).delay(_xor(), 0) == 0

    def test_describe_lists_entries(self):
        text = PerKindDelay({CellKind.XOR: 3}).describe()
        assert "XOR=3" in text


class TestSumCarry:
    def test_fa_outputs_split(self):
        m = SumCarryDelay(dsum=2, dcarry=1)
        assert m.delay(_fa(), 0) == 2  # sum
        assert m.delay(_fa(), 1) == 1  # carry

    def test_ha_also_split(self):
        m = SumCarryDelay(dsum=3, dcarry=1)
        ha = Cell("ha", CellKind.HA, (0, 1), (2, 3))
        assert m.delay(ha, 0) == 3
        assert m.delay(ha, 1) == 1

    def test_other_kinds_use_other(self):
        m = SumCarryDelay(dsum=2, dcarry=1, other=4)
        assert m.delay(_xor(), 0) == 4

    def test_rejects_sub_unit_delay(self):
        with pytest.raises(ValueError):
            SumCarryDelay(dsum=0)

    def test_describe(self):
        assert "dsum=2" in SumCarryDelay(2, 1).describe()


class TestHinted:
    def test_hint_honoured(self):
        cell = Cell("g", CellKind.XOR, (0, 1), (2,), delay_hint=(7,))
        assert HintedDelay().delay(cell, 0) == 7

    def test_fallback_without_hint(self):
        m = HintedDelay(PerKindDelay({CellKind.XOR: 5}))
        assert m.delay(_xor(), 0) == 5

    def test_hint_shorter_than_outputs(self):
        cell = Cell("fa", CellKind.FA, (0, 1, 2), (3, 4), delay_hint=(9,))
        m = HintedDelay()
        assert m.delay(cell, 0) == 9
        assert m.delay(cell, 1) == 1  # falls back for the carry


def test_compile_asks_every_cell():
    """A compile resolves each cell's own delays, so a subclass of a
    kind-only model that reads the instance (here the hint) is honoured."""
    from repro.netlist.circuit import Circuit
    from repro.netlist.compiled import compile_circuit

    class HintOrUnit(UnitDelay):
        def delay(self, cell, position):
            return cell.delay_hint[position] if cell.delay_hint else 1

    c = Circuit("t")
    a, b = c.add_input("a"), c.add_input("b")
    x = c.add_cell(CellKind.XOR, [a, b], name="x", delay_hint=(4,)).outputs[0]
    y = c.gate(CellKind.AND, a, b, name="y")
    compiled = compile_circuit(c, HintOrUnit())
    assert compiled.cell_delays == ((4,), (1,))
    assert compiled.max_delay == 4


class _HintOrUnitOverride(UnitDelay):
    """A kind-only model's subclass that reads the instance."""

    def delay(self, cell, position):
        hint = cell.delay_hint or ()
        return hint[position] + 1 if position < len(hint) else 1


def _models(c):
    return [
        UnitDelay(), SumCarryDelay(dsum=3, dcarry=1, other=2),
        PerKindDelay({CellKind.XOR: 3, CellKind.FA: 2}, default=1),
        HintedDelay(), HintedDelay(SumCarryDelay()),
        LoadDelay(c, extra_per_load=2, loads_per_unit=1),
        _HintOrUnitOverride(),
    ]


def _hinted_circuit(seed):
    """A random circuit with flipflops, constants and delay hints."""
    import random

    from repro.netlist.circuit import Circuit
    from tests.conftest import random_dag_circuit

    rng = random.Random(seed)
    base = random_dag_circuit(rng, n_gates=20, with_ffs=True, loops=1, consts=1)
    c = Circuit("hinted")
    inputs = set(base.inputs)
    for n, name in enumerate(base.net_names):
        (c.add_input if n in inputs else c.new_net)(name)
    for cell in base.cells:
        hint = None
        if rng.random() < 0.5:
            hint = tuple(rng.randint(0, 4) for _ in range(rng.randint(0, 3)))
        c.add_cell(cell.kind, cell.inputs, cell.outputs, cell.name, hint)
    return c


@pytest.mark.parametrize("seed", range(8))
def test_per_kind_resolution_equals_per_cell_delay(seed):
    """``resolve_delays`` gives what ``delay(cell, pos)`` gives per cell,
    0 for a flipflop, under every model, subclasses included."""
    from repro.netlist.compiled import resolve_delays

    c = _hinted_circuit(seed)
    for model in _models(c):
        want = tuple(
            (0,) if cell.is_sequential
            else tuple(model.delay(cell, pos) for pos in range(len(cell.outputs)))
            for cell in c.cells
        )
        assert resolve_delays(c, model) == want, model.describe()


def test_built_in_models_resolve_without_cell_views(monkeypatch):
    """The five built-in models read the flat lists; only a subclass
    that overrides ``delay`` is handed :class:`Cell` views."""
    from repro.netlist.circuit import Circuit
    from repro.netlist.compiled import resolve_delays

    c = _hinted_circuit(3)

    def no_views(self, ci):
        raise AssertionError("a Cell view was built")

    monkeypatch.setattr(Circuit, "_cell_row", no_views)
    *built_in, override = _models(c)
    for model in built_in:
        resolve_delays(c, model)
    with pytest.raises(AssertionError, match="Cell view"):
        resolve_delays(c, override)
