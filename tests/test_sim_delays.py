"""Unit tests for delay models."""

import pytest

from repro.netlist.cells import Cell, CellKind
from repro.sim.delays import (
    LoadDelay,
    PerKindDelay,
    SumCarryDelay,
    UnitDelay,
    ZeroDelay,
)

from tests.conftest import TableDelay, random_dag_circuit, random_table_delay


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


class _SumCarryOverride(SumCarryDelay):
    """Per-instance delays over dsum = 2·dcarry: *table* maps a cell
    name to its leading output delays, and the rest fall back to the
    per-kind model."""

    def __init__(self, table):
        super().__init__()
        self.table = dict(table)

    def delay(self, cell, position):
        own = self.table.get(cell.name, ())
        if position < len(own):
            return own[position]
        return super().delay(cell, position)


def _override_circuit():
    """``x = a ^ b`` feeding ``fa(a, b, x)``, beside ``y = a & b``."""
    from repro.netlist.circuit import Circuit

    c = Circuit("override")
    a, b = c.add_input("a"), c.add_input("b")
    x = c.gate(CellKind.XOR, a, b, name="x")
    fa = c.add_cell(CellKind.FA, [a, b, x], name="fa")
    y = c.gate(CellKind.AND, a, b, name="y")
    for n in (*fa.outputs, y):
        c.mark_output(n)
    return c


class TestInstanceOverride:
    """A per-instance delay is a delay model that overrides ``delay``:
    the compile asks it about every cell, and timing and the store key
    read what it answers."""

    def test_override_honoured(self):
        from repro.netlist.compiled import compile_circuit

        c = _override_circuit()
        model = _SumCarryOverride({"x": (7,)})
        compiled = compile_circuit(c, model)
        assert compiled.cell_delays[0] == (7,)
        assert compiled.max_delay == 7
        assert c.critical_path_length(model) == 7 + 2  # x, then the sum
        assert c.critical_path_length(SumCarryDelay()) == 1 + 2

    def test_fallback_without_override(self):
        """Cells the table does not list keep the per-kind delays, so an
        empty table times, and keys the store, like the base model."""
        from repro.netlist.compiled import compile_circuit, delay_fingerprint

        c = _override_circuit()
        compiled = compile_circuit(c, _SumCarryOverride({"x": (7,)}))
        assert compiled.cell_delays[1:] == ((2, 1), (1,))
        empty = _SumCarryOverride({})
        base = delay_fingerprint(c, SumCarryDelay())
        assert compile_circuit(c, empty) is not compile_circuit(c, SumCarryDelay())
        assert delay_fingerprint(c, empty) == base
        assert delay_fingerprint(c, _SumCarryOverride({"x": (7,)})) != base

    def test_override_shorter_than_outputs(self):
        from repro.netlist.compiled import compile_circuit

        compiled = compile_circuit(_override_circuit(), _SumCarryOverride({"fa": (9,)}))
        assert compiled.cell_delays[1] == (9, 1)  # the carry falls back
        assert compiled.max_delay == 9


def test_compile_asks_every_cell():
    """A compile resolves each cell's own delays, so a subclass of a
    kind-only model that reads the instance (here its name) is honoured."""
    from repro.netlist.circuit import Circuit
    from repro.netlist.compiled import compile_circuit

    c = Circuit("t")
    a, b = c.add_input("a"), c.add_input("b")
    c.add_cell(CellKind.XOR, [a, b], name="x")
    c.gate(CellKind.AND, a, b, name="y")
    compiled = compile_circuit(c, TableDelay({"x": (4,)}))
    assert compiled.cell_delays == ((4,), (1,))
    assert compiled.max_delay == 4


def _models(c, seed):
    """The built-in models, then a subclass that overrides ``delay``."""
    import random

    return [
        UnitDelay(), SumCarryDelay(dsum=3, dcarry=1, other=2),
        PerKindDelay({CellKind.XOR: 3, CellKind.FA: 2}, default=1),
        LoadDelay(c, extra_per_load=2, loads_per_unit=1),
        random_table_delay(random.Random(seed), c, lo=0, max_len=3),
    ]


def _circuit(seed):
    """A random circuit with flipflops and constants."""
    import random

    return random_dag_circuit(
        random.Random(seed), n_gates=20, with_ffs=True, loops=1, consts=1
    )


@pytest.mark.parametrize("seed", range(8))
def test_per_kind_resolution_equals_per_cell_delay(seed):
    """``resolve_delays`` gives what ``delay(cell, pos)`` gives per cell,
    0 for a flipflop, under every model, subclasses included."""
    from repro.netlist.compiled import resolve_delays

    c = _circuit(seed)
    for model in _models(c, seed):
        want = tuple(
            (0,) if cell.is_sequential
            else tuple(model.delay(cell, pos) for pos in range(len(cell.outputs)))
            for cell in c.cells
        )
        assert resolve_delays(c, model) == want, model.describe()


def test_built_in_models_resolve_without_cell_views(monkeypatch):
    """The built-in models read the flat lists; only a subclass
    that overrides ``delay`` is handed :class:`Cell` views."""
    from repro.netlist.circuit import Circuit
    from repro.netlist.compiled import resolve_delays

    c = _circuit(3)

    def no_views(self, ci):
        raise AssertionError("a Cell view was built")

    monkeypatch.setattr(Circuit, "_cell_row", no_views)
    *built_in, override = _models(c, 3)
    for model in built_in:
        resolve_delays(c, model)
    with pytest.raises(AssertionError, match="Cell view"):
        resolve_delays(c, override)
