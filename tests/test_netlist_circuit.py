"""Unit tests for the Circuit container."""

import gc
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.circuits.catalog import build_named_circuit
from repro.netlist.cells import CellKind
from repro.netlist.circuit import Circuit, int_to_bits, word_value
from repro.netlist.compiled import compile_circuit
from repro.sim.delays import PerKindDelay, UnitDelay

from tests.conftest import random_dag_circuit


class TestConstruction:
    def test_nets_and_names(self):
        c = Circuit("t")
        n = c.new_net("x")
        assert c.net("x") == n
        assert c.net_name(n) == "x"
        assert "x" in c

    def test_duplicate_net_name_rejected(self):
        c = Circuit("t")
        c.new_net("x")
        with pytest.raises(ValueError, match="duplicate"):
            c.new_net("x")

    def test_anonymous_names_skip_taken(self):
        c = Circuit("t")
        c.new_net("n0")
        auto = c.new_net()
        assert c.net_name(auto) != "n0"

    def test_input_word_lsb_first(self):
        c = Circuit("t")
        w = c.add_input_word("a", 4)
        assert [c.net_name(n) for n in w] == ["a[0]", "a[1]", "a[2]", "a[3]"]
        assert c.inputs == w

    def test_single_driver_enforced(self):
        c = Circuit("t")
        a, b = c.add_input("a"), c.add_input("b")
        y = c.gate(CellKind.AND, a, b, name="g1")
        with pytest.raises(ValueError, match="already driven"):
            c.add_cell(CellKind.OR, [a, b], [y], name="g2")

    def test_driving_missing_net_rejected(self):
        c = Circuit("t")
        a = c.add_input("a")
        with pytest.raises(ValueError, match="no such net"):
            c.add_cell(CellKind.NOT, [a], [999])

    @pytest.mark.parametrize(
        "kind,inputs,outputs",
        [
            (CellKind.AND, [], None),
            (CellKind.AND, ["a", 99], None),
            (CellKind.FA, ["a", "a"], None),
            (CellKind.FA, ["a", "a", "a"], ["x", "x"]),
        ],
        ids=["and-no-inputs", "and-bad-index", "fa-short", "fa-one-net-twice"],
    )
    def test_rejected_cell_leaves_no_nets(self, kind, inputs, outputs):
        c = Circuit("t")
        named = {"a": c.add_input("a"), "x": c.new_net("x")}
        nets, version, fp = len(c.nets), c.version, c.fingerprint()
        with pytest.raises(ValueError):
            c.add_cell(
                kind,
                [named.get(n, n) for n in inputs],
                None if outputs is None else [named[n] for n in outputs],
            )
        assert len(c.nets) == nets
        assert c.version == version
        assert c.fingerprint() == fp
        assert c.nets[named["x"]].driver is None

    def test_duplicate_cell_name_rejected(self):
        c = Circuit("t")
        a = c.add_input("a")
        c.gate(CellKind.NOT, a, name="g")
        with pytest.raises(ValueError, match="duplicate cell"):
            c.gate(CellKind.NOT, a, name="g")

    def test_fanout_tracks_duplicate_pins(self):
        c = Circuit("t")
        a = c.add_input("a")
        c.gate(CellKind.XOR, a, a, name="g")
        assert c.nets[a].fanout == [0, 0]

    def test_mark_output_alias(self):
        c = Circuit("t")
        a = c.add_input("a")
        y = c.gate(CellKind.NOT, a)
        c.mark_output(y, "result")
        assert c.net("result") == y

    def test_gate_returns_output_net(self):
        c = Circuit("t")
        a = c.add_input("a")
        y = c.gate(CellKind.NOT, a)
        assert c.nets[y].driver == (0, 0)

    def test_dff_word(self):
        c = Circuit("t")
        w = c.add_input_word("d", 3)
        q = c.add_dff_word(w, name="r")
        assert len(q) == 3
        assert c.num_flipflops == 3
        assert all(cell.kind is CellKind.DFF for cell in c.flipflops)


class TestStructureQueries:
    def _chain(self, depth: int) -> Circuit:
        c = Circuit("chain")
        n = c.add_input("a")
        for i in range(depth):
            n = c.gate(CellKind.NOT, n, name=f"inv{i}")
        c.mark_output(n, "y")
        return c

    def test_topological_order_respects_deps(self):
        c = self._chain(5)
        order = [cell.name for cell in c.topological_cells()]
        assert order == [f"inv{i}" for i in range(5)]

    def test_combinational_cycle_detected(self):
        c = Circuit("loop")
        a = c.add_input("a")
        fb = c.new_net("fb")
        y = c.gate(CellKind.AND, a, fb, name="g1")
        c.add_cell(CellKind.NOT, [y], [fb], name="g2")
        with pytest.raises(ValueError, match="cycle"):
            c.topological_cells()

    def test_dff_breaks_cycle(self):
        c = Circuit("counter_bit")
        q = c.new_net("q")
        nq = c.gate(CellKind.NOT, q, name="inv")
        c.add_cell(CellKind.DFF, [nq], [q], name="ff")
        assert [cell.name for cell in c.topological_cells()] == ["inv"]

    def test_levelize_unit(self):
        c = self._chain(4)
        level = compile_circuit(c, UnitDelay()).levels
        assert level[c.net("y")] == 4

    def test_levelize_custom_delay(self):
        c = self._chain(3)
        level = compile_circuit(c, PerKindDelay({}, default=5)).levels
        assert level[c.net("y")] == 15

    def test_critical_path_includes_ff_inputs(self):
        c = Circuit("t")
        a = c.add_input("a")
        x = c.gate(CellKind.NOT, a, name="g0")
        x = c.gate(CellKind.NOT, x, name="g1")
        c.add_dff(x, name="ff")  # FF D pin is a timing endpoint
        assert c.critical_path_length() == 2

    def test_kind_histogram(self):
        c = self._chain(3)
        assert c.kind_histogram() == {"NOT": 3}


class TestFunctionalEvaluate:
    def test_combinational(self):
        c = Circuit("t")
        a, b = c.add_input("a"), c.add_input("b")
        y = c.gate(CellKind.XOR, a, b, name="g")
        c.mark_output(y, "y")
        for av in (0, 1):
            for bv in (0, 1):
                values, state = c.evaluate([av, bv])
                assert values[y] == av ^ bv
                assert state == {}

    def test_wrong_input_count(self):
        c = Circuit("t")
        c.add_input("a")
        with pytest.raises(ValueError, match="expected 1"):
            c.evaluate([0, 1])

    def test_state_advance(self):
        c = Circuit("t")
        d = c.add_input("d")
        q = c.add_dff(d, name="ff")
        c.mark_output(q, "q")
        ff_index = c.flipflops[0].index
        values, state = c.evaluate([1], state={})
        assert values[q] == 0  # old state visible this cycle
        assert state[ff_index] == 1  # new value captured for next cycle
        values, state = c.evaluate([0], state=state)
        assert values[q] == 1

    def test_two_stage_shift_register(self):
        c = Circuit("t")
        d = c.add_input("d")
        q1 = c.add_dff(d, name="ff1")
        q2 = c.add_dff(q1, name="ff2")
        c.mark_output(q2, "q")
        state: dict = {}
        seen = []
        stream = [1, 0, 1, 1, 0, 0, 1]
        for bit in stream:
            values, state = c.evaluate([bit], state)
            seen.append(values[q2])
        assert seen == [0, 0] + stream[:-2]


class TestWordHelpers:
    def test_word_value_and_int_to_bits_roundtrip(self):
        bits = int_to_bits(0b1011, 6)
        assert bits == [1, 1, 0, 1, 0, 0]
        values = {i: b for i, b in enumerate(bits)}
        assert word_value(values, range(6)) == 0b1011

    def test_int_to_bits_rejects_negative(self):
        with pytest.raises(ValueError):
            int_to_bits(-1, 4)


def _recount(circuit):
    """Each net's driver and fanout, recounted from the cell values."""
    drivers = [None] * len(circuit.nets)
    fanout = [[] for _ in circuit.nets]
    for cell in circuit.cells:
        for pos, out in enumerate(cell.outputs):
            drivers[out] = (cell.index, pos)
        for n in cell.inputs:
            fanout[n].append(cell.index)
    return drivers, fanout


def _assert_nets_match_cells(circuit):
    drivers, fanout = _recount(circuit)
    assert [net.driver for net in circuit.nets] == drivers
    assert [net.fanout for net in circuit.nets] == fanout
    assert [net.index for net in circuit.nets] == list(range(len(drivers)))


class TestFlatNetlist:
    """The netlist lives in flat lists; ``cells`` and ``nets`` are views."""

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**31),
        loops=st.integers(min_value=0, max_value=2),
    )
    def test_net_views_match_a_recount(self, seed, loops):
        rng = random.Random(seed)
        c = random_dag_circuit(
            rng, n_inputs=4, n_gates=14, with_ffs=True, loops=loops
        )
        _assert_nets_match_cells(c)
        # A fanout read between two add_cell calls must not go stale.
        probe = rng.randrange(len(c.nets))
        before = c.nets[probe].fanout
        c.add_cell(CellKind.XOR, [probe, probe], name="late_xor")
        assert c.nets[probe].fanout == before + [len(c.cells) - 1] * 2
        c.gate(CellKind.NOT, probe, name="late_not")
        _assert_nets_match_cells(c)

    def test_views_are_values_of_the_lists(self):
        c = Circuit("t")
        a, b = c.add_input("a"), c.add_input("b")
        s, co = c.add_cell(CellKind.HA, [a, b], name="ha").outputs
        c.gate(CellKind.NOT, co, name="inv")
        assert len(c.cells) == 2 and len(c.nets) == 5
        assert [cell.name for cell in c.cells] == c.cell_names
        assert c.cells[-1] == c.cell("inv")
        assert [cell.name for cell in c.cells[::-1]] == ["inv", "ha"]
        assert c.nets[co].driver == (0, 1)
        with pytest.raises(IndexError):
            c.cells[2]
        with pytest.raises(AttributeError):
            c.cells.append(None)  # read-only: grow through add_cell

    def test_build_leaves_no_per_cell_objects(self):
        build_named_circuit("array16")  # imports and module caches
        gc.collect()
        before = len(gc.get_objects())
        circuit, _ = build_named_circuit("array16")
        gc.collect()
        assert len(gc.get_objects()) - before < 100
        assert len(circuit.cells) == 496


# ---------------------------------------------------------------------------
# Bulk construction: add_nets / add_cells check a batch by add_cell's rules
# ---------------------------------------------------------------------------

def _base() -> Circuit:
    c = Circuit("bulk")
    c.add_input_word("a", 3)
    c.new_net("free")
    c.new_net("free2")
    c.gate(CellKind.NOT, 0, name="inv")  # drives net 5
    return c


def _state(c: Circuit) -> tuple:
    return (
        c.version, c.cell_kinds[:], c.cell_inputs[:], c.cell_outputs[:],
        c.cell_names[:], c.net_names[:], c.net_driver[:],
        dict(c._net_by_name), dict(c._cell_by_name), c._anon_net,
    )


#: (kinds, inputs, outputs, names) batches whose second or only cell
#: add_cell rejects; nets 3 and 4 are free, net 5 is driven.
_BAD_BATCHES = {
    "arity": ([CellKind.NOT], [(0, 1)], [(3,)], ["g"]),
    "duplicate name": (
        [CellKind.AND, CellKind.OR], [(0, 1), (1, 2)], [(3,), (4,)], ["g", "g"],
    ),
    "existing name": ([CellKind.AND], [(0, 1)], [(3,)], ["inv"]),
    "net out of range": ([CellKind.AND], [(0, 9)], [(3,)], ["g"]),
    "output out of range": ([CellKind.AND], [(0, 1)], [(-1,)], ["g"]),
    "already driven": ([CellKind.AND], [(0, 1)], [(5,)], ["g"]),
    "driven in batch": (
        [CellKind.AND, CellKind.OR], [(0, 1), (1, 2)], [(3,), (3,)], ["g", "h"],
    ),
    "drives one net twice": ([CellKind.HA], [(0, 1)], [(3, 3)], ["h"]),
}


class TestBulkConstruction:
    @pytest.mark.parametrize("case", sorted(_BAD_BATCHES))
    def test_add_cells_rejects_like_add_cell(self, case):
        columns = _BAD_BATCHES[case]
        single = _base()
        with pytest.raises(ValueError) as one:
            for cell in zip(*columns):
                single.add_cell(*cell)
        batch = _base()
        before = _state(batch)
        with pytest.raises(ValueError) as bulk:
            batch.add_cells(*columns)
        assert str(bulk.value) == str(one.value)
        assert _state(batch) == before  # a rejected batch changes nothing

    def test_add_cells_equals_add_cell(self):
        kinds = [CellKind.AND, CellKind.FA, CellKind.XOR]
        inputs = [(0, 1), (0, 1, 2), (3, 4)]
        outputs = [(3,), (4, 6), (7,)]
        names = ["g", "f", "x"]
        single, batch = _base(), _base()
        for n in (single, batch):
            n.new_net("o1")
            n.new_net("o2")
        for cell in zip(kinds, inputs, outputs, names):
            single.add_cell(*cell)
        assert batch.add_cells(kinds, inputs, outputs, names) == range(1, 4)
        assert _state(batch)[1:] == _state(single)[1:]
        assert batch.version > _state(_base())[0]

    def test_add_nets_names_like_new_net(self):
        single, batch = Circuit("n"), Circuit("n")
        for c in (single, batch):
            c.new_net("n1")  # the anonymous counter skips taken names
        names = [None, "w", None, None]
        for name in names:
            single.new_net(name)
        assert batch.add_nets(names) == range(1, 5)
        assert batch.net_names == single.net_names == ["n1", "n0", "w", "n2", "n3"]
        assert batch._anon_net == single._anon_net
        assert batch.add_nets([None] * 3) == range(5, 8)
        assert batch.net_names[5:] == ["n4", "n5", "n6"]

    def test_add_nets_files_names_under_given_indices(self):
        c = Circuit("n")
        c.new_net("taken")
        indices = list(range(1, 401))
        before = _state(c)
        with pytest.raises(ValueError, match="differ in length"):
            c.add_nets([None] * 399, indices)
        assert _state(c) == before
        assert c.add_nets([None] * 400, indices) == range(1, 401)
        assert all(c._net_by_name[c.net_names[n]] is n for n in indices)

    @pytest.mark.parametrize("names", [["x", "y", "x"], ["y", "taken"]])
    def test_add_nets_rejects_duplicates_unchanged(self, names):
        c = Circuit("n")
        c.new_net("taken")
        before = _state(c)
        with pytest.raises(ValueError, match="duplicate net name 'x'|'taken'"):
            c.add_nets(names)
        assert _state(c) == before
