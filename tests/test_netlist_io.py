"""Unit tests for netlist JSON round-trip and DOT export."""

import json
import random

import pytest

from repro.netlist.cells import CellKind
from repro.netlist.circuit import Circuit
from repro.netlist.io import circuit_from_json, circuit_to_dot, circuit_to_json
from repro.circuits.adders import build_rca_circuit

from tests.conftest import random_dag_circuit


class TestJsonRoundTrip:
    def test_structure_preserved(self):
        c, _ = build_rca_circuit(4)
        back = circuit_from_json(circuit_to_json(c))
        assert back.name == c.name
        assert [n.name for n in back.nets] == [n.name for n in c.nets]
        assert back.inputs == c.inputs
        assert back.outputs == c.outputs
        assert [(x.name, x.kind, x.inputs, x.outputs) for x in back.cells] == [
            (x.name, x.kind, x.inputs, x.outputs) for x in c.cells
        ]

    def test_function_preserved(self):
        c, ports = build_rca_circuit(4)
        back = circuit_from_json(circuit_to_json(c))
        for a in range(16):
            for b in range(0, 16, 3):
                bits = [
                    (a >> i) & 1 for i in range(4)
                ] + [(b >> i) & 1 for i in range(4)] + [0]
                v1, _ = c.evaluate(bits)
                v2, _ = back.evaluate(bits)
                assert all(v1[n] == v2[n] for n in c.outputs)

    def test_delay_hint_is_rejected(self):
        """A netlist holds no delays: export writes none, and import
        rejects a cell that carries one, naming it."""
        c = Circuit("t")
        a = c.add_input("a")
        c.add_cell(CellKind.NOT, [a], name="g")
        doc = json.loads(circuit_to_json(c))
        assert "delay_hint" not in doc["cells"][0]
        doc["cells"][0]["delay_hint"] = [3]
        with pytest.raises(ValueError, match="cell 'g' carries a delay_hint"):
            circuit_from_json(json.dumps(doc))

    def test_flipflops_round_trip(self):
        c = Circuit("t")
        d = c.add_input("d")
        q = c.add_dff(d, name="ff")
        c.mark_output(q)
        back = circuit_from_json(circuit_to_json(c))
        assert back.num_flipflops == 1

    def test_random_circuits_round_trip(self):
        rng = random.Random(7)
        for _ in range(5):
            c = random_dag_circuit(rng, with_ffs=True)
            back = circuit_from_json(circuit_to_json(c))
            assert len(back.cells) == len(c.cells)
            assert back.outputs == c.outputs

    def test_bad_schema_rejected(self):
        doc = json.loads(circuit_to_json(Circuit("t")))
        doc["schema"] = 99
        with pytest.raises(ValueError, match="schema"):
            circuit_from_json(json.dumps(doc))

    def test_indent_option_is_valid_json(self):
        c, _ = build_rca_circuit(2)
        text = circuit_to_json(c, indent=2)
        assert json.loads(text)["name"] == c.name


class TestDotExport:
    def test_contains_cells_and_edges(self):
        c = Circuit("t")
        a, b = c.add_input("a"), c.add_input("b")
        y = c.gate(CellKind.AND, a, b, name="g")
        c.mark_output(y, "y")
        dot = circuit_to_dot(c)
        assert dot.startswith('digraph "t"')
        assert "AND" in dot
        assert dot.count("->") == 3  # two input edges + one output edge

    def test_size_guard(self):
        c, _ = build_rca_circuit(8)
        with pytest.raises(ValueError, match="max_cells"):
            circuit_to_dot(c, max_cells=2)

    def test_ff_shape(self):
        c = Circuit("t")
        d = c.add_input("d")
        q = c.add_dff(d, name="ff")
        c.mark_output(q)
        assert "shape=box" in circuit_to_dot(c)


class TestWordsFromInputs:
    def test_buses_grouped_lsb_first(self):
        from repro.circuits.adders import build_rca_circuit
        from repro.netlist.io import words_from_inputs

        circuit, ports = build_rca_circuit(6, with_cin=False)
        words = words_from_inputs(circuit)
        assert words == {"a": ports["a"], "b": ports["b"]}

    def test_scalars_become_one_bit_words(self):
        from repro.netlist.cells import CellKind
        from repro.netlist.circuit import Circuit
        from repro.netlist.io import words_from_inputs

        c = Circuit("t")
        en = c.add_input("enable")
        d = c.add_input_word("d", 3)
        c.mark_output(c.gate(CellKind.AND, en, d[0]))
        words = words_from_inputs(c)
        assert words == {"enable": [en], "d": d}
        assert list(words) == ["enable", "d"]  # first-appearance order

    def test_sparse_bit_indices_sorted(self):
        from repro.netlist.circuit import Circuit
        from repro.netlist.io import words_from_inputs

        c = Circuit("t")
        b2 = c.add_input("x[2]")
        b0 = c.add_input("x[0]")
        words = words_from_inputs(c)
        assert words == {"x": [b0, b2]}

    def test_scalar_bus_collision_rejected(self):
        from repro.netlist.circuit import Circuit
        from repro.netlist.io import words_from_inputs

        c = Circuit("t")
        c.add_input("a")
        c.add_input("a[0]")
        with pytest.raises(ValueError, match="scalar and as a bus"):
            words_from_inputs(c)

    def test_json_roundtrip_preserves_derived_words(self):
        from repro.circuits.catalog import build_named_circuit
        from repro.netlist.io import (
            circuit_from_json,
            circuit_to_json,
            words_from_inputs,
        )

        circuit, stim = build_named_circuit("array4")
        back = circuit_from_json(circuit_to_json(circuit))
        words = words_from_inputs(back)
        assert {k: len(v) for k, v in words.items()} == {
            k: len(v) for k, v in stim.words.items()
        }
        # Same net *names* per word slot, so streams replay identically.
        for name, nets in stim.words.items():
            assert [back.net_name(n) for n in words[name]] == [
                circuit.net_name(n) for n in nets
            ]
