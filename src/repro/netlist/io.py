"""Netlist serialisation: JSON round-trip and Graphviz DOT export.

The JSON schema is intentionally simple and versioned so that circuits
generated by this library (or by external scripts) can be stored next
to experiment results and re-simulated later.
"""

from __future__ import annotations

import json
import re
from typing import Any, Dict, List

from repro.netlist.cells import CellKind
from repro.netlist.circuit import Circuit

SCHEMA_VERSION = 1

_WORD_BIT = re.compile(r"^(?P<word>.+)\[(?P<bit>\d+)\]$")


def words_from_inputs(circuit: Circuit) -> Dict[str, List[int]]:
    """Group *circuit*'s primary inputs into named words.

    Inputs following the library's bus convention (``a[0]``, ``a[1]``,
    ...) are collected into one word per prefix, ordered by bit index
    (LSB first); any other input becomes a one-bit word under its own
    name.  This is how externally generated netlists (``repro import``)
    and serialized exploration candidates get a
    :class:`~repro.sim.vectors.WordStimulus` without the original
    construction-time port map.  Word order follows first appearance
    in ``circuit.inputs``, so the derived stimulus is deterministic.
    """
    words: Dict[str, Dict[int, int]] = {}
    singles: Dict[str, List[int]] = {}
    order: List[str] = []
    for net in circuit.inputs:
        name = circuit.net_name(net)
        m = _WORD_BIT.match(name)
        if m:
            word, bit = m.group("word"), int(m.group("bit"))
            if word not in words and word not in singles:
                order.append(word)
            words.setdefault(word, {})[bit] = net
        else:
            if name not in words and name not in singles:
                order.append(name)
            singles[name] = [net]
    out: Dict[str, List[int]] = {}
    for name in order:
        if name in words and name in singles:
            raise ValueError(
                f"input {name!r} exists both as a scalar and as a bus; "
                "rename one to derive a word stimulus"
            )
        if name in words:
            bits = words[name]
            out[name] = [bits[b] for b in sorted(bits)]
        else:
            out[name] = singles[name]
    return out


def circuit_to_json(circuit: Circuit, indent: int | None = None) -> str:
    """Serialise *circuit* to a JSON string (schema v1)."""
    doc: dict[str, Any] = {
        "schema": SCHEMA_VERSION,
        "name": circuit.name,
        "nets": list(circuit.net_names),
        "inputs": list(circuit.inputs),
        "outputs": list(circuit.outputs),
        "cells": [
            {
                "name": name,
                "kind": kind.value,
                "inputs": list(ins),
                "outputs": list(outs),
            }
            for name, kind, ins, outs in zip(
                circuit.cell_names, circuit.cell_kinds, circuit.cell_inputs,
                circuit.cell_outputs,
            )
        ],
    }
    return json.dumps(doc, indent=indent)


def circuit_from_json(text: str) -> Circuit:
    """Rebuild a :class:`Circuit` from :func:`circuit_to_json` output.

    A cell carrying a ``delay_hint`` is rejected: delays come from the
    delay model (:mod:`repro.sim.delays`), never from the netlist.
    """
    doc = json.loads(text)
    if doc.get("schema") != SCHEMA_VERSION:
        raise ValueError(f"unsupported netlist schema {doc.get('schema')!r}")
    cells = doc["cells"]
    for cd in cells:
        if "delay_hint" in cd:
            raise ValueError(
                f"cell {cd.get('name')!r} carries a delay_hint; a netlist holds "
                "no delays, the delay model times every cell (--delay)"
            )
    circuit = Circuit(doc["name"])
    nets = circuit.add_nets(doc["nets"])
    input_set = set(doc["inputs"])
    circuit.inputs.extend([i for i in nets if i in input_set])
    circuit.add_cells(
        [CellKind(cd["kind"]) for cd in cells],
        [cd["inputs"] for cd in cells],
        [cd["outputs"] for cd in cells],
        [cd["name"] for cd in cells],
    )
    for out in doc["outputs"]:
        circuit.mark_output(out)
    return circuit


_DOT_SHAPE = {
    CellKind.DFF: "box",
    CellKind.FA: "house",
    CellKind.HA: "house",
}


def circuit_to_dot(circuit: Circuit, max_cells: int = 2000) -> str:
    """Render *circuit* as a Graphviz digraph (cells as nodes).

    Raises ``ValueError`` above *max_cells* to avoid producing
    unrenderable graphs by accident.
    """
    kinds, driver = circuit.cell_kinds, circuit.net_driver
    if len(kinds) > max_cells:
        raise ValueError(
            f"{circuit.name} has {len(kinds)} cells "
            f"(max_cells={max_cells}); raise the limit explicitly"
        )
    lines = [f'digraph "{circuit.name}" {{', "  rankdir=LR;"]
    for n in circuit.inputs:
        lines.append(
            f'  "pi_{n}" [label="{circuit.net_name(n)}" shape=triangle];'
        )
    for ci, (name, kind) in enumerate(zip(circuit.cell_names, kinds)):
        shape = _DOT_SHAPE.get(kind, "ellipse")
        lines.append(
            f'  "c{ci}" [label="{name}\\n{kind.value}" shape={shape}];'
        )
    for ci, ins in enumerate(circuit.cell_inputs):
        for n in ins:
            src = f"c{driver[n]}" if driver[n] >= 0 else f"pi_{n}"
            lines.append(f'  "{src}" -> "c{ci}";')
    for i, out in enumerate(circuit.outputs):
        lines.append(f'  "po_{i}" [label="{circuit.net_name(out)}" shape=invtriangle];')
        src = f"c{driver[out]}" if driver[out] >= 0 else f"pi_{out}"
        lines.append(f'  "{src}" -> "po_{i}";')
    lines.append("}")
    return "\n".join(lines)
