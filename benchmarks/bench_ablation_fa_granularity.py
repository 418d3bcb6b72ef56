"""Ablation — modelling granularity: FA cells vs gate-level FAs.

README "Architecture" (the netlist layer): the paper simulates full
adders as single two-output cells ("unit delay model for every full
adder stage").  This
bench re-runs the RCA activity experiment with the FA decomposed into
XOR/AND/OR gates and compares.

Expected shape: the qualitative picture (useless transitions grow along
the carry chain, L/F near 1 for a 16-bit RCA) survives the granularity
change; absolute counts differ because the gate-level netlist has more
nodes and internal delay structure.
"""

import random

from repro.circuits.adders import build_rca_circuit
from repro.core.activity import analyze
from repro.core.report import format_table
from repro.sim.vectors import WordStimulus

from conftest import vectors


def _run(gate_level: bool, n_vectors: int):
    circuit, ports = build_rca_circuit(
        16, with_cin=True, gate_level=gate_level,
        name=f"rca16_{'gates' if gate_level else 'cells'}",
    )
    stim = WordStimulus(
        {"a": ports["a"], "b": ports["b"], "cin": [ports["cin"]]}
    )
    result = analyze(
        circuit, stim.random(random.Random(1995), n_vectors + 1)
    )
    return circuit, result


def test_ablation_fa_granularity(run_once):
    n_vectors = vectors(500, 2000)

    def experiment():
        out = {}
        for gate_level in (False, True):
            circuit, result = _run(gate_level, n_vectors)
            out["gates" if gate_level else "cells"] = {
                "cells": len(circuit.cells),
                "summary": result.summary(),
            }
        return out

    data = run_once(experiment)

    print()
    print(
        format_table(
            ["granularity", "cells", "total", "useful", "useless", "L/F"],
            [
                [
                    name,
                    d["cells"],
                    d["summary"]["total"],
                    d["summary"]["useful"],
                    d["summary"]["useless"],
                    d["summary"]["L/F"],
                ]
                for name, d in data.items()
            ],
            title="FA modelling granularity, 16-bit RCA",
        )
    )

    cells = data["cells"]["summary"]
    gates = data["gates"]["summary"]
    assert data["gates"]["cells"] > 4 * data["cells"]["cells"]
    assert gates["total"] > cells["total"]  # more monitored nodes
    # The glitch-dominated character survives the granularity change.
    assert 0.5 < cells["L/F"] < 1.5
    assert gates["L/F"] > 0.4
