"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import random

import pytest

from repro.netlist.cells import CellKind
from repro.netlist.circuit import Circuit
from repro.sim.delays import UnitDelay


@pytest.fixture
def rng() -> random.Random:
    """A deterministic RNG; reseed per test for reproducibility."""
    return random.Random(0xD47E1995)


@pytest.fixture
def xor_chain() -> Circuit:
    """in0 -> xor(in0, in1) -> xor(.., in2): a 2-level toy circuit."""
    c = Circuit("xor_chain")
    i0, i1, i2 = (c.add_input(f"in{k}") for k in range(3))
    x1 = c.new_net("x1")
    out = c.new_net("out")
    c.gate(CellKind.XOR, i0, i1, output=x1, name="g1")
    c.gate(CellKind.XOR, x1, i2, output=out, name="g2")
    c.mark_output(out)
    return c


@pytest.fixture
def glitchy_and() -> Circuit:
    """The canonical glitch generator: AND(a, NOT(a)).

    Under unit delay, a rising ``a`` makes the AND see (1, 1) for one
    delta before the inverter output falls, producing a 0->1->0 glitch
    at the output while the settled value never changes.
    """
    c = Circuit("glitchy_and")
    a = c.add_input("a")
    na = c.gate(CellKind.NOT, a, name="inv")
    y = c.gate(CellKind.AND, a, na, name="and")
    c.mark_output(y, "y")
    return c


def random_dag_circuit(
    rng: random.Random,
    n_inputs: int = 4,
    n_gates: int = 12,
    with_ffs: bool = False,
    loops: int = 0,
    consts: int = 0,
) -> Circuit:
    """A random combinational (optionally sequential) DAG circuit.

    Used by property-based tests: any circuit this returns is valid by
    construction (single drivers, no combinational cycles).  With
    *loops* > 0 it also closes that many DFF feedback loops: each loop
    net is readable by every gate and is driven, once all gates exist,
    by a DFF on a random gate output, so every cycle holds a register
    and none is flipflop-only.  With *consts* > 0 it first adds that
    many CONST0/CONST1 cells, each followed by an XOR fed only by
    constant-driven nets; every gate may read those nets too.
    """
    c = Circuit("random_dag")
    nets = [c.add_input(f"i{k}") for k in range(n_inputs)]
    loop_nets = [c.new_net(f"fb{k}") for k in range(loops)]
    nets.extend(loop_nets)
    const_nets: list = []
    for k in range(consts):
        kind = rng.choice([CellKind.CONST0, CellKind.CONST1])
        const_nets.append(c.add_cell(kind, [], name=f"k{k}").outputs[0])
        const_nets.append(c.gate(
            CellKind.XOR, const_nets[-1], rng.choice(const_nets), name=f"kx{k}"
        ))
    nets.extend(const_nets)
    gate_outputs = []
    one_out = [
        CellKind.NOT,
        CellKind.BUF,
        CellKind.AND,
        CellKind.OR,
        CellKind.NAND,
        CellKind.NOR,
        CellKind.XOR,
        CellKind.XNOR,
        CellKind.MUX2,
    ]
    for g in range(n_gates):
        kind = rng.choice(one_out + [CellKind.FA, CellKind.HA])
        if kind in (CellKind.NOT, CellKind.BUF):
            ins = [rng.choice(nets)]
        elif kind is CellKind.MUX2:
            ins = [rng.choice(nets) for _ in range(3)]
        elif kind is CellKind.FA:
            ins = [rng.choice(nets) for _ in range(3)]
        elif kind is CellKind.HA:
            ins = [rng.choice(nets) for _ in range(2)]
        else:
            ins = [rng.choice(nets) for _ in range(rng.randint(2, 4))]
        cell = c.add_cell(kind, ins, name=f"g{g}")
        nets.extend(cell.outputs)
        gate_outputs.extend(cell.outputs)
        if with_ffs and rng.random() < 0.2:
            q = c.add_dff(rng.choice(nets), name=f"ff{g}")
            nets.append(q)
    for k, fb in enumerate(loop_nets):
        c.add_cell(
            CellKind.DFF, [rng.choice(gate_outputs)], [fb], name=f"fbff{k}"
        )
    # Mark the last few nets as outputs so nothing useful is floating.
    for k, n in enumerate(nets[-4:]):
        c.mark_output(n, f"o{k}")
    return c


class TableDelay(UnitDelay):
    """Per-instance delays as a delay model: *table* maps a cell name to
    its output delays (unit delay past the end, and for a cell it does
    not list).  It overrides ``delay``, so a compile asks it per cell."""

    def __init__(self, table):
        self.table = dict(table)

    def delay(self, cell, position):
        own = self.table.get(cell.name, ())
        return own[position] if position < len(own) else 1

    def describe(self) -> str:
        return f"table delay over {len(self.table)} cells"


def random_table_delay(
    rng: random.Random, circuit: Circuit, lo: int = 1, hi: int = 4, max_len: int = 1,
) -> TableDelay:
    """A :class:`TableDelay` listing about half of *circuit*'s cells, each
    with 1..*max_len* delays drawn from ``lo..hi``."""
    return TableDelay({
        name: tuple(rng.randint(lo, hi) for _ in range(rng.randint(1, max_len)))
        for name in circuit.cell_names
        if rng.random() < 0.5
    })
