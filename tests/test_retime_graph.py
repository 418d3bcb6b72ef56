"""Unit tests for retiming-graph extraction."""

import pytest

from repro.netlist.cells import CellKind
from repro.netlist.circuit import Circuit
from repro.retime.graph import HOST, HOST_OUT, HOST_OUT_SLOT, HOST_SLOT, RetimingGraph


def _pipelined_pair():
    """in -> g1 -> FF -> FF -> g2 -> out (edge weight 2 between g1, g2)."""
    c = Circuit("t")
    a = c.add_input("a")
    x = c.gate(CellKind.NOT, a, name="g1")
    q1 = c.add_dff(x, name="ff1")
    q2 = c.add_dff(q1, name="ff2")
    y = c.gate(CellKind.NOT, q2, name="g2")
    c.mark_output(y)
    return c


class TestExtraction:
    def test_dff_chain_collapses_to_weight(self):
        c = _pipelined_pair()
        g = RetimingGraph.from_circuit(c)
        g1, g2 = g.slot[c.cell("g1").index], g.slot[c.cell("g2").index]
        e = next(e for e, (s, d) in enumerate(zip(g.src, g.dst)) if (s, d) == (g1, g2))
        assert g.weight[e] == 2
        assert g.src_net[e] == c.cell("g1").outputs[0]

    def test_host_edges(self):
        c = _pipelined_pair()
        g = RetimingGraph.from_circuit(c)
        assert HOST_SLOT in g.src  # input edge
        assert HOST_OUT_SLOT in g.dst  # output edge

    def test_vertex_delays_default_unit(self):
        c = _pipelined_pair()
        g = RetimingGraph.from_circuit(c)
        assert g.delay[c.cell("g1").index] == 1
        assert g.delay[HOST] == 0
        assert g.delay[HOST_OUT] == 0

    def test_fa_vertex_delay_is_max_output(self):
        from repro.sim.delays import SumCarryDelay

        c = Circuit("t")
        a, b, ci = (c.add_input(x) for x in "abc")
        cell = c.add_cell(CellKind.FA, [a, b, ci], name="fa")
        for out in cell.outputs:
            c.mark_output(out)
        g = RetimingGraph.from_circuit(c, SumCarryDelay(dsum=2, dcarry=1))
        assert g.delay[cell.index] == 2

    def test_ff_only_cycle_rejected(self):
        c = Circuit("t")
        q1 = c.new_net("q1")
        q2 = c.add_dff(q1, name="ff2")
        c.add_cell(CellKind.DFF, [q2], [q1], name="ff1")
        c.mark_output(q1)
        with pytest.raises(ValueError, match="flipflop-only cycle"):
            RetimingGraph.from_circuit(c)

    def test_undriven_net_rejected(self):
        c = Circuit("t")
        dangling = c.new_net("d")
        y = c.gate(CellKind.NOT, dangling, name="g")
        c.mark_output(y)
        with pytest.raises(ValueError, match="undriven"):
            RetimingGraph.from_circuit(c)

    def test_passthrough_input_to_output(self):
        c = Circuit("t")
        a = c.add_input("a")
        c.mark_output(a)
        g = RetimingGraph.from_circuit(c)
        e = g.dst.index(HOST_OUT_SLOT)
        assert g.src[e] == HOST_SLOT
        assert g.weight[e] == 0


class TestRetimedWeights:
    def test_with_output_stages(self):
        c = _pipelined_pair()
        g = RetimingGraph.from_circuit(c).with_output_stages(3)
        assert g.weight[g.dst.index(HOST_OUT_SLOT)] == 3
        # non-output edges untouched
        assert g.weight[g.dst.index(g.slot[c.cell("g1").index])] == 0

    def test_negative_stage_rejected(self):
        c = _pipelined_pair()
        with pytest.raises(ValueError):
            RetimingGraph.from_circuit(c).with_output_stages(-1)

    def test_is_legal(self):
        c = _pipelined_pair()
        g = RetimingGraph.from_circuit(c)
        g1, g2 = c.cell("g1").index, c.cell("g2").index
        assert g.is_legal({g1: 0, g2: 0})
        # r(g2) = -1 moves one register forward across g2 onto the
        # output edge: w(g1->g2) = 2 - 1, w(g2->out) = 0 + 1.
        assert g.is_legal({g1: 0, g2: -1})
        # g2 has no output register to pull backward.
        assert not g.is_legal({g1: 0, g2: 1})
        # Only two registers exist between g1 and g2.
        assert not g.is_legal({g1: 0, g2: -3})
        # Host lag must stay pinned.
        assert not g.is_legal({HOST: 1, g1: 0, g2: 0})

    def test_count_flipflops_shares_chains(self):
        """Two consumers at depths 1 and 2 share one chain of 2 FFs."""
        c = Circuit("t")
        a = c.add_input("a")
        x = c.gate(CellKind.NOT, a, name="src")
        q1 = c.add_dff(x, name="ff1")
        q2 = c.add_dff(q1, name="ff2")
        y1 = c.gate(CellKind.BUF, q1, name="tap1")
        y2 = c.gate(CellKind.BUF, q2, name="tap2")
        c.mark_output(y1)
        c.mark_output(y2)
        g = RetimingGraph.from_circuit(c)
        assert g.count_flipflops() == 2  # not 1 + 2

    def test_count_flipflops_rejects_illegal(self):
        c = _pipelined_pair()
        g = RetimingGraph.from_circuit(c)
        g2 = c.cell("g2").index
        with pytest.raises(ValueError, match="illegal"):
            g.count_flipflops({g2: 5})

    def test_every_sink_pin_has_one_edge(self):
        c = _pipelined_pair()
        g = RetimingGraph.from_circuit(c)
        sinks = list(zip(g.dst, g.dst_pin))
        assert len(set(sinks)) == len(sinks)
        assert (g.slot[c.cell("g2").index], 0) in sinks
        assert (HOST_OUT_SLOT, 0) in sinks
