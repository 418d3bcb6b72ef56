"""Unit tests for FEAS and minimum-period retiming."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.circuits.multipliers import build_multiplier_circuit
from repro.netlist.cells import CellKind
from repro.netlist.circuit import Circuit
from repro.retime import leiserson_saxe
from repro.retime.graph import HOST, HOST_OUT, RetimingGraph
from repro.retime.leiserson_saxe import (
    _path_bound,
    feas,
    minimum_period,
    retime_for_period,
)
from repro.sim.delays import PerKindDelay, SumCarryDelay, UnitDelay
from tests import retime_oracle as oracle
from tests.conftest import random_dag_circuit


def _chain_circuit(length: int, registered_output: bool = True) -> Circuit:
    """A chain of *length* inverters with a register at the output."""
    c = Circuit("chain")
    n = c.add_input("a")
    for i in range(length):
        n = c.gate(CellKind.NOT, n, name=f"g{i}")
    if registered_output:
        n = c.add_dff(n, name="ff_out")
    c.mark_output(n)
    return c


class TestFeas:
    def test_unretimed_period_always_feasible(self):
        c = _chain_circuit(6)
        g = RetimingGraph.from_circuit(c)
        r = feas(g, 6)
        assert r is not None
        assert g.is_legal(r)

    def test_below_max_vertex_delay_infeasible(self):
        c = _chain_circuit(3)
        g = RetimingGraph.from_circuit(c, PerKindDelay({CellKind.NOT: 4}))
        assert feas(g, 3) is None

    def test_register_moves_to_split_chain(self):
        """One register + 6-deep chain: period 3 needs the FF mid-chain."""
        c = _chain_circuit(6)
        g = RetimingGraph.from_circuit(c)
        r = feas(g, 3)
        assert r is not None
        # g3, g4, g5's lag must pull the output register backward.
        lags = {c.cells[v].name: lag for v, lag in r.items() if v >= 0}
        assert any(lag > 0 for lag in lags.values())

    def test_impossible_without_enough_registers(self):
        """A 6-chain with one register cannot reach period 2."""
        c = _chain_circuit(6)
        g = RetimingGraph.from_circuit(c)
        assert feas(g, 2) is None

    def test_more_stages_enable_shorter_period(self):
        c = _chain_circuit(6, registered_output=False)
        g = RetimingGraph.from_circuit(c).with_output_stages(2)
        assert feas(g, 2) is not None

    def test_retime_for_period_raises(self):
        c = _chain_circuit(6)
        g = RetimingGraph.from_circuit(c)
        with pytest.raises(ValueError, match="no retiming"):
            retime_for_period(g, 1)


class TestMinimumPeriod:
    def test_chain_with_one_register(self):
        """6 unit-delay cells, 1 register -> optimal split 3 + 3."""
        c = _chain_circuit(6)
        g = RetimingGraph.from_circuit(c)
        period, r = minimum_period(g)
        assert period == 3
        assert g.is_legal(r)

    def test_combinational_circuit_period_is_depth(self):
        c = _chain_circuit(5, registered_output=False)
        g = RetimingGraph.from_circuit(c)
        period, _ = minimum_period(g)
        assert period == 5  # no registers to move

    def test_pipelined_stages_divide_depth(self):
        c = _chain_circuit(8, registered_output=False)
        g = RetimingGraph.from_circuit(c).with_output_stages(3)
        period, r = minimum_period(g)
        assert period == 2  # ceil(8 / 4)
        assert g.is_legal(r)

    def test_ring_counter_min_period(self):
        """A registered ring: period = total delay / registers (ceil)."""
        c = Circuit("ring")
        loop = c.new_net("loop")
        n = loop
        for i in range(4):
            n = c.gate(CellKind.NOT, n, name=f"g{i}")
        q = c.add_dff(n, name="ff1")
        c.add_cell(CellKind.DFF, [q], [loop], name="ff2")
        c.mark_output(q)
        g = RetimingGraph.from_circuit(c)
        period, r = minimum_period(g)
        assert period == 2  # 4 units of delay over 2 registers
        assert g.is_legal(r)

    def test_register_free_cycle_rejected(self):
        c = Circuit("bad")
        fb = c.new_net("fb")
        a = c.add_input("a")
        y = c.gate(CellKind.AND, a, fb, name="g1")
        c.add_cell(CellKind.NOT, [y], [fb], name="g2")
        c.mark_output(y)
        g = RetimingGraph.from_circuit(c)
        with pytest.raises(ValueError, match="register-free cycle"):
            minimum_period(g)


class TestDelays:
    def test_combinational_delays_max_over_outputs(self):
        c = Circuit("t")
        a, b, ci = (c.add_input(x) for x in "abc")
        fa = c.add_cell(CellKind.FA, [a, b, ci], name="fa")
        for out in fa.outputs:
            c.mark_output(out)
        d = RetimingGraph.from_circuit(c, SumCarryDelay(dsum=3, dcarry=1)).delay
        assert d[fa.index] == 3

    def test_dffs_excluded(self):
        c = _chain_circuit(2)
        d = RetimingGraph.from_circuit(c).delay
        cells = set(d) - {HOST, HOST_OUT}
        assert cells and all(not c.cells[i].is_sequential for i in cells)


#: The delay regimes the oracle suite crosses with every random graph:
#: uniform, the paper's split sum/carry adder delays, and per-kind
#: delays that make some single vertices slower than others.
ORACLE_DELAYS = (
    UnitDelay(),
    SumCarryDelay(dsum=2, dcarry=1),
    PerKindDelay({CellKind.XOR: 3, CellKind.FA: 2, CellKind.MUX2: 2}),
)


def _outcome(fn, *args):
    """``fn(*args)``, or the ``ValueError`` message it raised."""
    try:
        return fn(*args)
    except ValueError as exc:
        return f"ValueError: {exc}"


def _random_lags(g: RetimingGraph, rng: random.Random) -> dict:
    """A lag dict that is often illegal, sometimes moves a host half,
    and may name a vertex the graph does not have."""
    r = {v: rng.randint(-1, 1) for v in g.vertices if rng.random() < 0.5}
    if rng.random() < 0.1:
        r[rng.choice((HOST, HOST_OUT))] = rng.choice((-1, 1))
    if rng.random() < 0.1:
        r[len(g.circuit.cells) + 7] = 1
    return r


def _assert_matches_oracle(
    base: RetimingGraph, stages: int, rng: random.Random
) -> int:
    """Check every FEAS probe and the period search of *base* with
    *stages* output stages; return the probe count.

    The oracle side seeds the stages on its own connection records, so
    :meth:`RetimingGraph.with_output_stages` is under test as well.
    """
    g = base.with_output_stages(stages)
    ref = oracle.with_output_stages(base, stages)
    assert oracle.dict_graph(g) == ref
    hi = oracle.unretimed_period(ref)
    assert hi is not None  # every generated cycle holds a register
    assert minimum_period(g) == oracle.minimum_period(ref)
    lo = max(ref.delay.values())
    for c in range(lo, hi + 1):
        r = feas(g, c)
        assert r == oracle.feas(ref, c), c
        probes = [_random_lags(g, rng)] + ([r] if r is not None else [])
        for lags in probes:
            assert g.is_legal(lags) == oracle.is_legal(ref, lags)
            assert _outcome(g.count_flipflops, lags) == _outcome(
                oracle.count_flipflops, ref, lags
            )
    return hi - lo + 1


class TestMatchesDictOracle:
    """The array FEAS returns exactly what the dict-walking original did."""

    @settings(max_examples=120, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        loops=st.integers(0, 2),
        with_ffs=st.booleans(),
    )
    def test_random_circuits_with_feedback(self, seed, loops, with_ffs):
        rng = random.Random(seed)
        circuit = random_dag_circuit(
            rng,
            n_inputs=rng.randint(2, 5),
            n_gates=rng.randint(2, 14),
            with_ffs=with_ffs,
            loops=loops,
        )
        for delay_model in ORACLE_DELAYS:
            base = RetimingGraph.from_circuit(circuit, delay_model)
            for stages in range(4):
                _assert_matches_oracle(base, stages, rng)

    def test_feedback_loops_close_through_registers(self, rng):
        """The generator really builds loops, and FEAS retimes around them."""
        circuit = random_dag_circuit(rng, n_inputs=3, n_gates=12, loops=2)
        g = RetimingGraph.from_circuit(circuit)
        # Peel off vertices with no remaining in-edges; a cycle is left over.
        connections = oracle.dict_graph(g).connections
        indeg = {v: 0 for v in [HOST, HOST_OUT] + g.vertices}
        for c in connections:
            indeg[c.dst] += 1
        ready = [v for v, k in indeg.items() if not k]
        while ready:
            v = ready.pop()
            for c in connections:
                if c.src == v:
                    indeg[c.dst] -= 1
                    if not indeg[c.dst]:
                        ready.append(c.dst)
        assert any(indeg.values()), "no feedback loop was built"
        assert _assert_matches_oracle(g, 1, rng) >= 1


def _has_cycle(g: RetimingGraph) -> bool:
    """Whether *g* has a cycle, by peeling off vertices without in-edges."""
    connections = oracle.dict_graph(g).connections
    indeg = {v: 0 for v in [HOST, HOST_OUT] + g.vertices}
    for c in connections:
        indeg[c.dst] += 1
    ready = [v for v, k in indeg.items() if not k]
    while ready:
        v = ready.pop()
        for c in connections:
            if c.src == v:
                indeg[c.dst] -= 1
                if not indeg[c.dst]:
                    ready.append(c.dst)
    return any(indeg.values())


def _recording_feas(monkeypatch) -> list:
    """Record the period of every FEAS probe ``minimum_period`` makes."""
    periods: list = []

    def recording(graph, period):
        periods.append(period)
        return feas(graph, period)

    monkeypatch.setattr(leiserson_saxe, "feas", recording)
    return periods


class TestPathBound:
    """``minimum_period`` probes ``max ceil(d(P) / (w(P) + 1))`` first."""

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), with_ffs=st.booleans())
    def test_never_exceeds_the_oracle_minimum(self, seed, with_ffs):
        rng = random.Random(seed)
        circuit = random_dag_circuit(
            rng,
            n_inputs=rng.randint(2, 5),
            n_gates=rng.randint(2, 14),
            with_ffs=with_ffs,
        )
        for delay_model in ORACLE_DELAYS:
            base = RetimingGraph.from_circuit(circuit, delay_model)
            for stages in range(4):
                bound = _path_bound(base.with_output_stages(stages))
                ref = oracle.with_output_stages(base, stages)
                assert bound is not None
                assert bound <= oracle.minimum_period(ref)[0]

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        loops=st.integers(1, 2),
        with_ffs=st.booleans(),
    )
    def test_feedback_keeps_the_binary_search(self, seed, loops, with_ffs):
        """A graph with a cycle gets no bound: the first probe is the
        unretimed period, as in the search without one."""
        rng = random.Random(seed)
        circuit = random_dag_circuit(
            rng, n_inputs=3, n_gates=rng.randint(2, 12),
            with_ffs=with_ffs, loops=loops,
        )
        g = RetimingGraph.from_circuit(circuit).with_output_stages(1)
        cyclic = _has_cycle(g)
        assert (_path_bound(g) is None) == cyclic
        if cyclic:
            with pytest.MonkeyPatch.context() as mp:
                periods = _recording_feas(mp)
                assert minimum_period(g) == oracle.minimum_period(oracle.dict_graph(g))
            assert periods[0] == oracle.unretimed_period(oracle.dict_graph(g))

    def test_bound_is_the_minimum_on_a_pipelined_chain(self):
        c = _chain_circuit(8, registered_output=False)
        g = RetimingGraph.from_circuit(c).with_output_stages(3)
        assert _path_bound(g) == 2  # ceil(8 / 4)

    def test_a_failed_probe_falls_back_to_the_search(self, monkeypatch):
        """A bound below the minimum costs one probe, then the search
        runs above it and finds the oracle's answer."""
        g = RetimingGraph.from_circuit(_chain_circuit(6))
        monkeypatch.setattr(leiserson_saxe, "_path_bound", lambda graph: 1)
        periods = _recording_feas(monkeypatch)
        assert minimum_period(g) == oracle.minimum_period(oracle.dict_graph(g))
        assert periods[:2] == [1, 6]  # the bound, then the unretimed period

    def test_array8_two_stages_probes_feas_once(self, monkeypatch):
        circuit, _ = build_multiplier_circuit(8, "array")
        base = RetimingGraph.from_circuit(circuit)
        periods = _recording_feas(monkeypatch)
        period, r = minimum_period(base.with_output_stages(2))
        assert periods == [period]
        ref = oracle.with_output_stages(base, 2)
        assert (period, r) == oracle.minimum_period(ref)
