"""Unit tests for the compiled circuit IR and its memoization."""

import random

import pytest

from repro.netlist.cells import CellKind
from repro.netlist.circuit import Circuit
from repro.netlist.compiled import compile_circuit
from repro.opt.balance import balancing_report
from repro.retime.graph import HOST, HOST_OUT, RetimingGraph
from repro.sim.delays import (
    LoadDelay,
    PerKindDelay,
    SumCarryDelay,
    UnitDelay,
    ZeroDelay,
)

from tests.conftest import random_dag_circuit, random_table_delay


class TestCompileMemoization:
    def test_same_model_instance_hits_cache(self, xor_chain):
        model = UnitDelay()
        assert compile_circuit(xor_chain, model) is compile_circuit(
            xor_chain, model
        )

    def test_equivalent_fresh_instances_share_entry(self, xor_chain):
        # analyze()-style call sites construct a fresh UnitDelay each
        # time; the cache token keys on (class, description) so they
        # still share one compiled form.
        assert compile_circuit(xor_chain, UnitDelay()) is compile_circuit(
            xor_chain, UnitDelay()
        )

    def test_structure_only_compile_cached(self, xor_chain):
        compiled = compile_circuit(xor_chain)
        assert compiled is compile_circuit(xor_chain)
        assert compiled is compile_circuit(xor_chain, UnitDelay())
        assert compiled.cell_delays == ((1,), (1,))

    def test_engines_compile_under_the_model_they_hold(self, xor_chain):
        """One kind of snapshot: each engine holds the compile of its
        own delay model, the settled mode's ``ZeroDelay`` included, and
        no model is unit delay."""
        from repro.sim.backends import LanesBackend
        from repro.sim.engine import Simulator
        from repro.sim.vector import VectorBackend, numpy_available

        settled = compile_circuit(xor_chain, ZeroDelay())
        assert settled.cell_delays == ((0,), (0,)) and settled.max_delay == 0
        unit = compile_circuit(xor_chain)
        assert settled is not unit and unit.max_delay == 1
        assert Simulator(xor_chain)._cc is unit
        for engine in [LanesBackend] + ([VectorBackend] if numpy_available() else []):
            assert engine(xor_chain, ZeroDelay())._cc is settled
            assert engine(xor_chain)._cc is unit

    def test_different_models_get_different_entries(self, xor_chain):
        a = compile_circuit(xor_chain, UnitDelay())
        b = compile_circuit(xor_chain, SumCarryDelay())
        assert a is not b

    def test_mutation_invalidates(self, xor_chain):
        before = compile_circuit(xor_chain, UnitDelay())
        xor_chain.gate(CellKind.NOT, xor_chain.net("out"))
        after = compile_circuit(xor_chain, UnitDelay())
        assert after is not before
        assert len(after.cell_kinds) == len(before.cell_kinds) + 1

    def test_version_bumps_on_all_mutators(self):
        c = Circuit("v")
        v0 = c.version
        n = c.add_input("a")
        assert c.version > v0
        v1 = c.version
        y = c.gate(CellKind.NOT, n)
        assert c.version > v1
        v2 = c.version
        c.mark_output(y)
        assert c.version > v2

    def test_load_delay_keys_on_instance(self, xor_chain):
        a = LoadDelay(xor_chain)
        b = LoadDelay(xor_chain)
        assert a.cache_token() != b.cache_token()
        assert compile_circuit(xor_chain, a) is not compile_circuit(
            xor_chain, b
        )


class TestCompiledStructure:
    def test_topo_matches_circuit_order(self, rng):
        c = random_dag_circuit(rng, n_inputs=5, n_gates=20)
        compiled = compile_circuit(c)
        assert list(compiled.topo) == [
            cell.index for cell in c.topological_cells()
        ]

    def test_delays_resolved_through_model(self):
        c = Circuit("fa")
        a, b, cin = (c.add_input(n) for n in "abc")
        cell = c.add_cell(CellKind.FA, [a, b, cin])
        compiled = compile_circuit(c, SumCarryDelay(dsum=3, dcarry=1))
        spec = tuple(zip(cell.outputs, compiled.cell_delays[cell.index]))
        assert spec == ((cell.outputs[0], 3), (cell.outputs[1], 1))
        assert compiled.max_delay == 3

    def test_comb_fanout_excludes_flipflops(self):
        c = Circuit("ff")
        d = c.add_input("d")
        c.add_dff(d, name="ff0")
        y = c.gate(CellKind.NOT, d)
        c.mark_output(y)
        compiled = compile_circuit(c)
        readers = compiled.comb_fanout[d]
        assert all(not compiled.cell_is_seq[ci] for ci in readers)
        assert len(readers) == 1

    def test_ff_wiring(self):
        c = Circuit("shift")
        n = c.add_input("d")
        q1 = c.add_dff(n, name="ff0")
        q2 = c.add_dff(q1, name="ff1")
        c.mark_output(q2)
        compiled = compile_circuit(c)
        assert compiled.ff_d == (n, q1)
        assert compiled.ff_q == (q1, q2)


class TestEvaluateFlat:
    def test_matches_circuit_evaluate(self, rng):
        for _ in range(10):
            c = random_dag_circuit(rng, n_inputs=4, n_gates=12)
            compiled = compile_circuit(c)
            vec = [rng.randint(0, 1) for _ in c.inputs]
            flat, next_flat = compiled.evaluate_flat(vec)
            values, next_state = c.evaluate(vec)
            for net, v in values.items():
                assert flat[net] == v
            assert next_flat == next_state

    def test_bad_input_length(self, xor_chain):
        with pytest.raises(ValueError, match="expected 3"):
            compile_circuit(xor_chain).evaluate_flat([0, 1])

    def test_state_threading(self):
        c = Circuit("toggle")
        q = c.new_net("q")
        nq = c.gate(CellKind.NOT, q, name="inv")
        ff = c.add_cell(CellKind.DFF, [nq], [q], name="ff")
        compiled = compile_circuit(c)
        values, nxt = compiled.evaluate_flat([], state={ff.index: 0})
        assert values[q] == 0 and values[nq] == 1
        assert nxt == {ff.index: 1}
        values, nxt = compiled.evaluate_flat([], state=nxt)
        assert values[q] == 1 and nxt == {ff.index: 0}


# ---------------------------------------------------------------------------
# One delay-resolved timing pass, checked against the dict walk it replaced
# ---------------------------------------------------------------------------

def _oracle_levels(c: Circuit, model) -> dict:
    """The retired ``Circuit.levelize``: a dict walk over :class:`Cell`
    views, one ``model.delay(cell, pos)`` call per output."""
    level = dict.fromkeys(c.inputs, 0)
    level.update((ff.outputs[0], 0) for ff in c.flipflops)
    for cell in c.topological_cells():
        at = max([level.get(n, 0) for n in cell.inputs], default=0)
        for pos, out in enumerate(cell.outputs):
            level[out] = at + model.delay(cell, pos)
    return level


class TestTimingMatchesLevelizeOracle:
    """``levels``, the critical path, the retiming graph's vertex delays
    and the balancing report all equal the retired dict walk, on random
    circuits with flipflops, register loops, FA/HA cells and
    constant-fed logic, under every delay model."""

    @staticmethod
    def _cases(seed):
        rng = random.Random(seed)
        c = random_dag_circuit(
            rng, n_inputs=4, n_gates=14, with_ffs=True,
            loops=1 + seed % 2, consts=2,
        )
        yield c, UnitDelay()
        yield c, SumCarryDelay(dsum=3, dcarry=1)
        yield c, PerKindDelay(
            {CellKind.XOR: 3, CellKind.FA: 2, CellKind.CONST1: 2}, default=1
        )
        yield c, LoadDelay(c, extra_per_load=2, loads_per_unit=1)
        yield c, random_table_delay(rng, c)

    @pytest.mark.parametrize("seed", range(60))
    def test_matches_oracle(self, seed):
        for c, model in self._cases(seed):
            oracle = _oracle_levels(c, model)
            what = (seed, model.describe())
            levels = compile_circuit(c, model).levels
            assert levels == [oracle.get(n, 0) for n in range(len(c.net_names))], what
            endpoints = (*c.outputs, *(ff.inputs[0] for ff in c.flipflops))
            assert c.critical_path_length(model) == max(
                oracle.get(n, 0) for n in endpoints
            ), what

            delay = RetimingGraph.from_circuit(c, model).delay
            assert delay == {
                HOST: 0, HOST_OUT: 0,
                **{
                    cell.index: max(
                        model.delay(cell, pos) for pos in range(len(cell.outputs))
                    )
                    for cell in c.combinational_cells
                },
            }, what

            skews = [
                max(a) - min(a)
                for a in (
                    [oracle.get(n, 0) for n in cell.inputs]
                    for cell in c.combinational_cells
                    if len(cell.inputs) >= 2
                )
            ]
            assert balancing_report(c, model) == {
                "cells": len(skews),
                "mean_skew": sum(skews) / len(skews),
                "max_skew": max(skews),
                "skewed_fraction": sum(1 for s in skews if s) / len(skews),
            }, what

    @pytest.mark.parametrize("seed", range(30))
    def test_kahn_levels_match_levelize_oracle(self, seed):
        """The unit-depth levels the Kahn pass gives each cell equal the
        retired ``levelize_cells`` loop over the topological order."""
        c, _ = next(self._cases(seed))
        cc = compile_circuit(c)
        net_level = [0] * cc.n_nets
        cell_level = [0] * len(cc.cell_kinds)
        for ci in cc.topo:
            lvl = max([net_level[n] for n in cc.cell_inputs[ci]], default=0)
            cell_level[ci] = lvl
            for out in cc.cell_outputs[ci]:
                net_level[out] = max(net_level[out], lvl + 1)
        assert list(cc.cell_levels) == cell_level

    def test_constant_paths_count(self):
        """A path from a constant counts toward the critical path,
        though the arrival windows give constant-fed nets none."""
        c = Circuit("const_path")
        a = c.add_input("a")
        k = c.add_cell(CellKind.CONST1, [], name="k").outputs[0]
        x = c.gate(CellKind.NOT, k, name="n1")
        x = c.gate(CellKind.NOT, x, name="n2")
        y = c.gate(CellKind.AND, a, x, name="g")
        c.mark_output(y)
        cc = compile_circuit(c, UnitDelay())
        assert cc.levels[k] == 1 and cc.levels[y] == 4
        assert c.critical_path_length() == 4
        lo, hi = cc.arrival_windows
        assert (lo[x], hi[x]) == (-1, -1) and hi[y] == 1
