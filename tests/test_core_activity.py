"""Unit tests for circuit-level activity accounting."""

import random

import pytest

from repro.core.activity import ActivityResult, accumulate_traces, analyze
from repro.core.transitions import NodeActivity
from repro.netlist.cells import CellKind
from repro.netlist.circuit import Circuit
from repro.sim.delays import ZeroDelay
from repro.sim.engine import CycleTrace, Simulator

from tests.conftest import random_dag_circuit


@pytest.fixture
def hazard_circuit():
    """AND(a, NOT a) plus a BUF(b) reference path."""
    c = Circuit("hazard")
    a, b = c.add_input("a"), c.add_input("b")
    na = c.gate(CellKind.NOT, a, name="inv")
    y = c.new_net("y")
    c.gate(CellKind.AND, a, na, output=y, name="and")
    r = c.new_net("r")
    c.gate(CellKind.BUF, b, output=r, name="buf")
    c.mark_output(y)
    c.mark_output(r)
    return c


class TestAnalyze:
    def test_pure_glitches_classified_useless(self, hazard_circuit):
        c = hazard_circuit
        # Toggle a every cycle, hold b: y glitches, never changes settled.
        vectors = [[k % 2, 0] for k in range(21)]
        result = analyze(c, vectors)
        y = c.net("y")
        act = result.node(y)
        assert act.useful == 0
        assert act.useless > 0
        assert act.useless % 2 == 0

    def test_pure_useful_on_buffer(self, hazard_circuit):
        c = hazard_circuit
        vectors = [[0, k % 2] for k in range(11)]
        result = analyze(c, vectors)
        act = result.node(c.net("r"))
        assert act.useful == 10
        assert act.useless == 0

    def test_summary_fields(self, hazard_circuit):
        result = analyze(hazard_circuit, [[k % 2, 0] for k in range(5)])
        s = result.summary()
        assert s["cycles"] == 4
        assert s["total"] == s["useful"] + s["useless"]
        assert s["reduction_bound"] == pytest.approx(1 + s["L/F"], rel=1e-6)

    def test_zero_delay_rejected(self, hazard_circuit):
        with pytest.raises(ValueError, match="ZeroDelay"):
            analyze(hazard_circuit, [[0, 0]], delay_model=ZeroDelay())

    def test_monitor_restricts_nodes(self, hazard_circuit):
        c = hazard_circuit
        y = c.net("y")
        result = analyze(c, [[k % 2, k % 2] for k in range(9)], monitor=[y])
        assert set(result.per_node) <= {y}

    def test_ratio_edge_cases(self):
        r = ActivityResult("c", "unit")
        assert r.useless_useful_ratio() == 0.0
        r.per_node[0] = NodeActivity(useless=4, toggles=4)
        assert r.useless_useful_ratio() == float("inf")


class TestResultViews:
    def _result(self):
        r = ActivityResult("c", "unit", cycles=10)
        r.per_node[0] = NodeActivity(toggles=5, rises=3, useful=1, useless=4, cycles_active=5)
        r.per_node[1] = NodeActivity(toggles=2, rises=1, useful=2, useless=0, cycles_active=2)
        r.node_names = {0: "x", 1: "y"}
        return r

    def test_aggregates(self):
        r = self._result()
        assert r.total_transitions == 7
        assert r.useful == 3
        assert r.useless == 4
        assert r.rises == 4
        assert r.glitches == 2

    def test_restrict(self):
        r = self._result().restrict([1])
        assert set(r.per_node) == {1}
        assert r.total_transitions == 2
        assert r.cycles == 10

    def test_word_profile(self):
        r = self._result()
        profile = r.word_profile([0, 1, 99])
        assert [p.toggles for p in profile] == [5, 2, 0]

    def test_merge(self):
        a, b = self._result(), self._result()
        a.merge(b)
        assert a.cycles == 20
        assert a.total_transitions == 14

    def test_merge_different_circuits_rejected(self):
        a = self._result()
        b = ActivityResult("other", "unit")
        with pytest.raises(ValueError):
            a.merge(b)

    def test_node_missing_returns_zero_record(self):
        r = self._result()
        assert r.node(1234).toggles == 0


class TestAccumulateTraces:
    def test_matches_manual_count(self):
        result = ActivityResult("c", "unit")
        traces = [
            CycleTrace(cycle=0, toggles={5: 3}, rises={5: 2}),
            CycleTrace(cycle=1, toggles={5: 2, 6: 1}, rises={5: 1, 6: 1}),
        ]
        accumulate_traces(result, traces)
        assert result.cycles == 2
        assert result.node(5).toggles == 5
        assert result.node(5).useful == 1
        assert result.node(5).useless == 4
        assert result.node(6).useful == 1

    def test_parity_against_settled_values(self, rng):
        """Cross-check: per-cycle parity == settled-value change."""
        from tests.conftest import random_dag_circuit

        c = random_dag_circuit(rng, n_inputs=4, n_gates=14)
        sim = Simulator(c)
        vec = [rng.randint(0, 1) for _ in c.inputs]
        sim.settle(vec)
        prev = list(sim.values)
        for _ in range(30):
            vec = [rng.randint(0, 1) for _ in c.inputs]
            trace = sim.step(vec)
            for net, count in trace.toggles.items():
                changed = sim.values[net] != prev[net]
                assert (count % 2 == 1) == changed, (
                    "odd parity must coincide with settled-value change"
                )
            prev = list(sim.values)


class TestColumnarResult:
    """A result holding engine count columns answers like one holding
    the per-node dict the columns stand for."""

    @staticmethod
    def _pair(seed, backend="event"):
        from repro.core.activity import ActivityRun
        from repro.sim.vectors import WordStimulus

        rng = random.Random(seed)
        c = random_dag_circuit(rng, n_gates=14, with_ffs=True, loops=1, consts=1)
        stim = WordStimulus({"i": list(c.inputs)})
        columnar = ActivityRun(c, backend=backend).run(stim.random(rng, 30))
        records = columnar.counts.records()
        per_node = ActivityResult(
            columnar.circuit_name, columnar.delay_description,
            columnar.cycles, per_node=records,
            node_names=dict(columnar.node_names),
        )
        assert columnar._per_node is None and per_node._counts is None
        return c, columnar, per_node

    @pytest.mark.parametrize("seed", range(6))
    def test_views_equal_per_node_path(self, seed):
        from repro.service.store import decode_result, encode_result

        c, col, rec = self._pair(seed)
        assert col == rec
        assert col.summary() == rec.summary()
        assert col.glitches == rec.glitches
        assert encode_result(col) == encode_result(rec)
        assert decode_result(encode_result(rec), c) == rec
        assert col._per_node is None  # nothing above built records
        for net in range(len(c.net_names) + 1):
            assert vars(col.node(net)) == vars(rec.node(net))
        keep = list(range(0, len(c.net_names), 2))
        assert col.restrict(keep) == rec.restrict(keep)

    @pytest.mark.parametrize("seed", range(6))
    def test_merge_equals_per_node_merge(self, seed):
        _, col_a, rec_a = self._pair(seed)
        _, col_b, rec_b = self._pair(seed + 100)
        col_b.circuit_name = rec_b.circuit_name = col_a.circuit_name
        col_a.merge(col_b)
        rec_a.merge(rec_b)
        assert col_a == rec_a
        assert col_a.per_node == rec_a.per_node

    def test_per_node_is_built_on_first_read(self):
        _, col, _ = self._pair(1)
        before = col.summary()
        per_node = col.per_node
        assert col.per_node is per_node  # one dict from then on
        net = next(iter(per_node))
        per_node[net] = NodeActivity(toggles=per_node[net].toggles + 1000)
        assert col.total_transitions == before["total"] + 1000

    #: ``encode_result`` of an event-engine run of rca4 (12 cycles,
    #: ``UniformStimulus(seed=7)``), written by the code before the
    #: engines emitted count columns: the nets in first-toggle order.
    PARENT_PAYLOAD = {
        "schema": 2, "circuit_name": "rca4", "delay_description": "unit delay",
        "cycles": 12,
        "nets": ["n2", "n0", "n3", "n4", "n6", "n1", "n5", "n7"],
        "toggles": [11, 7, 10, 12, 17, 6, 8, 4],
        "rises": [5, 4, 5, 6, 8, 3, 4, 2],
        "useful": [5, 7, 8, 6, 5, 6, 6, 0],
        "useless": [6, 0, 2, 6, 12, 0, 2, 4],
        "cycles_active": [8, 7, 9, 9, 10, 6, 7, 2],
    }

    def test_older_payloads_decode_to_the_same_result(self):
        """A schema-2 payload written before the count columns, and its
        schema-1 form, decode to what recomputation gives."""
        from repro.circuits.catalog import build_named_circuit
        from repro.core.activity import ActivityRun
        from repro.service.store import (
            COUNT_COLUMNS, decode_result, encode_result, payload_summary,
        )
        from repro.sim.vectors import UniformStimulus

        circuit, stim = build_named_circuit("rca4")
        fresh = ActivityRun(circuit, backend="event").run(
            UniformStimulus(seed=7).vectors(stim, 13)
        )
        old = self.PARENT_PAYLOAD
        legacy = {
            **{k: old[k] for k in ("circuit_name", "delay_description", "cycles")},
            "schema": 1,
            "per_node": {
                name: list(counts) for name, counts in zip(
                    old["nets"], zip(*(old[c] for c in COUNT_COLUMNS))
                )
            },
        }
        for payload in (old, legacy):
            back = decode_result(payload, circuit)
            assert back == fresh
            assert back.counts == fresh.counts  # nets ascending
            assert back.per_node == fresh.per_node
            assert payload_summary(payload) == fresh.summary()
        # Rewritten, the nets ascend; every count is kept.
        again = encode_result(fresh)
        assert again["nets"] == [f"n{k}" for k in range(8)]
        assert decode_result(again, circuit) == fresh

    def test_accumulate_traces_into_columns(self):
        columnar = ActivityResult("c", "unit")
        records = ActivityResult("c", "unit", per_node={})
        traces = [
            CycleTrace(cycle=0, toggles={7: 3, 2: 1}, rises={7: 2, 2: 1}),
            CycleTrace(cycle=1, toggles={2: 2}, rises={2: 1}),
        ]
        accumulate_traces(columnar, traces)
        accumulate_traces(records, traces)
        assert columnar == records
        assert columnar.counts.nets == [2, 7]
