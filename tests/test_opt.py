"""Tests for the optimisation passes: balancing and clean-up transforms."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.circuits.adders import build_rca_circuit
from repro.circuits.multipliers import build_multiplier_circuit
from repro.core.activity import analyze
from repro.netlist.cells import CellKind
from repro.netlist.circuit import Circuit
from repro.netlist.validate import validate
from repro.opt.balance import balance_is_noop, balance_paths, balancing_report
from repro.opt.transform import (
    cleanup_is_noop,
    dead_cell_elimination,
    propagate_constants,
    strip_buffers,
)
from repro.sim.delays import SumCarryDelay, ZeroDelay
from repro.sim.vectors import WordStimulus

from tests import rebuild_oracle as oracle
from tests.conftest import random_dag_circuit
from tests.test_rebuild_oracle import BALANCE_DELAYS, _circuit


def _equivalent(c1: Circuit, c2: Circuit, rng, trials=60) -> bool:
    for _ in range(trials):
        bits = [rng.randint(0, 1) for _ in c1.inputs]
        v1, _ = c1.evaluate(bits)
        v2, _ = c2.evaluate(bits)
        if [v1[n] for n in c1.outputs] != [v2[n] for n in c2.outputs]:
            return False
    return True


class TestBalancePaths:
    def test_function_preserved(self, rng):
        base, _ = build_rca_circuit(10, with_cin=False)
        balanced, _ = balance_paths(base)
        assert _equivalent(base, balanced, rng)

    def test_eliminates_all_useless_transitions(self, rng):
        base, ports = build_rca_circuit(10, with_cin=False)
        balanced, _ = balance_paths(base)
        stim = WordStimulus({"a": ports["a"], "b": ports["b"]})
        result = analyze(balanced, stim.random(rng, 201))
        assert result.useless == 0
        assert result.useful > 0

    def test_multiplier_balanced_too(self, rng):
        base, ports = build_multiplier_circuit(5, "array")
        balanced, stats = balance_paths(base)
        assert stats.buffers_inserted > 0
        stim = WordStimulus({"x": ports["x"], "y": ports["y"]})
        result = analyze(balanced, stim.random(rng, 101))
        assert result.useless == 0

    def test_respects_sum_carry_delay(self, rng):
        base, ports = build_rca_circuit(6, with_cin=False)
        model = SumCarryDelay(dsum=2, dcarry=1)
        balanced, _ = balance_paths(base, model)
        stim = WordStimulus({"a": ports["a"], "b": ports["b"]})
        result = analyze(balanced, stim.random(rng, 151), delay_model=model)
        assert result.useless == 0

    def test_flipflops_preserved(self, rng):
        base, _ = build_rca_circuit(6, with_cin=False)
        from repro.retime.pipeline import pipeline_circuit

        pipe = pipeline_circuit(base, 1).circuit
        balanced, _ = balance_paths(pipe)
        assert balanced.num_flipflops == pipe.num_flipflops

    def test_validates_clean(self):
        base, _ = build_rca_circuit(8, with_cin=False)
        balanced, _ = balance_paths(base)
        assert not [i for i in validate(balanced) if i.severity == "error"]

    def test_zero_delay_model_rejected(self):
        base, _ = build_rca_circuit(4, with_cin=False)
        with pytest.raises(ValueError, match="delay >= 1"):
            balance_paths(base, ZeroDelay())

    def test_stats(self):
        base, _ = build_rca_circuit(8, with_cin=False)
        _, stats = balance_paths(base)
        assert stats.buffers_inserted > 0
        assert stats.max_skew_padded > 0
        assert stats.overhead_ratio == pytest.approx(
            stats.buffers_inserted / len(base.cells)
        )

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**31))
    def test_random_circuits_glitch_free_property(self, seed):
        """Balancing any random DAG makes every node single-toggle."""
        rng = random.Random(seed)
        c = random_dag_circuit(rng, n_inputs=4, n_gates=12)
        balanced, _ = balance_paths(c)
        stim_vec = lambda: [rng.randint(0, 1) for _ in balanced.inputs]  # noqa: E731
        result = analyze(balanced, [stim_vec() for _ in range(30)])
        assert result.useless == 0


class TestBalancingReport:
    def test_rca_is_heavily_skewed(self):
        base, _ = build_rca_circuit(16, with_cin=False)
        report = balancing_report(base)
        assert report["max_skew"] == 15
        assert report["skewed_fraction"] > 0.9

    def test_balanced_circuit_reports_zero(self):
        base, _ = build_rca_circuit(8, with_cin=False)
        balanced, _ = balance_paths(base)
        report = balancing_report(balanced)
        assert report["mean_skew"] == 0.0

    def test_empty(self):
        c = Circuit("empty")
        a = c.add_input("a")
        c.mark_output(a)
        assert balancing_report(c)["cells"] == 0


class TestStripBuffers:
    def test_inverse_of_balancing(self, rng):
        base, _ = build_rca_circuit(8, with_cin=False)
        balanced, _ = balance_paths(base)
        stripped = strip_buffers(balanced)
        assert len(stripped.cells) == len(base.cells)
        assert _equivalent(base, stripped, rng)

    def test_buffer_chain_collapses(self, rng):
        c = Circuit("t")
        a = c.add_input("a")
        n = a
        for i in range(5):
            n = c.gate(CellKind.BUF, n, name=f"b{i}")
        y = c.gate(CellKind.NOT, n, name="inv")
        c.mark_output(y)
        stripped = strip_buffers(c)
        assert len(stripped.cells) == 1
        assert _equivalent(c, stripped, rng)


class TestDeadCellElimination:
    def test_drops_unreachable_logic(self, rng):
        c = Circuit("t")
        a, b = c.add_input("a"), c.add_input("b")
        y = c.gate(CellKind.AND, a, b, name="live")
        c.gate(CellKind.OR, a, b, name="dead")
        c.mark_output(y)
        out = dead_cell_elimination(c)
        assert len(out.cells) == 1
        assert _equivalent(c, out, rng)

    def test_keeps_ff_cones(self):
        c = Circuit("t")
        a = c.add_input("a")
        x = c.gate(CellKind.NOT, a, name="g")
        q = c.add_dff(x, name="ff")
        c.mark_output(q)
        out = dead_cell_elimination(c)
        assert len(out.cells) == 2

    def test_noop_on_clean_circuit(self):
        base, _ = build_rca_circuit(6, with_cin=False)
        out = dead_cell_elimination(base)
        assert len(out.cells) == len(base.cells)


class TestTransformEdgeCases:
    """Regression tests: passes must not drop or misrewire corner nets."""

    def test_strip_buffers_buf_driving_primary_output(self, rng):
        c = Circuit("t")
        a = c.add_input("a")
        y = c.gate(CellKind.BUF, a, name="b0")
        c.mark_output(y)
        stripped = strip_buffers(c)
        assert len(stripped.cells) == 0
        assert _equivalent(c, stripped, rng)

    def test_strip_buffers_mid_chain_primary_outputs(self, rng):
        c = Circuit("t")
        a = c.add_input("a")
        b1 = c.gate(CellKind.BUF, a, name="b1")
        b2 = c.gate(CellKind.BUF, b1, name="b2")
        c.mark_output(b1)
        c.mark_output(b2)
        stripped = strip_buffers(c)
        assert len(stripped.cells) == 0
        assert len(stripped.outputs) == 2
        assert _equivalent(c, stripped, rng)

    def test_strip_buffers_chain_feeding_flipflop(self, rng):
        c = Circuit("t")
        a = c.add_input("a")
        n = a
        for i in range(3):
            n = c.gate(CellKind.BUF, n, name=f"b{i}")
        q = c.add_dff(n, name="ff")
        c.mark_output(q)
        stripped = strip_buffers(c)
        assert stripped.num_flipflops == 1
        assert len(stripped.cells) == 1
        # The DFF's D pin must land on the chain's source, not a
        # dropped buffer net.
        ff = stripped.cells[0]
        assert stripped.net_name(ff.inputs[0]) == "a"

    def test_strip_buffers_undriven_buffer_input(self, rng):
        # Regression: _rebuild used to KeyError when a kept consumer
        # (or output) resolved to an undriven internal net.
        c = Circuit("t")
        a = c.add_input("a")
        floating = c.new_net("float")
        y = c.gate(CellKind.BUF, floating, name="b")
        z = c.gate(CellKind.OR, a, y, name="g")
        c.mark_output(z)
        stripped = strip_buffers(c)
        assert _equivalent(c, stripped, rng)

    def test_dce_with_undriven_consumer(self, rng):
        c = Circuit("t")
        a = c.add_input("a")
        floating = c.new_net("float")
        y = c.gate(CellKind.OR, a, floating, name="g")
        c.mark_output(y)
        out = dead_cell_elimination(c)
        assert _equivalent(c, out, rng)

    def test_propagate_constants_undriven_consumer(self, rng):
        c = Circuit("t")
        a = c.add_input("a")
        floating = c.new_net("float")
        y = c.gate(CellKind.OR, a, floating, name="g")
        c.mark_output(y)
        out = propagate_constants(c)
        assert _equivalent(c, out, rng)

    def test_propagate_constants_constant_driven_output(self, rng):
        c = Circuit("t")
        a = c.add_input("a")
        one = c.add_cell(CellKind.CONST1, [], name="k1").outputs[0]
        z = c.gate(CellKind.OR, one, one, name="h")  # folds to CONST1
        c.mark_output(z)
        c.mark_output(a)
        out = propagate_constants(c)
        assert _equivalent(c, out, rng)
        # The folded constant must keep driving the primary output.
        assert out.kind_histogram().get("CONST1", 0) == 1
        assert out.kind_histogram().get("OR", 0) == 0

    def test_propagate_constants_folded_cell_feeding_flipflop(self, rng):
        c = Circuit("t")
        a = c.add_input("a")
        zero = c.add_cell(CellKind.CONST0, [], name="k0").outputs[0]
        y = c.gate(CellKind.AND, a, zero, name="g")  # folds to CONST0
        q = c.add_dff(y, name="ff")
        c.mark_output(q)
        out = propagate_constants(c)
        kinds = out.kind_histogram()
        assert kinds.get("DFF", 0) == 1
        assert kinds.get("AND", 0) == 0
        assert kinds.get("CONST0", 0) == 1

    def test_propagate_constants_ha_buf_driving_outputs(self, rng):
        c = Circuit("t")
        a = c.add_input("a")
        zero = c.add_cell(CellKind.CONST0, [], name="k0").outputs[0]
        ha = c.add_cell(CellKind.HA, [a, zero], name="ha")
        c.mark_output(ha.outputs[0])  # sum -> BUF(a)
        c.mark_output(ha.outputs[1])  # carry -> CONST0, drives a PO
        out = propagate_constants(c)
        assert _equivalent(c, out, rng)
        kinds = out.kind_histogram()
        assert kinds.get("HA", 0) == 0
        assert kinds.get("BUF", 0) == 1
        assert kinds.get("CONST0", 0) == 1


class TestTransformComposition:
    """Property: un-balancing recovers the original circuit."""

    @settings(max_examples=20, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**31),
        model=st.sampled_from(["unit", "sumcarry"]),
        with_ffs=st.booleans(),
    )
    def test_strip_buffers_inverts_balance(self, seed, model, with_ffs):
        rng = random.Random(seed)
        c = random_dag_circuit(rng, n_inputs=4, n_gates=10, with_ffs=with_ffs)
        delay = (
            SumCarryDelay(dsum=2, dcarry=1) if model == "sumcarry" else None
        )
        balanced, _ = balance_paths(c, delay)
        recovered = strip_buffers(balanced)
        # Functionally equivalent to the original...
        eq_rng = random.Random(seed ^ 0x5EED)
        for _ in range(25):
            bits = [eq_rng.randint(0, 1) for _ in c.inputs]
            state = {}
            state2 = {}
            v1, state = c.evaluate(bits, state)
            v2, state2 = recovered.evaluate(bits, state2)
            assert [v1[n] for n in c.outputs] == [
                v2[n] for n in recovered.outputs
            ]
        # ...and cell-count-identical after cleanup (stripping both
        # sides removes any BUFs the random circuit already had).
        assert len(recovered.cells) == len(strip_buffers(c).cells)
        assert recovered.num_flipflops == c.num_flipflops


class TestConstantPropagation:
    def test_folds_constant_cone(self, rng):
        c = Circuit("t")
        a = c.add_input("a")
        one = c.add_cell(CellKind.CONST1, [], name="c1").outputs[0]
        zero = c.add_cell(CellKind.CONST0, [], name="c0").outputs[0]
        dead_and = c.gate(CellKind.AND, one, zero, name="g0")  # == 0
        y = c.gate(CellKind.OR, a, dead_and, name="g1")
        c.mark_output(y)
        out = propagate_constants(c)
        assert _equivalent(c, out, rng)
        # g0 folded to a constant, then DCE removed the dead const cells.
        kinds = out.kind_histogram()
        assert kinds.get("AND", 0) == 0

    def test_forcing_inputs(self, rng):
        """AND with one constant-0 input folds regardless of the rest."""
        c = Circuit("t")
        a = c.add_input("a")
        zero = c.add_cell(CellKind.CONST0, [], name="c0").outputs[0]
        y = c.gate(CellKind.AND, a, zero, name="g")
        z = c.gate(CellKind.OR, y, a, name="h")
        c.mark_output(z)
        out = propagate_constants(c)
        assert _equivalent(c, out, rng)
        assert out.kind_histogram().get("AND", 0) == 0

    def test_function_preserved_on_carry_select(self, rng):
        """The carry-select adder has constant carry hypotheses to fold."""
        from repro.circuits.adders import carry_select_adder

        c = Circuit("csel")
        a = c.add_input_word("a", 8)
        b = c.add_input_word("b", 8)
        sums, cout = carry_select_adder(c, a, b)
        c.mark_output_word(sums, "s")
        c.mark_output(cout)
        out = propagate_constants(c)
        assert _equivalent(c, out, rng)
        # Constant carry hypotheses fold FA(a, b, const) cells away.
        assert out.kind_histogram().get("FA", 0) < c.kind_histogram()["FA"]
        assert out.kind_histogram().get("CONST0", 0) == 0
        assert out.kind_histogram().get("CONST1", 0) == 0


def _noop_is_sound(check, oracle_pass, circuit, *args):
    """*check* answers yes only where *oracle_pass* returns a circuit with
    *circuit*'s fingerprint, and raises only the error the pass raises."""
    try:
        noop = check(circuit, *args)
    except ValueError as exc:
        with pytest.raises(ValueError) as raised:
            oracle_pass(circuit, *args)
        assert str(raised.value) == str(exc)
        return
    if noop:
        out = oracle_pass(circuit, *args)
        out = out[0] if isinstance(out, tuple) else out
        assert out.fingerprint() == circuit.fingerprint()


class TestNoopChecks:
    """``cleanup_is_noop`` / ``balance_is_noop`` answer, without the
    rebuild, whether the pass would reproduce its input's fingerprint."""

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        with_ffs=st.booleans(),
        loops=st.integers(0, 2),
        consts=st.integers(0, 2),
        undriven=st.integers(0, 2),
        balanced=st.booleans(),
    )
    def test_yes_only_where_the_oracle_pass_keeps_the_fingerprint(
        self, seed, with_ffs, loops, consts, undriven, balanced
    ):
        c, _ = _circuit(seed, with_ffs, loops, consts, undriven)
        _noop_is_sound(cleanup_is_noop, oracle.propagate_constants, c)
        for delay_model in BALANCE_DELAYS:
            circuit = c
            if balanced:  # a balanced circuit is where balance says yes
                try:
                    circuit, _ = oracle.balance_paths(c, delay_model)
                except (KeyError, ValueError):
                    pass
            _noop_is_sound(balance_is_noop, oracle.balance_paths, circuit, delay_model)
            _noop_is_sound(cleanup_is_noop, oracle.propagate_constants, circuit)

    def test_catalog_answers(self):
        rca, _ = build_rca_circuit(8, with_cin=False)
        balanced, _ = balance_paths(rca)
        assert cleanup_is_noop(rca) and cleanup_is_noop(balanced)
        assert not balance_is_noop(rca) and balance_is_noop(balanced)
        # A slower carry skews the unit-balanced adder again.
        slow_carry = SumCarryDelay(dsum=1, dcarry=2)
        assert not balance_is_noop(balanced, slow_carry)
        assert balance_paths(balanced, slow_carry)[1].buffers_inserted > 0

    def test_no_where_the_pass_drops_a_net_or_raises(self):
        glitchy = Circuit("t")  # one two-input cell, skewed by the NOT
        a = glitchy.add_input("a")
        glitchy.mark_output(glitchy.gate(CellKind.AND, a, glitchy.gate(CellKind.NOT, a)))
        assert cleanup_is_noop(glitchy) and not balance_is_noop(glitchy)
        c = Circuit("t")
        a, b = c.add_input("a"), c.add_input("b")
        c.mark_output(c.gate(CellKind.AND, a, b, name="g"))
        assert cleanup_is_noop(c) and balance_is_noop(c)
        c.new_net("floating")  # read by nothing: both rebuilds drop it
        assert not cleanup_is_noop(c) and not balance_is_noop(c)
        c.mark_output(c.gate(CellKind.OR, a, c.net("floating"), name="h"))
        assert not balance_is_noop(c)
        with pytest.raises(KeyError):  # balance cannot copy an undriven read
            balance_paths(c)
        with pytest.raises(ValueError, match="delay >= 1"):
            balance_is_noop(c, ZeroDelay())

    def test_a_combinational_cycle_raises_as_the_passes_do(self):
        c = Circuit("loop")
        x, fed_back = c.add_input("x"), c.new_net("fb")
        y = c.gate(CellKind.AND, x, fed_back, name="g")
        c.add_cell(CellKind.NOT, [y], [fed_back], name="inv")
        c.mark_output(y)
        for check, pass_ in ((cleanup_is_noop, propagate_constants),
                             (balance_is_noop, balance_paths)):
            for fn in (check, pass_):
                with pytest.raises(ValueError, match="combinational cycle"):
                    fn(c)

    def test_dead_cell_or_constant_means_no(self):
        c = Circuit("t")
        a, b = c.add_input("a"), c.add_input("b")
        c.mark_output(c.gate(CellKind.AND, a, b, name="g"))
        c.gate(CellKind.XOR, a, b, name="dead")
        assert not cleanup_is_noop(c)
        assert len(dead_cell_elimination(c).cells) == 1

    def test_constant_cells_still_rebuild_through_cleanup(self, rng):
        from repro.explore.specs import TransformSpec
        from repro.sim.delays import UnitDelay

        c = Circuit("t")
        a = c.add_input("a")
        zero = c.add_cell(CellKind.CONST0, [], name="c0").outputs[0]
        c.mark_output(c.gate(CellKind.OR, c.gate(CellKind.AND, a, zero, name="g"), a, name="h"))
        assert not cleanup_is_noop(c)
        out, info = TransformSpec.make("cleanup").apply(c, UnitDelay())
        assert out is not c and out.name == "t_cp_dce"
        # The AND folds into a constant; the CONST0 that forced it dies.
        assert info == {"cells_removed": 1}
        assert "AND" not in out.kind_histogram()
        assert out.fingerprint() != c.fingerprint()
        assert _equivalent(c, out, rng)
