"""Canonical fingerprint stability: the identity the service layer trusts.

The content-addressed cache is only exact if the fingerprints are:
equal circuits (by structure and names) must hash equal regardless of
construction order, and *any* topology, kind, name or delay change
must change the hash.
"""

from repro.netlist import circuit_fingerprint, delay_fingerprint
from repro.netlist.cells import CellKind
from repro.netlist.circuit import Circuit
from repro.netlist.compiled import ZERO_DELAY_FINGERPRINT, compile_circuit
from repro.sim.delays import (
    LoadDelay,
    PerKindDelay,
    SumCarryDelay,
    UnitDelay,
    ZeroDelay,
)


def _two_gate(order: str = "ab") -> Circuit:
    """XOR/AND pair over shared inputs, cells added in either order."""
    c = Circuit("two_gate")
    a = c.add_input("a")
    b = c.add_input("b")
    x = c.new_net("x")
    y = c.new_net("y")
    if order == "ab":
        c.gate(CellKind.XOR, a, b, output=x, name="gx")
        c.gate(CellKind.AND, a, b, output=y, name="gy")
    else:
        c.gate(CellKind.AND, a, b, output=y, name="gy")
        c.gate(CellKind.XOR, a, b, output=x, name="gx")
    c.mark_output(x)
    c.mark_output(y)
    return c


class TestCircuitFingerprint:
    def test_cell_insertion_order_is_canonicalized(self):
        assert _two_gate("ab").fingerprint() == _two_gate("ba").fingerprint()

    def test_net_insertion_order_is_canonicalized(self):
        def build(net_order):
            c = Circuit("t")
            a = c.add_input("a")
            nets = {}
            for name in net_order:
                nets[name] = c.new_net(name)
            c.gate(CellKind.NOT, a, output=nets["x"], name="g1")
            c.gate(CellKind.NOT, nets["x"], output=nets["y"], name="g2")
            c.mark_output(nets["y"])
            return c

        assert (
            build(["x", "y"]).fingerprint() == build(["y", "x"]).fingerprint()
        )

    def test_circuit_name_is_not_identity(self):
        a = _two_gate()
        b = _two_gate()
        b.name = "renamed"
        assert a.fingerprint() == b.fingerprint()

    def test_topology_change_changes_hash(self):
        base = _two_gate()
        swapped = Circuit("two_gate")
        a = swapped.add_input("a")
        b = swapped.add_input("b")
        x = swapped.new_net("x")
        y = swapped.new_net("y")
        # Same cells/names, but gy reads (b, b) instead of (a, b).
        swapped.gate(CellKind.XOR, a, b, output=x, name="gx")
        swapped.gate(CellKind.AND, b, b, output=y, name="gy")
        swapped.mark_output(x)
        swapped.mark_output(y)
        assert base.fingerprint() != swapped.fingerprint()

    def test_kind_change_changes_hash(self):
        c = _two_gate()
        d = Circuit("two_gate")
        a = d.add_input("a")
        b = d.add_input("b")
        x = d.new_net("x")
        y = d.new_net("y")
        d.gate(CellKind.XNOR, a, b, output=x, name="gx")
        d.gate(CellKind.AND, a, b, output=y, name="gy")
        d.mark_output(x)
        d.mark_output(y)
        assert c.fingerprint() != d.fingerprint()

    def test_net_rename_changes_hash(self):
        c = _two_gate()
        d = Circuit("two_gate")
        a = d.add_input("a")
        b = d.add_input("b")
        x = d.new_net("x_renamed")
        y = d.new_net("y")
        d.gate(CellKind.XOR, a, b, output=x, name="gx")
        d.gate(CellKind.AND, a, b, output=y, name="gy")
        d.mark_output(x)
        d.mark_output(y)
        assert c.fingerprint() != d.fingerprint()

    def test_mutation_invalidates_memo(self):
        c = _two_gate()
        before = c.fingerprint()
        z = c.gate(CellKind.OR, c.net("a"), c.net("b"), name="gz")
        c.mark_output(z)
        after = c.fingerprint()
        assert before != after
        # And the memo returns the fresh value, not the cached one.
        assert after == circuit_fingerprint(c)

    def test_input_order_is_identity(self):
        """Primary-input order is positional semantics, so it must count."""
        def build(first):
            c = Circuit("t")
            if first == "a":
                a, b = c.add_input("a"), c.add_input("b")
            else:
                b, a = c.add_input("b"), c.add_input("a")
            x = c.new_net("x")
            c.gate(CellKind.XOR, a, b, output=x, name="g")
            c.mark_output(x)
            return c

        assert build("a").fingerprint() != build("b").fingerprint()


class TestDelayFingerprint:
    def test_same_delays_same_hash_across_models(self):
        c = _two_gate()
        assert delay_fingerprint(c, UnitDelay()) == delay_fingerprint(
            c, PerKindDelay({}, default=1)
        )

    def test_different_delays_differ(self):
        c = _two_gate()
        assert delay_fingerprint(c, UnitDelay()) != delay_fingerprint(
            c, PerKindDelay({CellKind.XOR: 3}, default=1)
        )

    def test_sumcarry_vs_unit(self):
        from repro.circuits.adders import build_rca_circuit

        c, _ = build_rca_circuit(4, with_cin=False)
        assert delay_fingerprint(c, UnitDelay()) != delay_fingerprint(
            c, SumCarryDelay(dsum=2, dcarry=1)
        )

    def test_zero_delay_regimes_share_one_hash(self):
        """``ZeroDelay`` is the one settled regime; ``None`` is unit
        delay here, as for ``compile_circuit``."""
        c = _two_gate()
        assert delay_fingerprint(c, ZeroDelay()) == ZERO_DELAY_FINGERPRINT
        assert delay_fingerprint(c, None) == delay_fingerprint(c, UnitDelay())
        assert delay_fingerprint(c, None) != ZERO_DELAY_FINGERPRINT

    def test_load_delay_is_content_exact(self):
        """Stateful models hash by resolved delays, not identity."""
        c1 = _two_gate()
        c2 = _two_gate()
        assert delay_fingerprint(c1, LoadDelay(c1)) == delay_fingerprint(
            c2, LoadDelay(c2)
        )

    def test_order_independent(self):
        a, b = _two_gate("ab"), _two_gate("ba")
        assert delay_fingerprint(a, UnitDelay()) == delay_fingerprint(
            b, UnitDelay()
        )

    def test_memoized_canonical_order_tracks_mutation(self):
        """The canonical cell order is memoized with the circuit digest;
        growing a fingerprinted circuit must refresh it, and the result
        must equal a fresh build of the same netlist in another order."""

        def grown(order):
            c = _two_gate(order)
            c.fingerprint()  # memoize the digest and canonical order
            before = delay_fingerprint(c, SumCarryDelay(dsum=2, dcarry=1))
            fa = c.add_cell(
                CellKind.FA, [c.net("a"), c.net("b"), c.net("x")], name="fa"
            )
            c.mark_output(fa.outputs[1])
            after = delay_fingerprint(c, SumCarryDelay(dsum=2, dcarry=1))
            assert after != before
            return after

        def fresh():
            c = Circuit("two_gate")
            a, b = c.add_input("a"), c.add_input("b")
            x, y = c.new_net("x"), c.new_net("y")
            s = c.new_net("n0")  # the anonymous names grown() gets
            carry = c.new_net("n1")
            c.add_cell(CellKind.FA, [a, b, x], [s, carry], name="fa")
            c.gate(CellKind.AND, a, b, output=y, name="gy")
            c.gate(CellKind.XOR, a, b, output=x, name="gx")
            c.mark_output(x)
            c.mark_output(y)
            c.mark_output(carry)
            return delay_fingerprint(c, SumCarryDelay(dsum=2, dcarry=1))

        assert grown("ab") == grown("ba") == fresh()


class TestCompileMemoBound:
    def test_memo_is_not_pickled(self):
        """A circuit shipped to a worker carries its netlist alone: once
        compiled and fingerprinted it pickles to a fresh build's bytes,
        and the copy builds its own memo."""
        import pickle

        from repro.circuits.catalog import build_named_circuit

        used, _ = build_named_circuit("array4")
        compile_circuit(used, SumCarryDelay())
        delay_fingerprint(used, UnitDelay())
        used.fanout_csr()
        fresh, _ = build_named_circuit("array4")
        assert pickle.dumps(used) == pickle.dumps(fresh)
        shipped = pickle.loads(pickle.dumps(used))
        assert shipped.fingerprint() == used.fingerprint()
        assert compile_circuit(shipped).topo == compile_circuit(used).topo

    def test_memo_still_memoizes(self):
        c = _two_gate()
        d = UnitDelay()
        assert compile_circuit(c, d) is compile_circuit(c, d)
