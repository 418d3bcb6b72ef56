"""The column-emitting rebuilders build exactly what the per-cell ones did.

``tests/rebuild_oracle.py`` keeps the rebuilders that added one net and
one cell at a time; every production transform here must return the
same flat lists, ports, anonymous-name counter and fingerprint, or
raise the same error.
"""

import random

from hypothesis import given, settings, strategies as st

from repro.netlist.cells import CellKind
from repro.opt import balance, transform
from repro.retime.apply import apply_retiming
from repro.retime.graph import HOST, RetimingGraph
from repro.retime.leiserson_saxe import minimum_period
from repro.sim.delays import PerKindDelay
from tests import rebuild_oracle as oracle
from tests.conftest import random_dag_circuit
from tests.test_retime_ls import ORACLE_DELAYS


def _snapshot(circuit):
    """Everything a rebuild decides, fingerprint included."""
    c = circuit[0] if isinstance(circuit, tuple) else circuit
    return (
        c.name, c.net_names, c.net_driver, c.cell_kinds, c.cell_inputs,
        c.cell_outputs, c.cell_names, c.inputs, c.outputs,
        c._anon_net, c.fingerprint(),
        circuit[1] if isinstance(circuit, tuple) else None,
    )


def _outcome(fn, *args):
    """The snapshot of ``fn(*args)``, or the error it raised."""
    try:
        return _snapshot(fn(*args))
    except (KeyError, ValueError) as exc:
        return type(exc).__name__, str(exc)


def _circuit(seed, with_ffs, loops, consts, undriven):
    """A random circuit with one more output gate, plus *undriven*
    internal nets read by new gates; every other one is an output, the
    rest feed one."""
    rng = random.Random(seed)
    c = random_dag_circuit(
        rng,
        n_inputs=rng.randint(2, 5),
        n_gates=rng.randint(2, 14),
        with_ffs=with_ffs,
        loops=loops,
        consts=consts,
    )
    nets = list(range(len(c.net_names)))
    pins = [rng.choice(nets), rng.choice(nets)]
    c.mark_output(c.gate(CellKind.XOR, *pins, name="hx"))
    for k in range(undriven):
        u = c.new_net(f"u{k}")
        kind = rng.choice([CellKind.AND, CellKind.XOR, CellKind.OR])
        y = c.gate(kind, u, rng.choice(nets), name=f"ug{k}")
        c.mark_output(u if k % 2 else y)
    return c, rng


def _same(production, reference, *args):
    assert _outcome(production, *args) == _outcome(reference, *args)


#: Unit-delay buffers, plus two-unit buffers with even delays (chains
#: step by 2) and with odd ones (a skew the buffers cannot pad raises).
BALANCE_DELAYS = ORACLE_DELAYS + (
    PerKindDelay({CellKind.BUF: 2}, default=2),
    PerKindDelay({CellKind.BUF: 2}, default=1),
)

circuits = dict(
    seed=st.integers(0, 2**32 - 1),
    with_ffs=st.booleans(),
    loops=st.integers(0, 2),
    consts=st.integers(0, 2),
    undriven=st.integers(0, 2),
)


class TestRebuildersMatchOracle:
    @settings(max_examples=40, deadline=None)
    @given(**circuits)
    def test_cleanup_passes(self, seed, with_ffs, loops, consts, undriven):
        c, rng = _circuit(seed, with_ffs, loops, consts, undriven)
        _same(transform.dead_cell_elimination, oracle.dead_cell_elimination, c)
        _same(transform.propagate_constants, oracle.propagate_constants, c)
        _same(transform.strip_buffers, oracle.strip_buffers, c)
        # _rebuild itself, with a random survivor set and rewiring.
        n_nets = len(c.net_names)
        kept = {ci for ci in range(len(c.cell_kinds)) if rng.random() < 0.7}
        forward = {rng.randrange(n_nets): rng.randrange(n_nets) for _ in range(3)}
        args = (c, kept.__contains__, lambda n: forward.get(n, n), "_x")
        _same(transform._rebuild, oracle._rebuild, *args)

    @settings(max_examples=30, deadline=None)
    @given(**circuits)
    def test_balance_paths(self, seed, with_ffs, loops, consts, undriven):
        c, _ = _circuit(seed, with_ffs, loops, consts, undriven)
        for delay_model in BALANCE_DELAYS:
            _same(balance.balance_paths, oracle.balance_paths, c, delay_model)

    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        with_ffs=st.booleans(),
        loops=st.integers(0, 2),
        consts=st.integers(0, 2),
    )
    def test_apply_retiming(self, seed, with_ffs, loops, consts):
        c, rng = _circuit(seed, with_ffs, loops, consts, undriven=0)
        base = RetimingGraph.from_circuit(c)
        for stages in range(4):
            g = base.with_output_stages(stages)
            _, r = minimum_period(g)
            _same(apply_retiming, oracle.apply_retiming, g, r)
            # A retimed circuit again: its DFF chains hold anonymous nets,
            # so the next rebuild's anonymous names skip them.
            retimed = oracle.apply_retiming(g, r)
            _same(balance.balance_paths, oracle.balance_paths, retimed)
            again = RetimingGraph.from_circuit(retimed).with_output_stages(1)
            _same(apply_retiming, oracle.apply_retiming, again, minimum_period(again)[1])
        # Random lags: mostly illegal, sometimes a moved host.
        r = {v: rng.randint(-1, 1) for v in base.vertices}
        if rng.random() < 0.2:
            r[HOST] = 1
        _same(apply_retiming, oracle.apply_retiming, base, r)
