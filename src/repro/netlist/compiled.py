"""Compiled circuit IR: flat, cache-friendly arrays built once per netlist.

A :class:`Circuit` is convenient to build and query but expensive to
simulate directly: every :meth:`Circuit.evaluate` re-runs a topological
sort, and every simulator instance used to re-resolve cells, delays and
fanout into private lists.  :func:`compile_circuit` performs that
flattening exactly once per ``(Circuit, DelayModel)`` pair and memoizes
the result, so constructing simulators and evaluating circuits becomes
O(nets) instead of O(cells·outputs) with repeated delay-model calls.

The :class:`CompiledCircuit` holds:

* per-cell flat tuples — input nets, output nets, kind, fused
  evaluator, sequential flag;
* ``out_specs`` — per combinational cell, ``((out_net, delay), ...)``
  pairs pre-resolved through the delay model (``None`` when compiled
  without one, e.g. for purely functional evaluation);
* ``comb_fanout`` — per net, the combinational cells reading it (the
  event-driven hot loop never needs sequential readers);
* a cached topological order of the combinational cells;
* the flipflop wiring (cell, D net, Q net) as parallel tuples.

Memoization is keyed on the circuit object (weakly, so compiled forms
die with their circuits) plus :meth:`DelayModel.cache_token`, and
invalidated by :attr:`Circuit.version`, which every netlist mutation
bumps.  Per circuit, at most :data:`MEMO_DELAY_MODELS` delay-model
entries are retained (least-recently-used eviction), so a long-lived
service process sweeping many delay models cannot grow the memo
without bound.  All simulation backends (:mod:`repro.sim.backends`)
and :meth:`Circuit.evaluate` share this cache.

This module is also the home of **canonical fingerprinting**
(:func:`circuit_fingerprint`, :func:`delay_fingerprint`): stable
content hashes over the same structural facts the compiled IR is built
from, used by the service layer (:mod:`repro.service`) to address
cached analysis results.  Fingerprints are insertion-order independent
— nets and cells are canonicalized by *name*, not index — so two
builds of the same netlist hash identically no matter the construction
order.
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict
from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING, Callable, Dict, Hashable, List, Mapping, Sequence, Tuple
from weakref import WeakKeyDictionary

from repro.netlist.cells import CellKind, _EVALUATORS
from repro.obs import trace as obs

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.netlist.circuit import Circuit
    from repro.sim.delays import DelayModel


# ---------------------------------------------------------------------------
# Kind-specialized fused evaluators
# ---------------------------------------------------------------------------
#
# The generic evaluation pattern — ``ins = [values[n] for n in nets];
# outs = evaluator(ins)`` — allocates one throwaway list per cell per
# evaluation, which the timed backends pay millions of times per run.
# A *fused* evaluator captures the cell's input net indices at compile
# time and reads the flat ``values`` array directly, with a branch-free
# bitop body specialized per (kind, arity).  Cells outside the
# specialization table fall back to the generic list-building form, so
# every kind keeps working.

def _fuse_generic(evaluator, nets):
    def f(values, _e=evaluator, _n=nets):
        return _e([values[n] for n in _n])
    return f


def _fuse_cell(
    kind: CellKind, nets: Tuple[int, ...]
) -> Callable[[Sequence[int]], Tuple[int, ...]]:
    """Build the fused evaluator for one cell instance."""
    n = len(nets)
    if kind is CellKind.CONST0:
        return lambda values: (0,)
    if kind is CellKind.CONST1:
        return lambda values: (1,)
    if kind is CellKind.BUF:
        a, = nets
        return lambda values, _a=a: (values[_a],)
    if kind is CellKind.NOT:
        a, = nets
        return lambda values, _a=a: (values[_a] ^ 1,)
    if kind is CellKind.MUX2:
        s, a, b = nets
        # 0/1-domain branch-free select: a when s == 0, b when s == 1.
        return lambda values, _s=s, _a=a, _b=b: (
            values[_a] ^ ((values[_a] ^ values[_b]) & values[_s]),
        )
    if kind is CellKind.HA:
        a, b = nets
        def f_ha(values, _a=a, _b=b):
            x, y = values[_a], values[_b]
            return (x ^ y, x & y)
        return f_ha
    if kind is CellKind.FA:
        a, b, c = nets
        def f_fa(values, _a=a, _b=b, _c=c):
            x, y, z = values[_a], values[_b], values[_c]
            p = x ^ y
            return (p ^ z, (x & y) | (z & p))
        return f_fa
    if kind in (CellKind.AND, CellKind.NAND):
        inv = 1 if kind is CellKind.NAND else 0
        if n == 2:
            a, b = nets
            return lambda values, _a=a, _b=b, _i=inv: (
                (values[_a] & values[_b]) ^ _i,
            )
        if n == 3:
            a, b, c = nets
            return lambda values, _a=a, _b=b, _c=c, _i=inv: (
                (values[_a] & values[_b] & values[_c]) ^ _i,
            )
        def f_and(values, _n=nets, _i=inv):
            out = 1
            for net in _n:
                out &= values[net]
            return (out ^ _i,)
        return f_and
    if kind in (CellKind.OR, CellKind.NOR):
        inv = 1 if kind is CellKind.NOR else 0
        if n == 2:
            a, b = nets
            return lambda values, _a=a, _b=b, _i=inv: (
                (values[_a] | values[_b]) ^ _i,
            )
        if n == 3:
            a, b, c = nets
            return lambda values, _a=a, _b=b, _c=c, _i=inv: (
                (values[_a] | values[_b] | values[_c]) ^ _i,
            )
        def f_or(values, _n=nets, _i=inv):
            out = 0
            for net in _n:
                out |= values[net]
            return (out ^ _i,)
        return f_or
    if kind in (CellKind.XOR, CellKind.XNOR):
        inv = 1 if kind is CellKind.XNOR else 0
        if n == 2:
            a, b = nets
            return lambda values, _a=a, _b=b, _i=inv: (
                values[_a] ^ values[_b] ^ _i,
            )
        if n == 3:
            a, b, c = nets
            return lambda values, _a=a, _b=b, _c=c, _i=inv: (
                values[_a] ^ values[_b] ^ values[_c] ^ _i,
            )
        def f_xor(values, _n=nets, _i=inv):
            out = _i
            for net in _n:
                out ^= values[net]
            return (out,)
        return f_xor
    return _fuse_generic(_EVALUATORS[kind], nets)


# ---------------------------------------------------------------------------
# Fused bitwise (lane-packed) kernels
# ---------------------------------------------------------------------------
#
# The same fusion idea applied to *bitmask* evaluation: one integer per
# net, each bit one independent lane, inversions against an explicit
# lane mask.  The lanes engine (repro.sim.lanes) packs one clock cycle
# per lane in zero-delay mode and one intra-cycle event time per lane
# in glitch mode, and evaluates every cell exactly once per batch
# through these kernels.  Built lazily: see
# :attr:`CompiledCircuit.cell_eval_bits`.

def _bits_const0(ins, mask):
    return (0,)


def _bits_const1(ins, mask):
    return (mask,)


def _bits_buf(ins, mask):
    return (ins[0],)


def _bits_not(ins, mask):
    return (ins[0] ^ mask,)


def _bits_and(ins, mask):
    out = mask
    for v in ins:
        out &= v
    return (out,)


def _bits_or(ins, mask):
    out = 0
    for v in ins:
        out |= v
    return (out,)


def _bits_nand(ins, mask):
    return (_bits_and(ins, mask)[0] ^ mask,)


def _bits_nor(ins, mask):
    return (_bits_or(ins, mask)[0] ^ mask,)


def _bits_xor(ins, mask):
    out = 0
    for v in ins:
        out ^= v
    return (out,)


def _bits_xnor(ins, mask):
    return (_bits_xor(ins, mask)[0] ^ mask,)


def _bits_mux2(ins, mask):
    sel, a, b = ins
    return (a ^ ((a ^ b) & sel),)


def _bits_ha(ins, mask):
    a, b = ins
    return (a ^ b, a & b)


def _bits_fa(ins, mask):
    a, b, cin = ins
    p = a ^ b
    return (p ^ cin, (a & b) | (cin & p))


#: Generic bitwise evaluators by kind (fallback for the fused forms).
#: ``DFF`` maps to its transparent (buffer) view; the lanes engine
#: never evaluates a sequential cell through these.
_BIT_EVALUATORS = {
    CellKind.CONST0: _bits_const0,
    CellKind.CONST1: _bits_const1,
    CellKind.BUF: _bits_buf,
    CellKind.NOT: _bits_not,
    CellKind.AND: _bits_and,
    CellKind.OR: _bits_or,
    CellKind.NAND: _bits_nand,
    CellKind.NOR: _bits_nor,
    CellKind.XOR: _bits_xor,
    CellKind.XNOR: _bits_xnor,
    CellKind.MUX2: _bits_mux2,
    CellKind.HA: _bits_ha,
    CellKind.FA: _bits_fa,
    CellKind.DFF: _bits_buf,
}


def _fuse_bits_generic(evaluator, nets):
    def f(bits, mask, _e=evaluator, _n=nets):
        return _e([bits[n] for n in _n], mask)
    return f


def _fuse_bits(
    kind: CellKind, nets: Tuple[int, ...]
) -> Callable[[Sequence[int], int], Tuple[int, ...]]:
    """Build the fused bitmask kernel for one cell instance."""
    n = len(nets)
    if kind is CellKind.CONST0:
        return lambda bits, mask: (0,)
    if kind is CellKind.CONST1:
        return lambda bits, mask: (mask,)
    if kind in (CellKind.BUF, CellKind.DFF):
        a, = nets
        return lambda bits, mask, _a=a: (bits[_a],)
    if kind is CellKind.NOT:
        a, = nets
        return lambda bits, mask, _a=a: (bits[_a] ^ mask,)
    if kind is CellKind.MUX2:
        s, a, b = nets
        return lambda bits, mask, _s=s, _a=a, _b=b: (
            bits[_a] ^ ((bits[_a] ^ bits[_b]) & bits[_s]),
        )
    if kind is CellKind.HA:
        a, b = nets
        def f_ha(bits, mask, _a=a, _b=b):
            x, y = bits[_a], bits[_b]
            return (x ^ y, x & y)
        return f_ha
    if kind is CellKind.FA:
        a, b, c = nets
        def f_fa(bits, mask, _a=a, _b=b, _c=c):
            x, y, z = bits[_a], bits[_b], bits[_c]
            p = x ^ y
            return (p ^ z, (x & y) | (z & p))
        return f_fa
    if kind in (CellKind.AND, CellKind.NAND):
        invert = kind is CellKind.NAND
        if n == 2:
            a, b = nets
            if invert:
                return lambda bits, mask, _a=a, _b=b: (
                    (bits[_a] & bits[_b]) ^ mask,
                )
            return lambda bits, mask, _a=a, _b=b: (bits[_a] & bits[_b],)
        if n == 3:
            a, b, c = nets
            if invert:
                return lambda bits, mask, _a=a, _b=b, _c=c: (
                    (bits[_a] & bits[_b] & bits[_c]) ^ mask,
                )
            return lambda bits, mask, _a=a, _b=b, _c=c: (
                bits[_a] & bits[_b] & bits[_c],
            )
    if kind in (CellKind.OR, CellKind.NOR):
        invert = kind is CellKind.NOR
        if n == 2:
            a, b = nets
            if invert:
                return lambda bits, mask, _a=a, _b=b: (
                    (bits[_a] | bits[_b]) ^ mask,
                )
            return lambda bits, mask, _a=a, _b=b: (bits[_a] | bits[_b],)
        if n == 3:
            a, b, c = nets
            if invert:
                return lambda bits, mask, _a=a, _b=b, _c=c: (
                    (bits[_a] | bits[_b] | bits[_c]) ^ mask,
                )
            return lambda bits, mask, _a=a, _b=b, _c=c: (
                bits[_a] | bits[_b] | bits[_c],
            )
    if kind in (CellKind.XOR, CellKind.XNOR):
        invert = kind is CellKind.XNOR
        if n == 2:
            a, b = nets
            if invert:
                return lambda bits, mask, _a=a, _b=b: (
                    bits[_a] ^ bits[_b] ^ mask,
                )
            return lambda bits, mask, _a=a, _b=b: (bits[_a] ^ bits[_b],)
        if n == 3:
            a, b, c = nets
            if invert:
                return lambda bits, mask, _a=a, _b=b, _c=c: (
                    bits[_a] ^ bits[_b] ^ bits[_c] ^ mask,
                )
            return lambda bits, mask, _a=a, _b=b, _c=c: (
                bits[_a] ^ bits[_b] ^ bits[_c],
            )
    return _fuse_bits_generic(_BIT_EVALUATORS[kind], nets)


@dataclass(frozen=True)
class CompiledCircuit:
    """Flat arrays mirroring one :class:`Circuit` at one version.

    Instances are immutable snapshots; obtain them via
    :func:`compile_circuit`, never by mutating an existing one.
    """

    name: str
    version: int
    n_nets: int
    inputs: Tuple[int, ...]
    input_set: frozenset
    outputs: Tuple[int, ...]
    driven: Tuple[bool, ...]
    cell_kinds: Tuple[CellKind, ...]
    cell_inputs: Tuple[Tuple[int, ...], ...]
    cell_outputs: Tuple[Tuple[int, ...], ...]
    #: Per-cell fused kernels (see :func:`_fuse_cell`): read the flat
    #: ``values`` array directly via captured net indices — no
    #: per-evaluation input-list allocation.  Shared by the
    #: event-driven engine and :meth:`evaluate_flat`.
    cell_eval_fused: Tuple[Callable[[Sequence[int]], Tuple[int, ...]], ...]
    cell_is_seq: Tuple[bool, ...]
    comb_fanout: Tuple[Tuple[int, ...], ...]
    topo: Tuple[int, ...]
    ff_cells: Tuple[int, ...]
    ff_d: Tuple[int, ...]
    ff_q: Tuple[int, ...]
    out_specs: Tuple[Tuple[Tuple[int, int], ...], ...] | None
    max_delay: int

    # ------------------------------------------------------------------
    # The per-engine kernel tables are built lazily on first access: a
    # compile only pays for the tables its consumer reads, while the
    # one compiled snapshot per (circuit, delay model) still amortizes
    # them across runs.  ``cached_property`` writes straight into the
    # instance ``__dict__``, which the frozen dataclass permits.

    @cached_property
    def cell_eval_bits(
        self,
    ) -> Tuple[Callable[[Sequence[int], int], Tuple[int, ...]], ...]:
        """Per-cell fused bitmask kernels (:func:`_fuse_bits`).

        The same fusion as :attr:`cell_eval_fused` over a per-net
        integer-bitmask array, one independent lane per bit.  Only the
        lanes engine (:mod:`repro.sim.lanes`) reads them.
        """
        return tuple(
            _fuse_bits(kind, nets)
            for kind, nets in zip(self.cell_kinds, self.cell_inputs)
        )

    # ------------------------------------------------------------------
    # Generated flat estimator passes (see repro.netlist.codegen):
    # whole-circuit straight-line kernels exec-compiled on first access
    # and memoized with the snapshot, exactly like the kernel tables.

    @cached_property
    def prob_pass(self):
        """Generated ``f(p)`` signal-probability topo pass (in place)."""
        from repro.netlist import codegen

        return codegen.build_prob_pass(self)

    @cached_property
    def density_pass(self):
        """Generated ``f(p, d)`` transition-density topo pass (in place)."""
        from repro.netlist import codegen

        return codegen.build_density_pass(self)

    @cached_property
    def cell_levels(self):
        """Per-cell structural levels (:func:`repro.netlist.codegen.levelize_cells`)."""
        from repro.netlist import codegen

        return codegen.levelize_cells(self)

    @cached_property
    def cell_groups(self):
        """Levelized vectorization groups (:func:`repro.netlist.codegen.level_groups`)."""
        from repro.netlist import codegen

        return codegen.level_groups(self)

    # ------------------------------------------------------------------
    def evaluate_flat(
        self,
        input_values: Sequence[int],
        state: Mapping[int, int] | None = None,
    ) -> Tuple[List[int], Dict[int, int]]:
        """Zero-delay functional evaluation of one clock cycle.

        *input_values* are bits in ``inputs`` order; *state* maps DFF
        cell index -> stored bit (missing entries default to 0).
        Returns ``(values, next_state)`` where *values* is a flat list
        indexed by net (undriven non-input nets read 0).
        """
        if len(input_values) != len(self.inputs):
            raise ValueError(
                f"expected {len(self.inputs)} input values, "
                f"got {len(input_values)}"
            )
        state = state or {}
        values = [0] * self.n_nets
        for net, v in zip(self.inputs, input_values):
            values[net] = int(bool(v))
        for i, ci in enumerate(self.ff_cells):
            values[self.ff_q[i]] = state.get(ci, 0)
        cell_outputs = self.cell_outputs
        fused = self.cell_eval_fused
        for ci in self.topo:
            outs = fused[ci](values)
            for out_net, v in zip(cell_outputs[ci], outs):
                values[out_net] = v
        next_state = {
            ci: values[self.ff_d[i]] for i, ci in enumerate(self.ff_cells)
        }
        return values, next_state


#: circuit -> OrderedDict{delay cache token -> CompiledCircuit} (LRU)
_CACHE: "WeakKeyDictionary" = WeakKeyDictionary()

#: Per-circuit bound on memoized (delay model -> compiled form)
#: entries.  Small on purpose: a run touches a handful of delay models
#: at a time, while a long-lived service process may sweep hundreds —
#: without a cap the memo would retain all of them for as long as the
#: circuit lives.
MEMO_DELAY_MODELS = 8


def compile_circuit(
    circuit: "Circuit", delay_model: "DelayModel | None" = None
) -> CompiledCircuit:
    """Return the (memoized) compiled form of *circuit*.

    With *delay_model* ``None`` the compiled form carries no delay
    information (``out_specs is None``) — enough for functional
    evaluation and zero-delay simulation.  Each distinct delay
    model (by :meth:`DelayModel.cache_token`) gets its own entry, up
    to :data:`MEMO_DELAY_MODELS` per circuit (least-recently-used
    eviction beyond that); mutating the circuit invalidates all of
    them.
    """
    key: Hashable = None if delay_model is None else delay_model.cache_token()
    per_circuit = _CACHE.get(circuit)
    if per_circuit is None:
        per_circuit = _CACHE[circuit] = OrderedDict()
    cached = per_circuit.get(key)
    if cached is not None and cached.version == circuit.version:
        per_circuit.move_to_end(key)
        return cached
    if per_circuit and next(iter(per_circuit.values())).version != circuit.version:
        per_circuit.clear()  # the whole snapshot generation is stale
    with obs.span(
        "compile",
        circuit=getattr(circuit, "name", "?"),
        delay=key is not None,
    ):
        obs.inc("compile.full")
        compiled = _build(circuit, delay_model)
    per_circuit[key] = compiled
    per_circuit.move_to_end(key)
    while len(per_circuit) > MEMO_DELAY_MODELS:
        per_circuit.popitem(last=False)
    return compiled


# ---------------------------------------------------------------------------
# Canonical fingerprints
# ---------------------------------------------------------------------------

def content_digest(doc: object) -> str:
    """SHA-256 over the canonical ``repr`` of a pure-literal document.

    *doc* must be built only from str / int / float / tuple so that
    ``repr`` is deterministic across processes and Python versions.
    The one digest primitive every fingerprint in the system uses
    (circuit/delay here, stimulus specs, run keys), so the determinism
    contract lives in exactly one place.
    """
    return hashlib.sha256(repr(doc).encode("utf-8")).hexdigest()


_digest = content_digest


def circuit_fingerprint(circuit: "Circuit") -> str:
    """Stable content hash of a circuit's structure.

    Covers topology, cell kinds and net names; port order (which is
    semantically significant — input vectors are positional, output
    words are LSB-first) is preserved, while net and cell *insertion*
    order is canonicalized away by sorting name-based records.  Any
    change to connectivity, a cell kind, a net name, or the port lists
    changes the hash; re-building the identical netlist in a different
    order does not.

    Prefer :meth:`Circuit.fingerprint`, which memoizes this per
    circuit version.
    """
    nets = circuit.nets
    cells = tuple(sorted(
        (
            cell.kind.value,
            tuple(nets[n].name for n in cell.inputs),
            tuple(nets[n].name for n in cell.outputs),
        )
        for cell in circuit.cells
    ))
    doc = (
        "circuit-v1",
        tuple(nets[n].name for n in circuit.inputs),
        tuple(nets[n].name for n in circuit.outputs),
        tuple(sorted(net.name for net in nets)),
        cells,
    )
    return _digest(doc)


#: Fingerprint shared by every zero-delay regime (``delay_model is
#: None``, :class:`~repro.sim.delays.ZeroDelay`): no intra-cycle time
#: resolution exists, so all of them produce identical results.
ZERO_DELAY_FINGERPRINT = _digest(("delay-v1", "zero"))


def delay_fingerprint(
    circuit: "Circuit", delay_model: "DelayModel | None"
) -> str:
    """Stable content hash of a delay model *as applied to* a circuit.

    Hashing the resolved per-cell-output delays (rather than the model
    object) makes the fingerprint exact for stateful models such as
    :class:`~repro.sim.delays.LoadDelay`, and makes differently-named
    models that assign identical delays hash identically.  Records are
    keyed by net names, so the hash is insertion-order independent
    like :func:`circuit_fingerprint`.
    """
    from repro.sim.delays import ZeroDelay

    if delay_model is None or isinstance(delay_model, ZeroDelay):
        return ZERO_DELAY_FINGERPRINT
    cc = compile_circuit(circuit, delay_model)
    nets = circuit.nets
    rows = tuple(sorted(
        (
            cell.kind.value,
            tuple(nets[n].name for n in cell.inputs),
            tuple((nets[out].name, d) for out, d in spec),
        )
        for cell, spec in zip(circuit.cells, cc.out_specs)
    ))
    return _digest(("delay-v1", rows))


def _build(
    circuit: "Circuit", delay_model: "DelayModel | None"
) -> CompiledCircuit:
    n_nets = len(circuit.nets)
    cell_kinds = []
    cell_inputs = []
    cell_outputs = []
    cell_eval_fused = []
    cell_is_seq = []
    ff_cells: List[int] = []
    ff_d: List[int] = []
    ff_q: List[int] = []
    out_specs: List[Tuple[Tuple[int, int], ...]] | None = (
        None if delay_model is None else []
    )
    max_delay = 0
    for cell in circuit.cells:
        cell_kinds.append(cell.kind)
        cell_inputs.append(cell.inputs)
        cell_outputs.append(cell.outputs)
        cell_eval_fused.append(_fuse_cell(cell.kind, cell.inputs))
        seq = cell.is_sequential
        cell_is_seq.append(seq)
        if seq:
            ff_cells.append(cell.index)
            ff_d.append(cell.inputs[0])
            ff_q.append(cell.outputs[0])
            if out_specs is not None:
                out_specs.append(((cell.outputs[0], 0),))
        elif out_specs is not None:
            spec = tuple(
                (out, delay_model.delay(cell, pos))
                for pos, out in enumerate(cell.outputs)
            )
            out_specs.append(spec)
            for _, d in spec:
                if d > max_delay:
                    max_delay = d
    comb_fanout: List[Tuple[int, ...]] = [
        tuple(ci for ci in net.fanout if not cell_is_seq[ci])
        for net in circuit.nets
    ]
    return CompiledCircuit(
        name=circuit.name,
        version=circuit.version,
        n_nets=n_nets,
        inputs=tuple(circuit.inputs),
        input_set=frozenset(circuit.inputs),
        outputs=tuple(circuit.outputs),
        driven=tuple(net.driver is not None for net in circuit.nets),
        cell_kinds=tuple(cell_kinds),
        cell_inputs=tuple(cell_inputs),
        cell_outputs=tuple(cell_outputs),
        cell_eval_fused=tuple(cell_eval_fused),
        cell_is_seq=tuple(cell_is_seq),
        comb_fanout=tuple(comb_fanout),
        topo=tuple(c.index for c in circuit.topological_cells()),
        ff_cells=tuple(ff_cells),
        ff_d=tuple(ff_d),
        ff_q=tuple(ff_q),
        out_specs=None if out_specs is None else tuple(out_specs),
        max_delay=max_delay,
    )
