"""Compiled circuit IR: flat, cache-friendly arrays built once per netlist.

A :class:`Circuit` is convenient to build and query but expensive to
simulate directly.  :func:`compile_circuit` flattens it exactly once
per ``(Circuit version, DelayModel)`` pair and memoizes the result, so
constructing simulators and evaluating circuits becomes O(nets)
instead of O(cells·outputs) with repeated delay-model calls.  A
compile without a delay model is the unit-delay one (``None`` means
:class:`~repro.sim.delays.UnitDelay` here as everywhere), so code that
reads only structure shares the unit-delay snapshot.

A compile builds only the flat core that every consumer reads:

* per-cell flat tuples — kind, input nets, output nets, sequential flag;
* ``cell_delays`` — per cell, the delay of each output, parallel to
  ``cell_outputs`` and resolved through the delay model
  (:func:`resolve_delays`), the only source of delays.  The built-in
  models resolve per kind, so all cells of one kind share one delay
  tuple;
* the topological order of the combinational cells (which
  :meth:`Circuit.topological_cells` reads) and each cell's unit-depth
  level, both from one Kahn pass;
* the flipflop wiring (cell, D net, Q net) as parallel tuples.

Everything else is a lazy view, built on first access for the
consumer that reads it: the fused bitmask kernels (event and lanes
engines), the combinational fanout (event and lanes), the estimators'
``topo_steps``, the vector tier's groups, the arrival windows and the
per-net arrival levels.  :meth:`CompiledCircuit.evaluate_flat` reads
the kind table, so a vector or estimate run builds no per-cell closure.

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
from itertools import chain
from typing import TYPE_CHECKING, Callable, Dict, Hashable, List, Mapping, Sequence, Tuple
from weakref import WeakKeyDictionary

from repro import _nogc
from repro.netlist.cells import CellKind, _BIT_EVALUATORS
from repro.obs import trace as obs

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.netlist.circuit import Circuit
    from repro.sim.delays import DelayModel


# ---------------------------------------------------------------------------
# Fused bitmask kernels
# ---------------------------------------------------------------------------
#
# A *fused* kernel captures one cell's input net indices and reads the
# flat per-net array directly with a bitop body specialized per (kind,
# arity), instead of building a throwaway input list per evaluation.
# Each net holds an integer whose bits are independent lanes;
# inversions go against an explicit lane mask.  The event engine calls
# the kernels with mask 1; the lanes engine packs one clock cycle (zero
# delay) or one intra-cycle event time (glitch mode) per lane.  Gates
# wider than three inputs fall back to :data:`cells._BIT_EVALUATORS`;
# ``tests/test_cell_semantics.py`` checks every kind and pattern.
# Built lazily: see :attr:`CompiledCircuit.cell_eval_bits`.

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
    cell_is_seq: Tuple[bool, ...]
    topo: Tuple[int, ...]
    cell_levels: Tuple[int, ...]
    ff_cells: Tuple[int, ...]
    ff_d: Tuple[int, ...]
    ff_q: Tuple[int, ...]
    cell_delays: Tuple[Tuple[int, ...], ...]
    max_delay: int

    # ------------------------------------------------------------------
    # The per-engine kernel tables are built lazily on first access: a
    # compile only pays for the tables its consumer reads, while the
    # one compiled snapshot per (circuit, delay model) still amortizes
    # them across runs.  ``cached_property`` writes straight into the
    # instance ``__dict__``, which the frozen dataclass permits.

    @cached_property
    def comb_fanout(self) -> Tuple[Tuple[int, ...], ...]:
        """Per net, its combinational readers: the fanout minus flipflops."""
        fanout: List[List[int]] = [[] for _ in range(self.n_nets)]
        for ci, (nets, seq) in enumerate(zip(self.cell_inputs, self.cell_is_seq)):
            if not seq:
                for n in nets:
                    fanout[n].append(ci)
        return tuple(map(tuple, fanout))

    @cached_property
    def cell_eval_bits(
        self,
    ) -> Tuple[Callable[[Sequence[int], int], Tuple[int, ...]], ...]:
        """Per-cell fused bitmask kernels (:func:`_fuse_bits`).

        ``cell_eval_bits[ci](values, mask)`` evaluates cell *ci* over a
        per-net integer array, one independent lane per bit of *mask*.
        The event engine calls them with mask 1, the lanes engine
        (:mod:`repro.sim.lanes`) with one lane per cycle or event time.
        """
        return tuple(
            _fuse_bits(kind, nets)
            for kind, nets in zip(self.cell_kinds, self.cell_inputs)
        )

    @cached_property
    def topo_steps(self) -> Tuple[tuple, ...]:
        """``(kind, *input_nets, *output_nets)`` per cell, in topo order.

        One flat tuple per combinational cell, so a whole-circuit pass
        reads a cell with one unpack.  The estimators' per-kind rules
        (:mod:`repro.estimate.passes`) loop over it.
        """
        kinds, ins, outs = self.cell_kinds, self.cell_inputs, self.cell_outputs
        return tuple((kinds[ci], *ins[ci], *outs[ci]) for ci in self.topo)

    @cached_property
    def cell_groups(self):
        """Levelized vectorization groups (:func:`repro.netlist.codegen.level_groups`)."""
        from repro.netlist import codegen

        return codegen.level_groups(self)

    @cached_property
    def arrival_windows(self) -> Tuple[List[int], List[int]]:
        """Per-net change windows (:func:`repro.netlist.codegen.arrival_windows`)."""
        from repro.netlist import codegen

        return codegen.arrival_windows(self)

    @cached_property
    def levels(self) -> List[int]:
        """Per-net latest arrival (:func:`repro.netlist.codegen.arrival_levels`)."""
        from repro.netlist import codegen

        return codegen.arrival_levels(self)

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
        kinds, cell_inputs = self.cell_kinds, self.cell_inputs
        cell_outputs = self.cell_outputs
        table = _BIT_EVALUATORS
        for ci in self.topo:
            outs = table[kinds[ci]]([values[n] for n in cell_inputs[ci]], 1)
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
    """Return the (memoized) compiled form of *circuit* under *delay_model*.

    *delay_model* ``None`` is :class:`~repro.sim.delays.UnitDelay` and
    shares its entry, so structure-only readers (the topological order,
    functional evaluation, the estimators) and unit-delay timing compile
    a circuit once.  Each distinct delay model (by
    :meth:`DelayModel.cache_token`) gets its own entry, up to
    :data:`MEMO_DELAY_MODELS` per circuit (least-recently-used eviction
    beyond that); mutating the circuit invalidates all of them.
    """
    if delay_model is None:
        from repro.sim.delays import UnitDelay

        delay_model = UnitDelay()
    key: Hashable = delay_model.cache_token()
    per_circuit = _CACHE.get(circuit)
    if per_circuit is None:
        per_circuit = _CACHE[circuit] = OrderedDict()
    cached = per_circuit.get(key)
    if cached is not None and cached.version == circuit.version:
        per_circuit.move_to_end(key)
        return cached
    if per_circuit and next(iter(per_circuit.values())).version != circuit.version:
        per_circuit.clear()  # the whole snapshot generation is stale
    with obs.span("compile", circuit=getattr(circuit, "name", "?")):
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


@_nogc
def circuit_fingerprint(circuit: "Circuit") -> str:
    """Stable content hash of a circuit's structure.

    Covers topology, cell kinds and net names; port order (which is
    semantically significant — input vectors are positional, output
    words are LSB-first) is preserved, while net and cell *insertion*
    order is canonicalized away by sorting name-based records.  Any
    change to connectivity, a cell kind, a net name, or the port lists
    changes the hash; re-building the identical netlist in a different
    order does not.

    The records' sort order is the canonical cell order, memoized with
    the digest per circuit version (:meth:`Circuit.canonical_order`).
    Prefer :meth:`Circuit.fingerprint`, which reads that memo.
    """
    names = circuit.net_names
    with obs.span("netlist.fingerprint", circuit=circuit.name, cells=len(circuit.cell_kinds)):
        records = [
            (
                kind.value,
                tuple([names[n] for n in ins]),
                tuple([names[n] for n in outs]),
            )
            for kind, ins, outs in zip(
                circuit.cell_kinds, circuit.cell_inputs, circuit.cell_outputs
            )
        ]
        order = sorted(range(len(records)), key=records.__getitem__)
        doc = (
            "circuit-v1",
            tuple([names[n] for n in circuit.inputs]),
            tuple([names[n] for n in circuit.outputs]),
            tuple(sorted(names)),
            tuple([records[ci] for ci in order]),
        )
        digest = _digest(doc)
    circuit._fingerprint = (circuit.version, digest, tuple(order))
    return digest


#: Fingerprint of the settled mode (:class:`~repro.sim.delays.ZeroDelay`):
#: no intra-cycle time resolution exists, so the per-cell delays do not
#: enter it.
ZERO_DELAY_FINGERPRINT = _digest(("delay-v1", "zero"))


def delay_fingerprint(
    circuit: "Circuit", delay_model: "DelayModel | None"
) -> str:
    """Stable content hash of a delay model *as applied to* a circuit.

    Hashing the resolved per-cell-output delays (rather than the model
    object) makes the fingerprint exact for stateful models such as
    :class:`~repro.sim.delays.LoadDelay`, and makes differently-named
    models that assign identical delays hash identically.  The digest
    covers the circuit fingerprint plus the compiled snapshot's
    per-output delays listed in the canonical cell order
    (:meth:`Circuit.canonical_order`), so it is insertion-order
    independent like :func:`circuit_fingerprint` (``delay-v2``).
    *delay_model* ``None`` is unit delay, as for :func:`compile_circuit`.
    """
    from repro.sim.delays import ZeroDelay

    if isinstance(delay_model, ZeroDelay):
        return ZERO_DELAY_FINGERPRINT
    delays = compile_circuit(circuit, delay_model).cell_delays
    flat = tuple(chain.from_iterable(map(delays.__getitem__, circuit.canonical_order())))
    return _digest(("delay-v2", circuit.fingerprint(), flat))


def resolve_delays(
    circuit: "Circuit", delay_model: "DelayModel"
) -> Tuple[Tuple[int, ...], ...]:
    """Per cell, the delay of each output under *delay_model* (0 for a flipflop).

    The one place that asks a delay model about a netlist's cells
    (:meth:`~repro.sim.delays.DelayModel.cell_delays`): the snapshot's
    ``cell_delays`` and the retiming graph's vertex delays read it.  It
    needs no topological order, so a netlist with a combinational
    cycle resolves too.
    """
    return tuple(delay_model.cell_delays(circuit))


@_nogc
def _build(circuit: "Circuit", delay_model: "DelayModel") -> CompiledCircuit:
    DFF = CellKind.DFF
    cell_kinds = tuple(circuit.cell_kinds)
    cell_inputs = tuple(circuit.cell_inputs)
    cell_outputs = tuple(circuit.cell_outputs)
    cell_is_seq = tuple([kind is DFF for kind in cell_kinds])
    ff_cells = tuple([ci for ci, seq in enumerate(cell_is_seq) if seq])
    cell_delays = resolve_delays(circuit, delay_model)
    max_delay = max(0, max(chain.from_iterable(set(cell_delays)), default=0))
    topo, cell_levels = _topo_order(
        circuit.name, cell_inputs, cell_outputs, cell_is_seq, circuit.net_driver,
    )
    return CompiledCircuit(
        name=circuit.name,
        version=circuit.version,
        n_nets=len(circuit.net_names),
        inputs=tuple(circuit.inputs),
        input_set=frozenset(circuit.inputs),
        outputs=tuple(circuit.outputs),
        driven=tuple([ci >= 0 for ci in circuit.net_driver]),
        cell_kinds=cell_kinds,
        cell_inputs=cell_inputs,
        cell_outputs=cell_outputs,
        cell_is_seq=cell_is_seq,
        topo=topo,
        cell_levels=cell_levels,
        ff_cells=ff_cells,
        ff_d=tuple([cell_inputs[ci][0] for ci in ff_cells]),
        ff_q=tuple([cell_outputs[ci][0] for ci in ff_cells]),
        cell_delays=cell_delays,
        max_delay=max_delay,
    )


def _topo_order(
    name: str, cell_inputs: Sequence[Tuple[int, ...]],
    cell_outputs: Sequence[Tuple[int, ...]], cell_is_seq: Sequence[bool],
    driver: Sequence[int],
) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
    """Kahn's order of the combinational cells, and every cell's unit-depth level.

    *driver* maps each net to its driving cell (-1: none).  Sources
    (cells no combinational cell feeds) are stacked in cell order and
    popped LIFO; successors are released in fanout order (by output,
    then reader cell, once per pin).  A cell's level is one more than
    its deepest combinational driver's, 0 for a source or a flipflop:
    it is final when the cell is popped, so the pass sets its
    successors' levels as it releases them.  Raises ``ValueError`` on a
    combinational cycle.
    """
    readers: List[List[int]] = [[] for _ in driver]
    indeg = [-1] * len(cell_is_seq)  # -1 marks a flipflop
    ready: List[int] = []
    for ci, (nets, seq) in enumerate(zip(cell_inputs, cell_is_seq)):
        if seq:
            continue
        deg = 0
        for n in nets:
            d = driver[n]
            if d >= 0 and not cell_is_seq[d]:
                deg += 1
                readers[n].append(ci)
        indeg[ci] = deg
        if not deg:
            ready.append(ci)
    n_comb = len(cell_is_seq) - cell_is_seq.count(True)
    order: List[int] = []
    level = [0] * len(cell_is_seq)
    pop, push, emit = ready.pop, ready.append, order.append
    while ready:
        ci = pop()
        emit(ci)
        below = level[ci] + 1
        for out in cell_outputs[ci]:
            for succ in readers[out]:
                if level[succ] < below:
                    level[succ] = below
                indeg[succ] -= 1
                if not indeg[succ]:
                    push(succ)
    if len(order) != n_comb:
        raise ValueError(
            f"{name}: combinational cycle among "
            f"{n_comb - len(order)} cells"
        )
    return tuple(order), tuple(level)
