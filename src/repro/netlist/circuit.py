"""The flat circuit container: nets, cells, ports and word helpers.

A :class:`Circuit` is a single-clock synchronous network.  Nets have at
most one driver (a cell output or a primary input).  Words (buses) are
plain Python lists of net indices, least-significant bit first; helper
methods create and register them under dotted names such as ``a[3]``.

The netlist is flat lists (fanout: CSR arrays per version); ``cells``
and ``nets`` are read-only sequences building values on each access.
"""

from __future__ import annotations

from collections.abc import Sequence as _SequenceABC
from copy import copy
from dataclasses import dataclass, field
from itertools import accumulate, chain
from typing import Callable, Iterable, List, Sequence, Tuple

from repro import _nogc
from repro.netlist.cells import (
    Cell,
    CellKind,
    OUTPUT_COUNT,
    check_arity,
)


@dataclass(slots=True)
class Net:
    """A single-driver signal node (a value built by :attr:`Circuit.nets`).

    Attributes
    ----------
    name:
        Unique net name within the circuit.
    index:
        Position in ``circuit.nets``.
    driver:
        ``(cell_index, output_position)`` or ``None`` for primary
        inputs / undriven nets.
    fanout:
        Indices of cells reading this net (duplicates possible when a
        cell reads the same net on several pins).
    """

    name: str
    index: int
    driver: Tuple[int, int] | None = None
    fanout: List[int] = field(default_factory=list)


class _Rows(_SequenceABC):
    """A read-only sequence whose item *i* is ``row(i)``, built on access."""

    __slots__ = ("_row", "_column")

    def __init__(self, row: Callable[[int], object], column: list) -> None:
        self._row = row
        self._column = column  # a live flat list: its length is ours

    def __len__(self) -> int:
        return len(self._column)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self._row(j) for j in range(len(self._column))[i]]
        return self._row(range(len(self._column))[i])

    def __iter__(self):
        return map(self._row, range(len(self._column)))


class Circuit:
    """A flat, single-clock, cell-level netlist.

    Typical construction::

        c = Circuit("rca4")
        a = c.add_input_word("a", 4)
        b = c.add_input_word("b", 4)
        s, cout = ripple_carry_adder(c, a, b)   # from repro.circuits
        c.mark_output_word(s, "s")
        c.mark_output(cout, "cout")

    Read the flat lists; change them only through the construction
    methods, which check every change and bump :attr:`version`.
    """

    def __init__(self, name: str = "circuit") -> None:
        self.name = name
        #: Per cell: kind, input nets, output nets, name.
        self.cell_kinds: List[CellKind] = []
        self.cell_inputs: List[Tuple[int, ...]] = []
        self.cell_outputs: List[Tuple[int, ...]] = []
        self.cell_names: List[str] = []
        #: Per net: name, and driving cell index (-1: undriven or input).
        self.net_names: List[str] = []
        self.net_driver: List[int] = []
        self._net_by_name: dict[str, int] = {}
        self._cell_by_name: dict[str, int] = {}
        self.inputs: List[int] = []
        self.outputs: List[int] = []
        self._anon_net = 0
        self._anon_cell = 0
        self._version = 0
        #: ``(version, (start, readers))``, written by :meth:`fanout_csr`.
        self._fanout: Tuple[int, Tuple[Tuple[int, ...], Tuple[int, ...]]] | None = None
        #: ``(version, digest, canonical cell order)``, written by
        #: :func:`repro.netlist.compiled.circuit_fingerprint`.
        self._fingerprint: Tuple[int, str, Tuple[int, ...]] | None = None

    @property
    def version(self) -> int:
        """Mutation counter; bumped by every structural change.

        Consumers that cache derived structure (notably the compiled IR
        in :mod:`repro.netlist.compiled`) compare this to detect
        staleness instead of hashing the whole netlist.
        """
        return self._version

    @property
    def cells(self) -> Sequence[Cell]:
        """Every cell, in creation order, as :class:`Cell` values."""
        return _Rows(self._cell_row, self.cell_kinds)

    @property
    def nets(self) -> Sequence[Net]:
        """Every net, in creation order, as :class:`Net` values."""
        return _Rows(self._net_row, self.net_names)

    def _cell_row(self, ci: int) -> Cell:
        return Cell(self.cell_names[ci], self.cell_kinds[ci], self.cell_inputs[ci],
                    self.cell_outputs[ci], ci)

    def _net_row(self, n: int) -> Net:
        ci = self.net_driver[n]
        start, readers = self.fanout_csr()
        return Net(
            self.net_names[n], n,
            None if ci < 0 else (ci, self.cell_outputs[ci].index(n)),
            list(readers[start[n]:start[n + 1]]),
        )

    def fanout_csr(self) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
        """Every net's readers, once per pin and in cell order, as CSR arrays:
        net *n* is read by ``readers[start[n]:start[n + 1]]``.  Memoized
        per :attr:`version`, as tuples: the collector stops tracking them."""
        cached = self._fanout
        if cached is not None and cached[0] == self._version:
            return cached[1]
        counts = [0] * (len(self.net_names) + 1)
        for ins in self.cell_inputs:
            for n in ins:
                counts[n + 1] += 1
        start = list(accumulate(counts))
        fill = start[:-1]
        readers = [0] * start[-1]
        for ci, ins in enumerate(self.cell_inputs):
            for n in ins:
                readers[fill[n]] = ci
                fill[n] += 1
        csr = self._fanout = (self._version, (tuple(start), tuple(readers)))
        return csr[1]

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def new_net(self, name: str | None = None) -> int:
        """Create a new undriven net and return its index."""
        by_name = self._net_by_name
        if name is None:
            name = f"n{self._anon_net}"
            self._anon_net += 1
            while name in by_name:
                name = f"n{self._anon_net}"
                self._anon_net += 1
        elif name in by_name:
            raise ValueError(f"duplicate net name {name!r}")
        index = len(self.net_names)
        self.net_names.append(name)
        self.net_driver.append(-1)
        by_name[name] = index
        self._version += 1
        return index

    def new_net_word(self, name: str, width: int) -> List[int]:
        """Create *width* nets named ``name[0] .. name[width-1]`` (LSB first)."""
        return [self.new_net(f"{name}[{i}]") for i in range(width)]

    def add_input(self, name: str | None = None) -> int:
        """Create a primary-input net."""
        idx = self.new_net(name)
        self.inputs.append(idx)
        return idx

    def add_input_word(self, name: str, width: int) -> List[int]:
        """Create a *width*-bit primary-input word, LSB first."""
        return [self.add_input(f"{name}[{i}]") for i in range(width)]

    def mark_output(self, net: int, alias: str | None = None) -> int:
        """Register *net* as a primary output (optionally aliasing its name)."""
        if not 0 <= net < len(self.net_names):
            raise ValueError(f"no such net index {net}")
        if alias is not None and alias not in self._net_by_name:
            self._net_by_name[alias] = net
        self.outputs.append(net)
        self._version += 1
        return net

    def mark_output_word(self, nets: Sequence[int], name: str | None = None) -> None:
        """Register a word of nets as primary outputs, LSB first."""
        for i, n in enumerate(nets):
            self.mark_output(n, f"{name}[{i}]" if name is not None else None)

    def add_cell(
        self,
        kind: CellKind,
        inputs: Sequence[int],
        outputs: Sequence[int] | None = None,
        name: str | None = None,
    ) -> Cell:
        """Instantiate a cell.

        If *outputs* is ``None``, fresh anonymous nets are created for
        every output.  Returns the :class:`Cell` (its ``outputs`` carry
        the driven net indices).  Every check runs before the circuit
        changes, so a rejected cell leaves no net behind.
        """
        return self._cell_row(self._add_cell(kind, inputs, outputs, name))

    def _add_cell(self, kind, inputs, outputs=None, name=None) -> int:
        """:meth:`add_cell` without building the returned value: the new index."""
        inputs = tuple(inputs)
        n_out = OUTPUT_COUNT[kind] if outputs is None else len(outputs)
        check_arity(kind, len(inputs), n_out)
        if name is None:
            name = f"u{self._anon_cell}_{kind.value.lower()}"
            self._anon_cell += 1
            while name in self._cell_by_name:
                name = f"u{self._anon_cell}_{kind.value.lower()}"
                self._anon_cell += 1
        elif name in self._cell_by_name:
            raise ValueError(f"duplicate cell name {name!r}")
        n_nets = len(self.net_names)
        for n in inputs if outputs is None else (*inputs, *outputs):
            if not 0 <= n < n_nets:
                raise ValueError(f"cell {name!r}: no such net index {n}")
        driver = self.net_driver
        if outputs is None:
            new_net = self.new_net
            outputs = (new_net(),) if n_out == 1 else tuple([new_net() for _ in range(n_out)])
        else:
            outputs = tuple(outputs)
            for n in outputs:
                if driver[n] >= 0:
                    raise ValueError(
                        f"net {self.net_names[n]!r} already driven by "
                        f"{self.cell_names[driver[n]]!r}"
                    )
            if len(set(outputs)) < n_out:
                raise ValueError(f"cell {name!r} drives one net twice")
        index = len(self.cell_kinds)
        for out in outputs:
            driver[out] = index
        self.cell_kinds.append(kind)
        self.cell_inputs.append(inputs)
        self.cell_outputs.append(outputs)
        self.cell_names.append(name)
        self._cell_by_name[name] = index
        self._version += 1
        return index

    @_nogc
    def add_nets(self, names: Sequence[str | None], indices: Sequence[int] | None = None) -> range:
        """Create one undriven net per entry of *names*; returns their indices.

        The batch form of :meth:`new_net`: ``None`` asks for an
        anonymous ``n{k}`` name from the circuit's counter, and every
        name is checked before the circuit changes.  *indices* (equal to
        the returned range) are the int objects to file the names under,
        so a builder whose rows hold them keeps one int per net.
        """
        by_name = self._net_by_name
        names = list(names)
        count = len(names)
        start = len(self.net_names)
        if indices is not None and len(indices) != count:
            raise ValueError("add_nets: names and indices differ in length")
        anon = self._anon_net
        n_anon = names.count(None)
        named = names[:count - n_anon] if n_anon else names
        taken = set(named)
        if (  # the named nets first, every name new, then the anonymous ones
            len(taken) == len(named) and None not in taken
            and by_name.keys().isdisjoint(taken)
        ):
            fresh: List[str] = []
            while len(fresh) < n_anon:  # new_net's rule: skip names in use
                batch = [f"n{k}" for k in range(anon, anon + n_anon - len(fresh))]
                anon += len(batch)
                if (not taken or taken.isdisjoint(batch)) and by_name.keys().isdisjoint(batch):
                    fresh += batch
                else:
                    fresh += [n for n in batch if n not in taken and n not in by_name]
            names[count - n_anon:] = fresh
        else:  # new_net's rule, one name at a time
            taken = set(by_name)
            for i, name in enumerate(names):
                if name is None:
                    while f"n{anon}" in taken:
                        anon += 1
                    name = names[i] = f"n{anon}"
                    anon += 1
                elif name in taken:
                    raise ValueError(f"duplicate net name {name!r}")
                taken.add(name)
        self.net_names.extend(names)
        self.net_driver.extend([-1] * count)
        by_name.update(zip(names, range(start, start + count) if indices is None else indices))
        self._anon_net = anon
        self._version += 1
        return range(start, start + count)

    @_nogc
    def add_cells(
        self,
        kinds: Sequence[CellKind],
        inputs: Sequence[Sequence[int]],
        outputs: Sequence[Sequence[int]],
        names: Sequence[str],
    ) -> range:
        """Instantiate a batch of named cells on existing nets; returns their indices.

        The column form of :meth:`add_cell`: one entry per cell in each
        column.  The whole batch is checked by :meth:`add_cell`'s rules,
        with its messages, before the circuit changes, so a rejected
        batch leaves the circuit as it was.
        """
        inputs = [tuple(pins) for pins in inputs]
        outputs = [tuple(outs) for outs in outputs]
        names = list(names)
        count = len(names)
        if not len(kinds) == len(inputs) == len(outputs) == count:
            raise ValueError("add_cells: the columns differ in length")
        if not self._batch_is_valid(kinds, inputs, outputs, names):
            self._reject_batch(kinds, inputs, outputs, names)
        start = len(self.cell_kinds)
        self.cell_kinds.extend(kinds)
        self.cell_inputs.extend(inputs)
        self.cell_outputs.extend(outputs)
        self.cell_names.extend(names)
        indices = list(range(start, start + count))  # one int object per cell
        driver = self.net_driver
        for ci, outs in zip(indices, outputs):
            for n in outs:
                driver[n] = ci
        self._cell_by_name.update(zip(names, indices))
        self._version += 1
        return range(start, start + count)

    def _batch_is_valid(self, kinds, inputs, outputs, names) -> bool:
        """Whether :meth:`add_cells` may take the batch, checked column-wise."""
        try:
            for kind, n_in, n_out in set(zip(kinds, map(len, inputs), map(len, outputs))):
                check_arity(kind, n_in, n_out)
        except ValueError:
            return False
        if len(set(names)) < len(names) or not self._cell_by_name.keys().isdisjoint(names):
            return False
        ins = list(chain.from_iterable(inputs))
        outs = list(chain.from_iterable(outputs))
        n_nets = len(self.net_names)
        for nets in (ins, outs):
            if nets and not (0 <= min(nets) and max(nets) < n_nets):
                return False
        return len(set(outs)) == len(outs) and (
            max(map(self.net_driver.__getitem__, outs), default=-1) < 0
        )

    def _reject_batch(self, kinds, inputs, outputs, names) -> None:
        """Raise :meth:`add_cell`'s error for the first cell it would reject.

        Replays the batch through :meth:`_add_cell` on a trial copy, so
        the rules and messages have one home and this circuit stays as it is.
        """
        trial = Circuit.__new__(Circuit)  # its lists and dicts are copies
        trial.__dict__ = {k: copy(v) for k, v in self.__dict__.items()}
        for cell in zip(kinds, inputs, outputs, names):
            trial._add_cell(*cell)
        raise AssertionError("add_cells: no cell of the rejected batch fails")

    # convenience single-output gate constructors -----------------------
    def gate(
        self,
        kind: CellKind,
        *inputs: int,
        output: int | None = None,
        name: str | None = None,
    ) -> int:
        """Add a single-output gate and return its output net index."""
        outs = None if output is None else (output,)
        return self.cell_outputs[self._add_cell(kind, inputs, outs, name)][0]

    def add_dff(self, d: int, q: int | None = None, name: str | None = None) -> int:
        """Add a D-flipflop from net *d*; returns the ``q`` net index."""
        outs = None if q is None else (q,)
        return self.cell_outputs[self._add_cell(CellKind.DFF, (d,), outs, name)][0]

    def add_dff_word(self, word: Sequence[int], name: str | None = None) -> List[int]:
        """Register every bit of *word* through a DFF; returns the q word."""
        qs = []
        for i, d in enumerate(word):
            cell_name = f"{name}[{i}]" if name is not None else None
            qs.append(self.add_dff(d, name=cell_name))
        return qs

    # ------------------------------------------------------------------
    # lookup
    # ------------------------------------------------------------------
    def net(self, name: str) -> int:
        """Return the index of the net called *name*."""
        return self._net_by_name[name]

    def net_name(self, index: int) -> str:
        return self.net_names[index]

    def cell(self, name: str) -> Cell:
        """Return the cell called *name*."""
        return self._cell_row(self._cell_by_name[name])

    def __contains__(self, name: str) -> bool:
        return name in self._net_by_name

    # ------------------------------------------------------------------
    # identity
    # ------------------------------------------------------------------
    def fingerprint(self) -> str:
        """Stable content hash of this circuit's structure.

        Canonical over topology, cell kinds and net names —
        insertion-order independent, port-order sensitive (see
        :func:`repro.netlist.compiled.circuit_fingerprint`).  The
        service layer uses this as the circuit half of its
        content-addressed result keys; the compiled-IR memo shares the
        same identity notion via :attr:`version` invalidation.
        Memoized per version, together with :meth:`canonical_order`,
        so repeated calls are free.
        """
        cached = self._fingerprint
        if cached is not None and cached[0] == self._version:
            return cached[1]
        from repro.netlist.compiled import circuit_fingerprint

        return circuit_fingerprint(self)

    def canonical_order(self) -> Tuple[int, ...]:
        """Cell indices in the fingerprint's canonical (name-sorted) order.

        The same order for every insertion order of one netlist, so a
        per-cell fact listed in it hashes insertion-order
        independently (:func:`repro.netlist.compiled.delay_fingerprint`).
        """
        self.fingerprint()
        return self._fingerprint[2]

    # ------------------------------------------------------------------
    # structure queries
    # ------------------------------------------------------------------
    @property
    def flipflops(self) -> List[Cell]:
        """All sequential cells, in creation order."""
        return [c for c in self.cells if c.is_sequential]

    @property
    def num_flipflops(self) -> int:
        return self.cell_kinds.count(CellKind.DFF)

    @property
    def combinational_cells(self) -> List[Cell]:
        return [c for c in self.cells if not c.is_sequential]

    def kind_histogram(self) -> dict[str, int]:
        """Cell count per kind name (useful in reports and tests)."""
        hist: dict[str, int] = {}
        for kind in self.cell_kinds:
            hist[kind.value] = hist.get(kind.value, 0) + 1
        return hist

    def topological_cells(self) -> List[Cell]:
        """Combinational cells in topological order.

        DFF outputs and primary inputs are sources; DFF inputs are
        sinks (the clock edge cuts those arcs).  Raises ``ValueError``
        on a combinational cycle.  The order is computed once per
        version by :func:`repro.netlist.compiled.compile_circuit`
        (:attr:`~repro.netlist.compiled.CompiledCircuit.topo`).
        """
        from repro.netlist.compiled import compile_circuit

        return [self._cell_row(ci) for ci in compile_circuit(self).topo]

    def critical_path_length(self, delay_model=None) -> int:
        """Longest register-to-register / input-to-output delay.

        The latest arrival (:attr:`CompiledCircuit.levels`) over the
        outputs and flipflop D pins under *delay_model* (default unit).
        """
        from repro.netlist.compiled import compile_circuit

        compiled = compile_circuit(self, delay_model)
        level = compiled.levels
        return max([level[n] for n in (*self.outputs, *compiled.ff_d)], default=0)

    # ------------------------------------------------------------------
    # functional evaluation (zero delay, single cycle)
    # ------------------------------------------------------------------
    def evaluate(
        self,
        input_values: Sequence[int],
        state: dict[int, int] | None = None,
    ) -> tuple[dict[int, int], dict[int, int]]:
        """Zero-delay functional evaluation of one clock cycle.

        *input_values* are the primary-input values in ``self.inputs``
        order; *state* maps DFF cell index -> stored bit (missing
        entries default to 0).  Returns ``(net_values, next_state)``.

        This is the golden reference the event-driven simulator is
        checked against: after any cycle the settled simulator values
        must equal this function's result.

        Evaluation runs on the memoized compiled IR
        (:func:`repro.netlist.compiled.compile_circuit`), so repeated
        calls do not re-run the topological sort.
        """
        from repro.netlist.compiled import compile_circuit

        compiled = compile_circuit(self)
        flat, next_state = compiled.evaluate_flat(input_values, state)
        values: dict[int, int] = {net: flat[net] for net in self.inputs}
        for i, ci in enumerate(compiled.ff_cells):
            values[compiled.ff_q[i]] = flat[compiled.ff_q[i]]
        for ci in compiled.topo:
            for out_net in compiled.cell_outputs[ci]:
                values[out_net] = flat[out_net]
        return values, next_state

    # ------------------------------------------------------------------
    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Circuit({self.name!r}: {len(self.cell_kinds)} cells, "
            f"{len(self.net_names)} nets, {len(self.inputs)} in, "
            f"{len(self.outputs)} out, {self.num_flipflops} FFs)"
        )


class CircuitColumns:
    """A rebuild of *source* written row by row, then built by :meth:`emit`
    with one :meth:`Circuit.add_nets` and one :meth:`Circuit.add_cells`
    call.  A net's index is its position in ``net_names`` (``None``: an
    anonymous ``n{k}``), ``net_map`` maps copied source nets to theirs,
    and ``cells`` holds ``kind, inputs, outputs, name`` flat, four
    entries per cell, so no object per row outlives its ``extend``.
    """

    def __init__(self, name: str, source: Circuit) -> None:
        self.name = name
        self.source = source
        self.net_map: dict[int, int] = {}
        self.net_names: List[str | None] = []
        self.net_indices: List[int] = []  # the index handed out per net
        self.inputs: List[int] = []
        self.outputs: List[int] = []
        self.cells: list = []
        #: Source net -> the nets of its shared chain (see :meth:`delayed`).
        self.chains: dict[int, List[int]] = {}

    def copy_nets(self, nets: Iterable[int]) -> List[int]:
        """Append a net named like each source net of *nets*, in order."""
        nets = list(nets)
        start = len(self.net_names)
        self.net_names.extend(map(self.source.net_names.__getitem__, nets))
        indices = list(range(start, len(self.net_names)))
        self.net_indices += indices
        self.net_map.update(zip(nets, indices))
        return indices

    def delayed(self, net: int, depth: int, kind: CellKind, prefix: str, step: int = 1) -> int:
        """Copied source *net* behind *depth* one-input *kind* cells: one
        chain per net, shared by every reader and grown on first use, its
        cell *k* named ``{prefix}_{net name}_{k * step}``."""
        chain = self.chains.setdefault(net, [self.net_map[net]])
        while len(chain) <= depth:
            src_name = self.source.net_names[net].replace("[", "_").replace("]", "")
            name, q = f"{prefix}_{src_name}_{len(chain) * step}", len(self.net_names)
            self.net_names.append(None)  # an anonymous net
            self.net_indices.append(q)
            self.cells.extend((kind, (chain[-1],), (q,), name))
            chain.append(q)
        return chain[depth]

    def emit(self) -> Circuit:
        """The circuit, checked by :meth:`Circuit.add_cells`' rules."""
        circuit = Circuit(self.name)
        circuit.add_nets(self.net_names, self.net_indices)
        circuit.inputs, circuit.outputs = self.inputs, self.outputs
        circuit.add_cells(*(self.cells[k::4] for k in range(4)))
        return circuit


def word_value(values: dict[int, int], word: Iterable[int]) -> int:
    """Assemble an unsigned integer from per-net *values* of *word* (LSB first)."""
    out = 0
    for i, net in enumerate(word):
        out |= (values.get(net, 0) & 1) << i
    return out


def int_to_bits(value: int, width: int) -> List[int]:
    """Split an unsigned integer into *width* bits, LSB first."""
    if value < 0:
        raise ValueError("value must be non-negative")
    return [(value >> i) & 1 for i in range(width)]
