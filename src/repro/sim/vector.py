"""Vectorized numpy backend: the fast tier of the ``[perf]`` extra.

:class:`VectorBackend` evaluates whole *levels* of the circuit as
single ndarray operations.  The levelized grouping comes from
:func:`repro.netlist.codegen.level_groups`: cells sharing
``(level, kind, arity, delays)`` are gathered into index arrays once
per compiled circuit, so one batch step executes a few hundred numpy
ops regardless of cell count — which is what makes 100k-cell netlists
routine (ROADMAP open item 1).

Lane packing differs from the lanes backend: a net's state is a row of
``uint64`` words with one *clock cycle per bit* (``ceil(nb / 64)``
words for an *nb*-cycle batch).  The glitch-exact mode adds a second
axis of ``W`` intra-cycle delta times — ``wave[net, t]`` packs the
value at delta time *t* across all cycles — so transport delay is an
axis-1 offset, and transition extraction is one XOR of adjacent time
rows.

A net can only change inside its arrival window
(:func:`repro.netlist.codegen.arrival_windows`); before it, it holds
the previous cycle's settled bits and after it the new ones, both
known from the settled pre-pass.  So each group is evaluated only on
its window rows, one ``[lo, hi]`` per output position (a full adder's
sum and carry have different delays), and its toggles, rises and
active cycles are ``np.bitwise_count`` reductions over that slice
alone.  The statistics are **bit-identical** to the event-driven
engine (same property suite as the lanes backend).

Importing the module does not import numpy: the first
:func:`numpy_available` call or backend construction does, so commands
that never simulate on this tier never pay for it.  When numpy cannot
be imported, or is older than 2.0 (``np.bitwise_count`` needs 2.0,
hence the ``[perf]`` extra's floor), constructing the backend raises
:class:`~repro.sim.backends.BackendUnavailableError` and
:func:`numpy_available` lets the auto policy fall back to the
pure-Python lanes engine.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Sequence

from repro.core.transitions import CountColumns
from repro.netlist.cells import CellKind
from repro.netlist.circuit import Circuit
from repro.netlist.codegen import static_event_horizon
from repro.netlist.compiled import CompiledCircuit, compile_circuit
from repro.sim.delays import DelayModel, UnitDelay, ZeroDelay

#: numpy, bound by the first :func:`numpy_unavailable_reason` call that
#: finds a usable one; importing this module does not import numpy.
np = None
_U1 = _U63 = None
_WORD = 0xFFFFFFFFFFFFFFFF
_UNPROBED = "numpy has not been probed yet"
#: Why the vector backend cannot run here; ``None`` once numpy loaded.
_NUMPY_ERROR: str | None = _UNPROBED


def _load_numpy() -> str | None:
    """Import numpy for the kernels; returns why it is unusable, or None."""
    global np, _U1, _U63
    try:
        import numpy
    except ImportError:
        return "numpy is not installed (pip install 'repro-leijten-date95[perf]')"
    if not hasattr(numpy, "bitwise_count"):
        return (
            f"numpy {numpy.__version__} lacks bitwise_count "
            "(the [perf] extra needs numpy >= 2.0)"
        )
    np = numpy
    _U1, _U63 = np.uint64(1), np.uint64(63)
    return None


def numpy_available() -> bool:
    """Whether the vector backend can run in this environment."""
    return numpy_unavailable_reason() is None


def numpy_unavailable_reason() -> str | None:
    """Why the vector backend can't run here, or ``None`` if it can.

    The first call imports numpy.
    """
    global _NUMPY_ERROR
    if _NUMPY_ERROR is _UNPROBED:
        _NUMPY_ERROR = _load_numpy()
    return _NUMPY_ERROR


def _shl1(a, Mw):
    """Shift each cycle-packed row left by one cycle, within *Mw*."""
    out = a << _U1
    if a.shape[-1] > 1:
        out[..., 1:] |= a[..., :-1] >> _U63
    return out & Mw


def _apply_group(kind, ins, Mw):
    """Vectorized kind op over gathered input arrays (lane semantics
    identical to the fused bitmask kernels)."""
    if kind in (CellKind.BUF, CellKind.DFF):
        return (ins[0],)
    if kind is CellKind.NOT:
        return (Mw ^ ins[0],)
    if kind is CellKind.MUX2:
        s, a, b = ins
        return (a ^ ((a ^ b) & s),)
    if kind is CellKind.HA:
        a, b = ins
        return (a ^ b, a & b)
    if kind is CellKind.FA:
        a, b, c = ins
        p = a ^ b
        return (p ^ c, (a & b) | (c & p))
    if kind in (CellKind.AND, CellKind.NAND):
        out = ins[0]
        for a in ins[1:]:
            out = out & a
        return (Mw ^ out,) if kind is CellKind.NAND else (out,)
    if kind in (CellKind.OR, CellKind.NOR):
        out = ins[0]
        for a in ins[1:]:
            out = out | a
        return (Mw ^ out,) if kind is CellKind.NOR else (out,)
    if kind in (CellKind.XOR, CellKind.XNOR):
        out = ins[0]
        for a in ins[1:]:
            out = out ^ a
        return (Mw ^ out,) if kind is CellKind.XNOR else (out,)
    raise NotImplementedError(f"no vector lowering for {kind}")


class _VecGroup:
    __slots__ = ("kind", "pins", "outs", "rows")

    def __init__(self, kind, pins, outs, rows):
        self.kind = kind
        self.pins = pins    # per pin: np.intp index array over nets
        self.outs = outs    # per output position: (intp array, lo, hi + 1)
        self.rows = rows    # input rows (first, last + 1), or None: constant


class _VecPlan:
    """A snapshot's groups and port indices as arrays; it holds no
    waveform, which each run allocates for itself."""

    __slots__ = (
        "groups", "edge_idx", "input_idx", "ff_d_idx", "ff_q_idx", "n_ff",
    )

    def __init__(self, cc: CompiledCircuit):
        if cc.max_delay:  # a settled snapshot needs no windows
            lo, hi = (np.asarray(w, dtype=np.int64) for w in cc.arrival_windows)
        self.groups = []
        for g in cc.cell_groups:
            outs = [np.asarray(nets, dtype=np.intp) for _, nets in g.outs]
            rows = None
            if cc.max_delay and hi[outs[0]].max() >= 0:
                # The union of the members' windows.  The members share
                # their delays, so every output position reads the same
                # input rows, each at its own offset.
                h = hi[outs[0]]
                dly = g.outs[0][0]
                rows = (int(lo[outs[0]][h >= 0].min()) - dly, int(h.max()) - dly + 1)
            self.groups.append(_VecGroup(
                g.kind,
                [np.asarray(p, dtype=np.intp) for p in g.pins],
                [
                    (idx, None, None) if rows is None
                    else (idx, rows[0] + dly, rows[1] + dly)
                    for idx, (dly, _) in zip(outs, g.outs)
                ],
                rows,
            ))
        self.edge_idx = np.asarray(
            tuple(cc.inputs) + tuple(cc.ff_q), dtype=np.intp
        )
        self.input_idx = np.asarray(cc.inputs, dtype=np.intp)
        self.ff_d_idx = np.asarray(cc.ff_d, dtype=np.intp)
        self.ff_q_idx = np.asarray(cc.ff_q, dtype=np.intp)
        self.n_ff = len(cc.ff_cells)


def _plan_for(cc: CompiledCircuit) -> _VecPlan:
    # Memoized on the compiled snapshot itself (cached_property style:
    # direct __dict__ writes are permitted on the frozen dataclass), so
    # the plan shares the snapshot's lifetime and invalidation.
    plan = cc.__dict__.get("_vector_plan")
    if plan is None:
        plan = _VecPlan(cc)
        cc.__dict__["_vector_plan"] = plan
    return plan


#: Waveform bytes a batch grows to: the ``(n_nets, W, words)``
#: ``uint64`` array of glitch mode (``W`` taken as 1 in zero-delay
#: mode), one 64-cycle word per row.  From
#: ``benchmarks/bench_batch_size.py``: small circuits run fastest in one
#: long batch, and 4 MB keeps a catalog sweep's peak memory where fixed
#: 256-cycle batches left it (8 or 32 MB raise it by ~2 MB).
BATCH_BUDGET = 4 << 20
#: Largest waveform a 256-cycle batch may take.  In 64- or 128-cycle
#: batches array32 and array48 ran up to ~2x slower than in 256, while
#: farm16 (145 MB at 256 cycles) runs as fast in 64.
BATCH_CAP = 32 << 20


def batch_cycles_for(n_nets: int, W: int) -> int:
    """Cycles per batch of a circuit with *n_nets* nets and horizon *W*.

    As many 64-cycle words as :data:`BATCH_BUDGET` holds, and at least
    four (256 cycles) while those fit :data:`BATCH_CAP`; a circuit too
    large for that gets one word (64 cycles).
    """
    word = max(n_nets, 1) * max(W, 1) * 8
    words = BATCH_BUDGET // word
    if words < 4:
        words = 4 if 4 * word <= BATCH_CAP else 1
    return 64 * words


class VectorBackend:
    """Levelized ndarray backend (see module docstring).

    Satisfies the :class:`~repro.sim.backends.SimBackend` protocol and
    is **dual-mode** like the lanes backend: a timed delay model
    (default :class:`~repro.sim.delays.UnitDelay`) runs the
    glitch-exact waveform-lane algorithm; an explicit
    :class:`~repro.sim.delays.ZeroDelay` runs settled batch evaluation
    bit-identical to the lanes backend's zero-delay mode.

    ``batch_cycles`` defaults to :func:`batch_cycles_for` the compiled
    circuit; results are invariant under the choice.
    """

    name = "vector"
    exact_glitches = True

    def __init__(
        self,
        circuit: Circuit,
        delay_model: DelayModel | None = None,
        monitor: Iterable[int] | None = None,
        batch_cycles: int | None = None,
    ) -> None:
        reason = numpy_unavailable_reason()
        if reason is not None:
            from repro.sim.backends import BackendUnavailableError

            raise BackendUnavailableError(
                f"the 'vector' backend is unavailable: {reason}"
            )
        if batch_cycles is not None and batch_cycles < 1:
            raise ValueError("batch_cycles must be >= 1")
        self.circuit = circuit
        self.delay_model = delay_model or UnitDelay()
        self.exact_glitches = not isinstance(self.delay_model, ZeroDelay)
        cc = self._cc = compile_circuit(circuit, self.delay_model)
        self._W = (
            static_event_horizon(cc, circuit, self.delay_model, self.name)
            if self.exact_glitches else 0
        )
        self.batch_cycles = batch_cycles or batch_cycles_for(cc.n_nets, self._W)
        self._plan = _plan_for(cc)
        self._monitored = np.asarray(cc.monitored(monitor), dtype=bool)

    # ------------------------------------------------------------------
    def _zero_pass(self, lanes, Mw):
        """One combinational pass over the level groups (zero-delay)."""
        for g in self._plan.groups:
            kind = g.kind
            if kind is CellKind.CONST0:
                lanes[g.outs[0][0]] = 0
                continue
            if kind is CellKind.CONST1:
                lanes[g.outs[0][0]] = Mw
                continue
            ins = [lanes[idx] for idx in g.pins]
            outs = _apply_group(kind, ins, Mw)
            for (oidx, _lo, _hi), arr in zip(g.outs, outs):
                lanes[oidx] = arr

    def _settle(self, sl, Mw, v0bits, nb):
        """Settle *sl* in place; returns converged ff q rows.

        The vectorized twin of
        :func:`repro.sim.lanes.settle_lanes`: the flipflop
        recurrence ``q[k] = d[k-1]`` is fixpoint-resolved with the
        same iteration bound and the same convergence condition.
        """
        plan = self._plan
        nw = sl.shape[1]
        if plan.n_ff == 0:
            self._zero_pass(sl, Mw)
            return np.zeros((0, nw), np.uint64)
        q_init = v0bits[plan.ff_d_idx]
        q = np.zeros((plan.n_ff, nw), np.uint64)
        q[:, 0] = q_init
        for _ in range(nb + 1):
            sl[plan.ff_q_idx] = q
            self._zero_pass(sl, Mw)
            new_q = _shl1(sl[plan.ff_d_idx], Mw)
            new_q[:, 0] |= q_init
            if np.array_equal(new_q, q):
                return q
            q = new_q
        raise RuntimeError(  # pragma: no cover - mathematically unreachable
            "flipflop fixpoint did not converge"
        )

    # ------------------------------------------------------------------
    def run(
        self,
        vectors: Iterable[Sequence[int] | Mapping[int, int]],
        warmup: Sequence[int] | Mapping[int, int] | None = None,
        initial_values: Sequence[int] | None = None,
        initial_ff_state: Mapping[int, int] | None = None,
    ) -> "RunStats":
        """Simulate *vectors*; semantics match the event backend."""
        from repro.sim.backends import run_batches

        return run_batches(
            self, vectors, warmup, initial_values, initial_ff_state
        )

    def _settle_vector(self, bits: List[int], ff_state: Dict[int, int]):
        """Settled net values for one input vector (the batch driver's warm-up).

        One one-lane :meth:`_zero_pass`, flipflop outputs from
        *ff_state*: the values :meth:`CompiledCircuit.evaluate_flat`
        gives, as a ``uint64`` array.
        """
        plan, cc = self._plan, self._cc
        lane = np.zeros((cc.n_nets, 1), np.uint64)
        lane[plan.input_idx, 0] = bits
        lane[plan.ff_q_idx, 0] = [ff_state.get(ci, 0) for ci in cc.ff_cells]
        self._zero_pass(lane, np.ones(1, np.uint64))
        return lane[:, 0]

    def _open(self, values, ff_state: Dict[int, int]):
        """Per-run ``(step, finish)`` pair for the batch driver."""
        v0bits = np.asarray(values, dtype=np.uint64) & _U1
        if self.exact_glitches:
            return self._open_glitch(v0bits, ff_state)
        return self._open_zero(v0bits, ff_state)

    # ------------------------------------------------------------------
    def _pack_inputs(self, sl, lanes, nw):
        # Per-input lane ints -> their little-endian 64-cycle words.
        nbytes = 8 * nw
        sl[self._plan.input_idx] = np.frombuffer(
            b"".join([lane.to_bytes(nbytes, "little") for lane in lanes]),
            dtype="<u8",
        ).reshape(len(lanes), nw)

    @staticmethod
    def _word_consts(nb):
        nw = (nb + 63) >> 6
        Mw = np.full(nw, _WORD, dtype=np.uint64)
        r = nb & 63
        if r:
            Mw[-1] = (1 << r) - 1
        return nw, Mw

    def _finish(self, acc, v0bits):
        nz = np.nonzero((acc[0] != 0) & self._monitored)[0]
        counts = CountColumns(nz.tolist(), *[a[nz].tolist() for a in acc])
        return counts, v0bits.astype(np.int64).tolist()

    # ------------------------------------------------------------------
    def _open_zero(self, v0bits, ff_state):
        """Settled batch evaluation (zero-delay semantics)."""
        cc = self._cc
        n_nets = cc.n_nets
        ff_cells = cc.ff_cells
        acc = tuple(np.zeros(n_nets, np.int64) for _ in range(5))
        acc_tog, acc_rise, acc_useful, _acc_useless, acc_active = acc

        def step(nb, lanes):
            nonlocal v0bits, acc_tog, acc_rise, acc_useful, acc_active
            nw, Mw = self._word_consts(nb)
            sl = np.zeros((n_nets, nw), np.uint64)
            self._pack_inputs(sl, lanes, nw)
            q_rows = self._settle(sl, Mw, v0bits, nb)

            prev = _shl1(sl, Mw)
            prev[:, 0] |= v0bits
            diff = sl ^ prev
            tog = np.bitwise_count(diff).sum(axis=1, dtype=np.int64)
            acc_tog += tog
            acc_rise += np.bitwise_count(sl & diff).sum(
                axis=1, dtype=np.int64
            )
            acc_useful += tog
            acc_active += tog

            wi, bi = (nb - 1) >> 6, np.uint64((nb - 1) & 63)
            v0bits = (sl[:, wi] >> bi) & _U1
            if ff_cells:
                q_top = (q_rows[:, wi] >> bi) & _U1
                for i, ci in enumerate(ff_cells):
                    ff_state[ci] = int(q_top[i])

        def finish():
            return self._finish(acc, v0bits)

        return step, finish

    # ------------------------------------------------------------------
    def _open_glitch(self, v0bits, ff_state):
        """Glitch-exact waveform-lane evaluation (time-major layout)."""
        cc = self._cc
        plan = self._plan
        n_nets = cc.n_nets
        ff_cells = cc.ff_cells
        W = self._W
        edge = plan.edge_idx
        acc = tuple(np.zeros(n_nets, np.int64) for _ in range(5))
        acc_tog, acc_rise, acc_useful, acc_useless, acc_active = acc
        wave = None
        wave_shape = None

        def step(nb, lanes):
            nonlocal v0bits, wave, wave_shape
            nonlocal acc_tog, acc_rise, acc_useful, acc_useless, acc_active
            nw, Mw = self._word_consts(nb)
            sl = np.zeros((n_nets, nw), np.uint64)
            self._pack_inputs(sl, lanes, nw)
            q_rows = self._settle(sl, Mw, v0bits, nb)

            # Previous-cycle settled bits per lane (cycle 0 <- v0).
            ps = _shl1(sl, Mw)
            ps[:, 0] |= v0bits

            # Waveform array: value at delta time t, cycles bit-packed;
            # one per run (and per batch shape), freed with the run.
            if wave_shape != (n_nets, W, nw):
                wave_shape = (n_nets, W, nw)
                wave = np.empty(wave_shape, np.uint64)
            # Every net starts each row at its previous settled bits:
            # the value before its window, and forever for nets that
            # never change.  Clock-edge nets hold their new settled
            # value all cycle long; a group writes its window rows and
            # the new settled bits on every row after the window.
            wave[...] = ps[:, None, :]
            wave[edge] = sl[edge][:, None, :]

            btog = np.zeros(n_nets, np.int64)
            brise = np.zeros(n_nets, np.int64)
            bact = np.zeros(n_nets, np.int64)
            for g in plan.groups:
                if g.rows is None:
                    continue  # constant waveforms, no transitions
                first, stop = g.rows
                ins = [wave[idx, first:stop] for idx in g.pins]
                raws = _apply_group(g.kind, ins, Mw)
                for (oidx, lo, hi), raw in zip(g.outs, raws):
                    wave[oidx, lo:hi] = raw
                    wave[oidx, hi:] = sl[oidx][:, None, :]
                    # Changes inside the window; the row before it is
                    # the previous settled value, the rows after it
                    # repeat the window's last row.
                    ch = np.empty_like(raw)
                    ch[:, 0] = raw[:, 0] ^ ps[oidx]
                    np.bitwise_xor(raw[:, 1:], raw[:, :-1], out=ch[:, 1:])
                    btog[oidx] = np.bitwise_count(ch).sum(
                        axis=(1, 2), dtype=np.int64
                    )
                    brise[oidx] = np.bitwise_count(ch & raw).sum(
                        axis=(1, 2), dtype=np.int64
                    )
                    bact[oidx] = np.bitwise_count(
                        np.bitwise_or.reduce(ch, axis=1)
                    ).sum(axis=1, dtype=np.int64)

            # Edge transitions happen at the clock edge: toggles equal
            # settled changes, every one useful and rising with sl.
            sch_e = sl[edge] ^ ps[edge]
            te = np.bitwise_count(sch_e).sum(axis=1, dtype=np.int64)
            btog[edge] += te
            brise[edge] += np.bitwise_count(sch_e & sl[edge]).sum(
                axis=1, dtype=np.int64
            )
            bact[edge] += te

            # Parity classification from settled changes: a cycle's
            # toggle count is odd iff the settled value changed, so the
            # useful count is the settled-change popcount (zero for
            # nets whose waveform never moved).
            u = np.bitwise_count(sl ^ ps).sum(axis=1, dtype=np.int64)
            acc_tog += btog
            acc_rise += brise
            acc_useful += u
            acc_useless += btog - u
            acc_active += bact

            wi, bi = (nb - 1) >> 6, np.uint64((nb - 1) & 63)
            v0bits = (sl[:, wi] >> bi) & _U1
            if ff_cells:
                q_top = (q_rows[:, wi] >> bi) & _U1
                for i, ci in enumerate(ff_cells):
                    ff_state[ci] = int(q_top[i])

        def finish():
            return self._finish(acc, v0bits)

        return step, finish
