"""The pure-Python batch engine: per-net Python-int lane masks.

:class:`LanesBackend` packs a whole batch of clock cycles into one
integer bitmask per net and evaluates each cell once per batch through
the compiled IR's fused bitmask kernels
(:attr:`~repro.netlist.compiled.CompiledCircuit.cell_eval_bits`).  A
*lane* is one bit position of those masks.  The engine is dual-mode,
keyed on the delay model:

* **zero-delay mode** (an explicit :class:`~repro.sim.delays.ZeroDelay`):
  one lane per cycle.  :func:`settle_lanes` evaluates the network once
  per batch with bitwise operators and resolves the flipflop recurrence
  ``q[k] = d[k-1]`` by fixpoint iteration.  Glitches are invisible by
  construction, so every counted transition is a settled-value change
  and per-net toggle counts equal the event-driven engine's *useful*
  counts exactly.
* **glitch mode** (any timed model, default
  :class:`~repro.sim.delays.UnitDelay`): one lane per cycle × delta
  time, aggregates bit-identical to the event-driven engine.

How glitch mode works:

1. Lane ``k*W + t`` of a net's mask holds its logic value at delta
   time ``t`` of batch cycle ``k``, where ``W``
   (:func:`~repro.netlist.codegen.static_event_horizon`) statically
   bounds the last possible event time from the levelized delays.
2. A settled pre-pass — the zero-delay mode's :func:`settle_lanes`,
   one lane per cycle — yields every net's settled value per cycle (by
   the engine-equivalence invariant these equal the event engine's
   end-of-cycle values) and resolves the flipflops.
   Primary-input and flipflop-``q`` lanes are constant within a cycle,
   so their waveform masks follow directly; their cycle boundaries are
   the clock-edge events.
3. For each cell with a toggling fan-in, the fused bitmask kernel
   evaluates all lanes at once: ``raw`` bit ``k*W + t`` is the output
   value implied by the inputs at time ``t`` of cycle ``k``.
4. Transport delay is one shift: ``om = ((raw << d) | v0*dmask) &
   full``.  The low ``d`` bits of each cycle block are *automatically*
   filled with the previous cycle's settled output, because the bits
   shifted in from the previous block's tail are evaluations of
   already-settled inputs (guaranteed by the static bound ``W``); only
   cycle 0 needs the explicit pre-batch seed ``v0``.  The applied
   transitions then fall out of one more shift/XOR —
   ``changed = om ^ (((om << 1) | v0) & full)`` — which is exactly the
   event engine's application-time last-write-wins suppression, for
   every cycle of the batch simultaneously.
5. Per-net statistics are lane arithmetic: toggles and rises are
   popcounts of ``changed`` (and ``changed & om``), per-cycle parity
   classification follows from settled-value changes (a cycle's toggle
   count is odd iff its settled value changed), and active-cycle
   counts use a segmented OR-fold of ``changed`` onto each cycle
   block's first lane.

Why glitch mode is *bit-identical* to
:class:`~repro.sim.engine.Simulator` (for delay models with all
combinational delays >= 1, which the constructor enforces):

* with delays >= 1, every event scheduled for time ``t`` is produced
  while processing a strictly earlier time, so when the event engine
  reaches ``t`` its wheel slot holds *all* changes for ``t`` — a cell
  is evaluated at most once per distinct time with all same-time input
  changes applied, which is precisely one lane of step 3 (lanes where
  no input changed evaluate to the unchanged output and are suppressed
  by step 4);
* a net's single driver emits transitions at strictly increasing
  times, so the shift/XOR change extraction equals the event engine's
  application-time ``values[net] == v`` check, and transitions
  alternate — making toggle counts, rises and parity exact;
* settled values and flipflop state equal the zero-delay settle by
  the repo's settled-equivalence invariant (property-tested since the
  seed).

The property suites in ``tests/test_sim_waveform.py`` (glitch mode)
and ``tests/test_sim_codegen.py`` (zero-delay mode) assert equality of
whole :class:`~repro.sim.backends.RunStats` objects against the
event-driven reference on random circuits × random delay models.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Sequence, Tuple

from repro.core.transitions import NodeActivity
from repro.netlist.circuit import Circuit
from repro.netlist.codegen import static_event_horizon
from repro.netlist.compiled import CompiledCircuit, compile_circuit
from repro.sim.delays import DelayModel, UnitDelay, ZeroDelay


def settle_lanes(
    cc: CompiledCircuit,
    net_bits: List[int],
    mask: int,
    base_values: Sequence[int],
) -> List[int]:
    """Zero-delay settle of a lane-packed batch, in place.

    *net_bits* holds one integer bitmask per net with the primary-input
    lanes already filled (bit *k* = value in lane *k*); *mask* selects
    the active lanes; *base_values* are the settled values before the
    batch (used to seed flipflop outputs).  On return every driven
    net's mask holds its settled value per lane, including flipflop
    ``q`` nets, whose cross-lane dependency ``q[k] = d[k-1]`` is
    resolved by fixpoint iteration (each pass extends the correct
    prefix by at least one register stage, so an r-stage register
    pipeline converges in about ``r + 1`` passes regardless of batch
    size).

    Returns the converged ``q`` lane masks, parallel to
    :attr:`CompiledCircuit.ff_cells`.
    """
    kernels = cc.cell_eval_bits
    cell_outputs = cc.cell_outputs
    topo = cc.topo

    def comb_pass(bits, m):
        for ci in topo:
            outs = kernels[ci](bits, m)
            for out_net, v in zip(cell_outputs[ci], outs):
                bits[out_net] = v

    ff_cells, ff_d, ff_q = cc.ff_cells, cc.ff_d, cc.ff_q
    if not ff_cells:
        comb_pass(net_bits, mask)
        return []
    nbits = mask.bit_length()
    q_init = [base_values[d] & 1 for d in ff_d]
    q_bits = list(q_init)
    for _ in range(nbits + 1):
        for i, qn in enumerate(ff_q):
            net_bits[qn] = q_bits[i]
        comb_pass(net_bits, mask)
        new_q = [
            ((net_bits[ff_d[i]] << 1) | q_init[i]) & mask
            for i in range(len(ff_cells))
        ]
        if new_q == q_bits:
            return q_bits
        q_bits = new_q
    raise RuntimeError(  # pragma: no cover - mathematically unreachable
        "flipflop fixpoint did not converge"
    )


def _pack_inputs(inputs, batch, n_nets) -> List[int]:
    """Per-net lane masks with each primary input's cycle stream."""
    net_bits = [0] * n_nets
    nb = len(batch)
    for pos, net in enumerate(inputs):
        stream = 0
        for k in range(nb):
            stream |= batch[k][pos] << k
        net_bits[net] = stream
    return net_bits


def _batch_consts(W: int, nb: int) -> Tuple:
    """Lane-geometry constants for a batch of *nb* cycles (axis *W*)."""
    wmask = (1 << W) - 1
    full = (1 << (nb * W)) - 1
    blockstart = 0
    for k in range(nb):
        blockstart |= 1 << (k * W)
    # Segmented OR-fold schedule: masks confine each shift to its own
    # cycle block, so after the last fold the first lane of every
    # block holds the OR of the whole block.
    fold = []
    sh = 1
    while sh < W:
        fold.append((sh, blockstart * (wmask >> sh)))
        sh <<= 1
    return wmask, full, blockstart, fold


class LanesBackend:
    """Pure-Python lane-packed batch backend (see module docstring).

    Satisfies the :class:`~repro.sim.backends.SimBackend` protocol.
    ``exact_glitches`` is ``True`` at class level (the engine *can*
    observe glitches); the instance attribute reflects the mode the
    delay model selected.  ``batch_cycles`` — how many clock cycles
    are packed into one set of lane masks — defaults per mode (32 in
    glitch mode, whose masks are ``W`` times wider, 256 in zero-delay
    mode); results are invariant under the choice.

    In glitch mode every combinational cell output must have a delay
    >= 1: a zero intra-cycle delay collapses cause and effect into one
    delta and makes the event engine re-evaluate cells within a single
    time step, which a one-pass formulation cannot (and should not)
    reproduce.  Pass an explicit ZeroDelay for settled simulation.
    """

    name = "lanes"
    exact_glitches = True
    #: Dual-mode marker: an explicit ZeroDelay model selects settled
    #: batch evaluation instead of being rejected.
    dual_mode = True

    def __init__(
        self,
        circuit: Circuit,
        delay_model: DelayModel | None = None,
        monitor: Iterable[int] | None = None,
        batch_cycles: int | None = None,
    ) -> None:
        if batch_cycles is not None and batch_cycles < 1:
            raise ValueError("batch_cycles must be >= 1")
        self.circuit = circuit
        if isinstance(delay_model, ZeroDelay):
            self.delay_model = delay_model
            self.exact_glitches = False
            self.batch_cycles = batch_cycles or 256
            cc: CompiledCircuit = compile_circuit(circuit)
        else:
            self.delay_model = delay_model or UnitDelay()
            self.batch_cycles = batch_cycles or 32
            cc = compile_circuit(circuit, self.delay_model)
            self._W = static_event_horizon(
                cc, circuit, self.delay_model, self.name
            )
        self._cc = cc
        if monitor is None:
            monitored = list(cc.driven)
        else:
            monitored = [False] * cc.n_nets
            for n in monitor:
                monitored[n] = True
        self._monitored = monitored

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

    def _open(self, values: List[int], ff_state: Dict[int, int]):
        """Per-run ``(step, finish)`` pair for the batch driver."""
        if self.exact_glitches:
            return self._open_glitch(values, ff_state)
        return self._open_zero(values, ff_state)

    # ------------------------------------------------------------------
    def _open_zero(self, values, ff_state):
        """Settled mode: one lane per cycle."""
        cc = self._cc
        n_nets = cc.n_nets
        inputs = cc.inputs
        ff_cells = cc.ff_cells
        monitored = self._monitored
        monitor = [n for n in range(n_nets) if monitored[n]]
        per_node: Dict[int, NodeActivity] = {}

        def step(batch):
            nb = len(batch)
            mask = (1 << nb) - 1
            top = nb - 1
            net_bits = _pack_inputs(inputs, batch, n_nets)
            q_bits = settle_lanes(cc, net_bits, mask, values)
            for i, ci in enumerate(ff_cells):
                ff_state[ci] = (q_bits[i] >> top) & 1

            for net in monitor:
                s = net_bits[net]
                prev = ((s << 1) | (values[net] & 1)) & mask
                diff = s ^ prev
                if diff:
                    act = per_node.get(net)
                    if act is None:
                        act = per_node[net] = NodeActivity()
                    tog = diff.bit_count()
                    act.toggles += tog
                    act.rises += (s & diff).bit_count()
                    act.useful += tog
                    act.cycles_active += tog
            for net in range(n_nets):
                values[net] = (net_bits[net] >> top) & 1

        def finish():
            return per_node, values

        return step, finish

    # ------------------------------------------------------------------
    def _open_glitch(self, values, ff_state):
        """Glitch mode: one lane per cycle × delta time."""
        cc = self._cc
        n_nets = cc.n_nets
        n_cells = len(cc.cell_kinds)
        inputs = cc.inputs
        comb_fanout = cc.comb_fanout
        cell_inputs = cc.cell_inputs
        out_specs = cc.out_specs
        kernels = cc.cell_eval_bits
        topo = cc.topo
        ff_cells, ff_q = cc.ff_cells, cc.ff_q
        monitored = self._monitored
        W = self._W

        # Flat per-net accumulators — folded into NodeActivity records
        # once at the end, instead of per-cycle dict+object churn.
        acc_tog = [0] * n_nets
        acc_rise = [0] * n_nets
        acc_useful = [0] * n_nets
        acc_useless = [0] * n_nets
        acc_active = [0] * n_nets

        #: per-net waveform lane masks (valid where touched is set)
        wbits = [0] * n_nets
        touched = bytearray(n_nets)
        consts = None
        last_nb = 0

        def step(batch):
            nonlocal consts, last_nb
            nb = len(batch)
            if nb != last_nb:
                consts = _batch_consts(W, nb)
                last_nb = nb
            wmask, full, blockstart, fold = consts
            cy_mask = (1 << nb) - 1
            top = nb - 1

            # --- settled pre-pass: zero-delay lanes, one per cycle ----
            slanes = _pack_inputs(inputs, batch, n_nets)
            q_lanes = settle_lanes(cc, slanes, cy_mask, values)

            # --- seed waveforms: clock edge + new primary inputs ------
            # Inputs and flipflop q outputs hold one value per cycle
            # (lanes *s*); a changed value is that cycle's time-0
            # event, and every such change is one useful transition.
            touched[:] = bytes(n_nets)
            dirty = bytearray(n_cells)

            def seed_edge_net(net, s):
                ch = (s ^ ((s << 1) | values[net])) & cy_mask
                if not ch:
                    return
                sp = 0
                x = s
                while x:
                    low = x & -x
                    sp |= 1 << ((low.bit_length() - 1) * W)
                    x ^= low
                wbits[net] = sp * wmask
                touched[net] = 1
                for cj in comb_fanout[net]:
                    dirty[cj] = 1
                if monitored[net]:
                    tog = ch.bit_count()
                    acc_tog[net] += tog
                    acc_rise[net] += (ch & s).bit_count()
                    acc_useful[net] += tog
                    acc_active[net] += tog

            for net in inputs:
                seed_edge_net(net, slanes[net])
            for i, ci in enumerate(ff_cells):
                seed_edge_net(ff_q[i], q_lanes[i])

            # --- one pass over the topological order ------------------
            for ci in topo:
                if not dirty[ci]:
                    continue
                for n in cell_inputs[ci]:
                    if not touched[n]:
                        # No event in the whole batch: constant value.
                        wbits[n] = full if values[n] else 0
                        touched[n] = 1
                outs = kernels[ci](wbits, full)
                pos = 0
                for out_net, d in out_specs[ci]:
                    raw = outs[pos]
                    pos += 1
                    v0 = values[out_net]
                    if v0:
                        om = ((raw << d) | ((1 << d) - 1)) & full
                        changed = om ^ (((om << 1) | 1) & full)
                    else:
                        om = (raw << d) & full
                        changed = om ^ ((om << 1) & full)
                    if not changed:
                        continue
                    wbits[out_net] = om
                    touched[out_net] = 1
                    for cj in comb_fanout[out_net]:
                        dirty[cj] = 1
                    if monitored[out_net]:
                        tog = changed.bit_count()
                        acc_tog[out_net] += tog
                        s = slanes[out_net]
                        sch = (s ^ ((s << 1) | v0)) & cy_mask
                        u = sch.bit_count()
                        acc_rise[out_net] += (changed & om).bit_count()
                        acc_useful[out_net] += u
                        acc_useless[out_net] += tog - u
                        m = changed
                        for sh, msk in fold:
                            m |= (m >> sh) & msk
                        acc_active[out_net] += (m & blockstart).bit_count()

            # --- commit the batch boundary ----------------------------
            for net in range(n_nets):
                values[net] = (slanes[net] >> top) & 1
            for i, ci in enumerate(ff_cells):
                ff_state[ci] = (q_lanes[i] >> top) & 1

        def finish():
            per_node = {
                net: NodeActivity(
                    tog, acc_rise[net], acc_useful[net], acc_useless[net],
                    acc_active[net],
                )
                for net, tog in enumerate(acc_tog)
                if tog
            }
            return per_node, values

        return step, finish
