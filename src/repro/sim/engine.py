"""The event-driven transport-delay simulation engine.

This module is the low-level core behind the *event-driven* entry in
the pluggable backend suite (:mod:`repro.sim.backends`): it owns the
intra-cycle delta-time semantics, while :mod:`repro.sim.backends`
adapts it (next to the lanes and vector batch engines) to the common
:class:`SimBackend` protocol consumed by
:class:`repro.core.activity.ActivityRun`.

One :class:`Simulator` instance wraps a circuit plus a delay model and
steps it one clock cycle at a time:

* :meth:`Simulator.settle` initialises all nets functionally (no
  transitions recorded) — the paper's analysis always compares against
  a well-defined *previous* computation, so a warm-up settle precedes
  counting;
* :meth:`Simulator.step` applies a new primary-input vector (and the
  flipflop update) at delta-time 0 and propagates events until the
  network is quiescent, returning a :class:`CycleTrace` with per-net
  toggle and rise counts for that cycle.

Semantics: transport delay with per-(net, time) last-write-wins
coalescing; integer delta time; two-valued logic.  After every step the
settled values provably equal the zero-delay functional evaluation
(checked in the test suite, including property-based tests).

Implementation: all per-cell structure (inputs, outputs, evaluators,
pre-resolved delays, combinational fanout) comes from the memoized
compiled IR (:func:`repro.netlist.compiled.compile_circuit`), so
constructing a simulator is cheap after the first one per
``(circuit, delay model)`` pair.  The event queue is a bounded-delay
calendar (timing wheel) of ``max_delay + 1`` slots instead of a binary
heap: every pending event lies within ``max_delay`` deltas of the
current time, so popping the next time slot is an O(1) circular scan
with no heap reordering and no auxiliary scheduled-time set.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Sequence, Tuple

from repro.netlist.circuit import Circuit
from repro.netlist.compiled import CompiledCircuit, compile_circuit
from repro.obs import trace as obs
from repro.sim.delays import DelayModel, UnitDelay


@dataclass
class CycleTrace:
    """Per-clock-cycle activity record.

    Attributes
    ----------
    cycle:
        0-based index of the counted cycle.
    toggles:
        ``{net_index: number of value changes within the cycle}`` —
        only nets that changed at least once appear.
    rises:
        ``{net_index: number of 0->1 (power-consuming) changes}``.
    settle_time:
        Largest delta time at which any event was applied (0 when the
        cycle produced no activity).
    events:
        Optional ``[(time, net, value), ...]`` list (populated when the
        simulator was built with ``record_events=True``), consumed by
        the VCD writer.
    """

    cycle: int
    toggles: Dict[int, int] = field(default_factory=dict)
    rises: Dict[int, int] = field(default_factory=dict)
    settle_time: int = 0
    events: List[Tuple[int, int, int]] | None = None

    def total_toggles(self, nets: Iterable[int] | None = None) -> int:
        """Sum of toggle counts, optionally restricted to *nets*."""
        if nets is None:
            return sum(self.toggles.values())
        return sum(self.toggles.get(n, 0) for n in nets)


class Simulator:
    """Event-driven simulator for a single-clock synchronous circuit.

    Parameters
    ----------
    circuit:
        The netlist to simulate.  It is not modified.
    delay_model:
        Maps each combinational cell output to an integer delay
        (default :class:`~repro.sim.delays.UnitDelay`).
    record_events:
        When true, every applied event ``(time, net, value)`` is kept in
        the cycle trace (needed for VCD dumps; costs memory).
    monitor:
        Optional set of net indices to track in cycle traces; defaults
        to every net that is driven by a cell (i.e. all internal nodes,
        as in the paper — primary inputs are excluded because their
        single change per cycle is stimulus, not circuit activity).
    """

    def __init__(
        self,
        circuit: Circuit,
        delay_model: DelayModel | None = None,
        record_events: bool = False,
        monitor: Iterable[int] | None = None,
    ) -> None:
        self.circuit = circuit
        self.delay_model = delay_model or UnitDelay()
        self.record_events = record_events

        cc: CompiledCircuit = compile_circuit(circuit, self.delay_model)
        self._cc = cc
        self.values: List[int] = [0] * cc.n_nets
        self.ff_state: Dict[int, int] = {ci: 0 for ci in cc.ff_cells}
        self._cycle = 0
        self._monitored = cc.monitored(monitor)

        # Timing wheel size: pending events at time t live in slot
        # t % size.  Delays are bounded by max_delay, so max_delay + 1
        # slots always hold every outstanding time without collision.
        # The wheel itself is allocated per step so an exception
        # escaping mid-step cannot leave stale events behind.
        self._wheel_size = cc.max_delay + 1

    # ------------------------------------------------------------------
    @property
    def cycle(self) -> int:
        """Number of counted cycles stepped so far."""
        return self._cycle

    def _normalise_inputs(
        self, inputs: Sequence[int] | Mapping[int, int]
    ) -> Dict[int, int]:
        """Turn a positional or per-net input spec into {net: bit}.

        Mapping keys must name primary-input nets: anything else would
        silently inject events onto internally driven nets at t=0.
        """
        if isinstance(inputs, Mapping):
            input_set = self._cc.input_set
            vec = {}
            for n, v in inputs.items():
                if n not in input_set:
                    raise ValueError(
                        f"net {n} is not a primary input of "
                        f"{self.circuit.name!r}; mapping vectors may only "
                        "drive primary inputs"
                    )
                vec[n] = int(bool(v))
            return vec
        if len(inputs) != len(self.circuit.inputs):
            raise ValueError(
                f"expected {len(self.circuit.inputs)} input bits, "
                f"got {len(inputs)}"
            )
        return {
            n: int(bool(v)) for n, v in zip(self.circuit.inputs, inputs)
        }

    # ------------------------------------------------------------------
    def settle(self, inputs: Sequence[int] | Mapping[int, int]) -> None:
        """Functionally initialise the network on *inputs*.

        No transitions are recorded and the flipflop state is left
        untouched — this provides the "previous computation" baseline
        that per-cycle parity classification is defined against.
        """
        vec = self._normalise_inputs(inputs)
        values = self.values
        full = [vec.get(net, values[net]) for net in self._cc.inputs]
        flat, _ = self._cc.evaluate_flat(full, self.ff_state)
        self.values = flat

    def step(self, inputs: Sequence[int] | Mapping[int, int]) -> CycleTrace:
        """Advance one clock cycle and return its activity trace.

        At delta-time 0 the primary inputs take their new values and
        every flipflop output takes the value its D pin had at the end
        of the previous cycle (edge-triggered update).  Events then
        propagate until the network is quiescent.
        """
        vec = self._normalise_inputs(inputs)
        trace = CycleTrace(cycle=self._cycle)
        if self.record_events:
            trace.events = []

        cc = self._cc
        values = self.values
        ff_state = self.ff_state

        # Clock edge: capture D pins *before* anything changes.
        at0: Dict[int, int] = dict(vec)
        ff_q = cc.ff_q
        for i, ci in enumerate(cc.ff_cells):
            q = values[cc.ff_d[i]]
            ff_state[ci] = q
            at0[ff_q[i]] = q

        size = self._wheel_size
        wheel: List[Dict[int, int] | None] = [None] * size
        wheel[0] = at0
        n_slots = 1
        comb_fanout = cc.comb_fanout
        kernels = cc.cell_eval_bits
        cell_outputs, cell_delays = cc.cell_outputs, cc.cell_delays
        monitored = self._monitored
        toggles = trace.toggles
        rises = trace.rises
        events = trace.events
        t = 0
        last_time = 0

        while n_slots:
            idx = t % size
            changes = wheel[idx]
            if changes is None:
                t += 1
                continue
            wheel[idx] = None
            n_slots -= 1
            affected: Dict[int, None] = {}
            any_change = False
            for net, v in changes.items():
                if values[net] == v:
                    continue
                values[net] = v
                any_change = True
                if monitored[net]:
                    toggles[net] = toggles.get(net, 0) + 1
                    if v:
                        rises[net] = rises.get(net, 0) + 1
                if events is not None:
                    events.append((t, net, v))
                for ci in comb_fanout[net]:
                    affected[ci] = None
            if any_change:
                last_time = t
            for ci in affected:
                outs = kernels[ci](values, 1)
                for out_net, d, v in zip(cell_outputs[ci], cell_delays[ci], outs):
                    widx = (t + d) % size
                    slot = wheel[widx]
                    if slot is None:
                        slot = wheel[widx] = {}
                        n_slots += 1
                    slot[out_net] = v

        trace.settle_time = last_time
        self._cycle += 1
        return trace

    def run(
        self,
        vectors: Iterable[Sequence[int] | Mapping[int, int]],
        warmup: Sequence[int] | Mapping[int, int] | None = None,
    ) -> List[CycleTrace]:
        """Settle on *warmup* (or the first vector) and step the rest.

        Returns one trace per counted vector.  When *warmup* is ``None``
        the first vector of *vectors* is consumed as warm-up and not
        counted — mirroring the paper's setup where every counted cycle
        has a well-defined previous computation.
        """
        it = iter(vectors)
        if warmup is None:
            try:
                warmup = next(it)
            except StopIteration:
                return []
        with obs.span("sim.engine", circuit=self.circuit.name):
            self.settle(warmup)
            return [self.step(v) for v in it]

    # ------------------------------------------------------------------
    def output_values(self) -> Dict[str, int]:
        """Current settled values of the primary outputs, by net name."""
        return {
            self.circuit.net_name(n): self.values[n]
            for n in self.circuit.outputs
        }

    def word_value(self, word: Sequence[int]) -> int:
        """Assemble the current value of a word of nets (LSB first)."""
        out = 0
        for i, net in enumerate(word):
            out |= (self.values[net] & 1) << i
        return out
