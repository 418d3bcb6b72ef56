"""Pluggable simulation backends over the compiled circuit IR.

Every backend implements the :class:`SimBackend` protocol — construct
with a circuit (plus options), call :meth:`run` with a vector stream,
get back aggregated per-net :class:`RunStats` — so the activity layer
(:class:`repro.core.activity.ActivityRun`) can swap engines without
touching consumers.  Three engines are registered (:data:`BACKENDS`):

* :class:`EventDrivenBackend` (``event``) — the exact transport-delay
  engine (:class:`repro.sim.engine.Simulator`): intra-cycle delta
  timing, glitches observable, per-cycle parity classification of
  useful vs useless transitions.  The reference for every paper
  number, and the only engine that produces per-cycle traces and
  recorded events (VCD).
* :class:`~repro.sim.lanes.LanesBackend` (``lanes``) — the pure-Python
  batch engine: a batch of cycles packed into one Python-int bitmask
  per net, each cell evaluated once per batch.
* :class:`~repro.sim.vector.VectorBackend` (``vector``) — the numpy
  tier (the optional ``[perf]`` extra): per-net cycle lanes packed into
  ``uint64`` ndarrays, evaluated level-by-level with per-kind
  vectorized ops, and the fastest engine by a wide margin.

The delay model alone selects the mode of the two batch engines: a
timed model selects glitch-exact analysis whose aggregated
:class:`RunStats` are bit-identical to the event-driven engine's;
:class:`~repro.sim.delays.ZeroDelay` selects settled evaluation, whose
per-net toggle counts equal the event-driven engine's *useful* counts.
Both run through one batch driver, :func:`run_batches`, and differ
only in their per-batch kernel.  Each engine has exactly one name.

All backends accept an explicit starting point (``initial_values`` +
``initial_ff_state``), which is what makes exact vector-stream sharding
possible: a shard's boundary state is computed cheaply by a batch
engine under ``ZeroDelay`` and handed to a glitch-exact shard worker,
whose stats are then bit-identical to an unsharded run (settled values
provably equal zero-delay evaluation).

:func:`select_backend` implements the ``"auto"`` policy used by the
session API and the CLI: the vector backend when numpy is available,
the lanes backend without it, in either mode (traces and VCD recording
name the event-driven engine themselves).  Asking that question is
what imports numpy: importing this module does not.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (
    Dict, Iterable, Iterator, List, Mapping, Protocol, Sequence, Tuple,
    runtime_checkable,
)

from repro.core.transitions import CountColumns, NodeActivity
from repro.netlist.circuit import Circuit
from repro.obs import trace as obs
from repro.sim.delays import DelayModel, UnitDelay
from repro.sim.engine import CycleTrace, Simulator
from repro.sim.vectors import WordStream

InputVector = Sequence[int] | Mapping[int, int]


@dataclass
class RunStats:
    """Aggregated per-net activity of one backend run.

    ``counts`` holds the per-net counts in the canonical column form
    every engine emits, so two engines' stats compare equal exactly
    when their counts agree.  ``final_values`` / ``final_ff_state``
    snapshot the settled state after the last counted cycle, so a
    subsequent run (on any backend) can continue the stream exactly
    where this one stopped.
    """

    cycles: int = 0
    counts: CountColumns = field(default_factory=CountColumns.empty)
    final_values: List[int] = field(default_factory=list)
    final_ff_state: Dict[int, int] = field(default_factory=dict)

    @property
    def per_node(self) -> Dict[int, NodeActivity]:
        """The counts as one :class:`NodeActivity` per net, built on each read."""
        return self.counts.records()


def count_traces(
    traces: Iterable[CycleTrace], n_nets: int = 0
) -> Tuple[int, CountColumns]:
    """``(cycles, counts)`` of per-cycle traces.

    Each cycle's per-net toggle count is classified by parity (an odd
    count is one useful transition and the rest useless, an even one
    all useless) into flat per-net arrays, sized for *n_nets* and grown
    on demand.
    """
    arrays = [[0] * n_nets for _ in range(5)]
    tog, ris, useful, useless, active = arrays
    size = n_nets
    cycles = 0
    for trace in traces:
        cycles += 1
        rises = trace.rises
        for net, toggles in trace.toggles.items():
            if net >= size:
                for column in arrays:
                    column += [0] * (net + 1 - size)
                size = net + 1
            tog[net] += toggles
            ris[net] += rises.get(net, 0)
            if toggles & 1:
                useful[net] += 1
                useless[net] += toggles - 1
            else:
                useless[net] += toggles
            active[net] += 1
    return cycles, CountColumns.from_arrays(arrays)


@runtime_checkable
class SimBackend(Protocol):
    """Common protocol every simulation backend satisfies."""

    #: Stable identifier used by CLIs, benchmarks and reports.
    name: str
    #: True when intra-cycle glitches are observable; False for an
    #: engine running its settled zero-delay mode.
    exact_glitches: bool

    def run(
        self,
        vectors: Iterable[InputVector],
        warmup: InputVector | None = None,
        initial_values: Sequence[int] | None = None,
        initial_ff_state: Mapping[int, int] | None = None,
    ) -> RunStats:
        """Simulate *vectors* and return aggregated activity."""
        ...  # pragma: no cover - protocol stub


def _require_inputs(nets: Iterable[int], input_set: frozenset) -> None:
    for n in nets:
        if n not in input_set:
            raise ValueError(
                f"net {n} is not a primary input; mapping vectors may "
                "only drive primary inputs"
            )


def _resolve_vector(
    vec: InputVector,
    inputs: Tuple[int, ...],
    input_set: frozenset,
    current: List[int],
) -> List[int]:
    """Full positional input bits for *vec*, with mapping carry-over.

    Mirrors :meth:`Simulator._normalise_inputs`: mapping keys must name
    primary inputs, and inputs a mapping omits keep their *current*
    value.  Updates *current* in place and returns a copy.
    """
    if isinstance(vec, Mapping):
        _require_inputs(vec, input_set)
        for pos, net in enumerate(inputs):
            if net in vec:
                current[pos] = int(bool(vec[net]))
    else:
        if len(vec) != len(inputs):
            raise ValueError(
                f"expected {len(inputs)} input bits, got {len(vec)}"
            )
        current[:] = [int(bool(v)) for v in vec]
    return list(current)


def split_first(
    vectors: Iterable[InputVector],
) -> Tuple[InputVector | None, Iterable[InputVector]]:
    """``(first vector, the rest)``, or ``(None, the rest)`` when empty.

    A :class:`~repro.sim.vectors.WordStream` splits into a dict and a
    shorter stream, so the rest keeps its batch-resolvable form.
    """
    if isinstance(vectors, WordStream):
        if not len(vectors):
            return None, vectors
        return vectors[0], vectors[1:]
    it = iter(vectors)
    for first in it:
        return first, it
    return None, it


#: ``bytes.translate`` table: 0/1 bytes to the digits ``int(_, 2)`` reads.
_DIGITS = bytes.maketrans(b"\x00\x01", b"01")


def _pack_rows(rows: List[List[int]]) -> List[int]:
    """Per-cycle positional bit rows -> one lane per input (bit k = row k)."""
    return [
        int(bytes(reversed(column)).translate(_DIGITS), 2)
        for column in zip(*rows)
    ]


def _bit_lanes(values: Sequence[int], width: int) -> List[int]:
    """Transpose one word's per-cycle *values* into *width* bit lanes.

    Each value is written MSB first, last cycle first, into one binary
    string; bit *b* of every cycle then sits at a stride of *width*
    characters, so one slice and one ``int(_, 2)`` per bit yield its
    lane with cycle *k* at bit *k*.
    """
    if not width:
        return []
    fmt = f"0{width}b"
    text = "".join([format(v, fmt) for v in reversed(values)])
    return [int(text[width - 1 - b::width], 2) for b in range(width)]


def input_lanes(
    vectors: Iterable[InputVector],
    inputs: Tuple[int, ...],
    input_set: frozenset,
    current: List[int],
    size: int,
) -> Iterator[Tuple[int, List[int]]]:
    """Resolve *vectors* into batches of primary-input bit lanes.

    Yields ``(nb, lanes)`` for consecutive batches of at most *size*
    cycles: ``lanes[pos]`` holds input *pos*'s bit in the batch's cycle
    *k* at bit *k*.  A :class:`~repro.sim.vectors.WordStream` is
    resolved a batch at a time through one per-input ``(word, bit)``
    layout, never as per-cycle dicts; any other iterable goes vector by
    vector through :func:`_resolve_vector`.  Either way an input that
    no vector drives keeps its *current* value, and *current* is left
    at the last cycle's bits.
    """
    if not isinstance(vectors, WordStream):
        rows: List[List[int]] = []
        for vec in vectors:
            rows.append(_resolve_vector(vec, inputs, input_set, current))
            if len(rows) == size:
                yield size, _pack_rows(rows)
                rows = []
        if rows:
            yield len(rows), _pack_rows(rows)
        return
    n = len(vectors)
    if not n:
        return
    source: Dict[int, Tuple[int, int]] = {}
    for w, nets in enumerate(vectors.words):
        for bit, net in enumerate(nets):
            source[net] = (w, bit)
    _require_inputs(source, input_set)
    layout = [source.get(net) for net in inputs]
    for k0 in range(0, n, size):
        k1 = min(k0 + size, n)
        nb = k1 - k0
        held = (1 << nb) - 1
        word_lanes = [
            _bit_lanes(column[k0:k1], len(nets))
            for nets, column in zip(vectors.words, vectors.values)
        ]
        lanes = [
            word_lanes[src[0]][src[1]] if src is not None
            else held * current[pos]
            for pos, src in enumerate(layout)
        ]
        current[:] = [(lane >> (nb - 1)) & 1 for lane in lanes]
        yield nb, lanes


class EventDrivenBackend:
    """Exact transport-delay backend (see :mod:`repro.sim.engine`).

    Per-cycle toggle counts are folded into count columns with the
    paper's parity classification (:func:`count_traces`): an odd
    per-cycle count contributes one useful transition, everything else
    is useless.
    """

    name = "event"
    exact_glitches = True

    def __init__(
        self,
        circuit: Circuit,
        delay_model: DelayModel | None = None,
        monitor: Iterable[int] | None = None,
    ) -> None:
        self.circuit = circuit
        self.delay_model = delay_model or UnitDelay()
        self.monitor = None if monitor is None else list(monitor)

    def run(
        self,
        vectors: Iterable[InputVector],
        warmup: InputVector | None = None,
        initial_values: Sequence[int] | None = None,
        initial_ff_state: Mapping[int, int] | None = None,
    ) -> RunStats:
        sim = Simulator(self.circuit, self.delay_model, monitor=self.monitor)
        if initial_ff_state:
            sim.ff_state.update(initial_ff_state)
        it = iter(vectors)
        if initial_values is not None:
            # Resuming mid-stream from an exact settled state; an
            # explicit warmup on top re-settles from that state (same
            # semantics as the batch engines, see run_batches).
            sim.values[:] = initial_values
            if warmup is not None:
                sim.settle(warmup)
        else:
            if warmup is None:
                try:
                    warmup = next(it)
                except StopIteration:
                    return RunStats(
                        final_values=list(sim.values),
                        final_ff_state=dict(sim.ff_state),
                    )
            sim.settle(warmup)
        rec = obs.active()
        t0 = rec.now() if rec is not None else 0
        cycles, counts = count_traces(map(sim.step, it), len(sim.values))
        stats = RunStats(
            cycles, counts, list(sim.values), dict(sim.ff_state)
        )
        if rec is not None:
            dur = rec.complete(
                "sim.batch", t0, backend="event", cycles=stats.cycles
            )
            rec.metrics.hist("sim.batch_s", dur / 1e9)
            rec.metrics.inc("sim.vectors", stats.cycles)
            rec.metrics.inc(
                "sim.cell_evals", stats.cycles * len(self.circuit.cells)
            )
        return stats


# ---------------------------------------------------------------------------
# The batch driver shared by the lanes and vector engines
# ---------------------------------------------------------------------------

def run_batches(
    engine,
    vectors: Iterable[InputVector],
    warmup: InputVector | None,
    initial_values: Sequence[int] | None,
    initial_ff_state: Mapping[int, int] | None,
) -> RunStats:
    """Run a batch engine over *vectors*: everything but the kernel.

    Owns what the lanes and vector engines do alike:

    * the warm-up and resume rules of :class:`EventDrivenBackend` —
      the first vector (or *warmup*) settles the network uncounted,
      unless an exact ``initial_values`` snapshot resumes a stream
      mid-way, in which case an explicit *warmup* re-settles from it;
    * input resolution into ``engine.batch_cycles``-cycle batches of
      input bit lanes, with mapping carry-over (:func:`input_lanes`);
    * per batch, the ``sim.batch`` span, the ``sim.batch_s`` histogram
      and the ``sim.vectors`` / ``sim.cell_evals`` counters;
    * the final :class:`RunStats` state.

    The engine supplies ``name``, ``batch_cycles``, its compiled
    circuit ``_cc`` and ``_open(values, ff_state)``, which returns a
    ``(step, finish)`` pair for one run: ``step(nb, lanes)`` simulates one *nb*-cycle
    batch of input lanes (``lanes[pos]`` bit *k* = input *pos* in cycle
    *k*) from the settled state the previous batch left (advancing
    *ff_state* in place), and ``finish()`` returns ``(counts,
    final_values)``, the counts as canonical
    :class:`~repro.core.transitions.CountColumns`.  An engine may also
    supply ``_settle_vector(bits, ff_state)``, the settled net values
    for one positional input vector with the flipflop outputs taken
    from *ff_state*, to settle the warm-up in its own kernels; the
    default is :meth:`~repro.netlist.compiled.CompiledCircuit.evaluate_flat`.
    """
    cc = engine._cc
    inputs = cc.inputs
    input_set = cc.input_set
    ff_state: Dict[int, int] = dict.fromkeys(cc.ff_cells, 0)
    if initial_ff_state:
        ff_state.update(initial_ff_state)
    if initial_values is not None:
        values = list(initial_values)
    else:
        values = [0] * cc.n_nets
    cur_inputs = [values[net] for net in inputs]

    if initial_values is None and warmup is None:
        warmup, vectors = split_first(vectors)
        if warmup is None:
            return RunStats(final_values=values, final_ff_state=ff_state)
    if warmup is not None:
        full = _resolve_vector(warmup, inputs, input_set, cur_inputs)
        settle = getattr(engine, "_settle_vector", None)
        if settle is None:
            values, _ = cc.evaluate_flat(full, ff_state)
        else:
            values = settle(full, ff_state)

    step, finish = engine._open(values, ff_state)
    n_cells = len(cc.cell_kinds)
    cycles = 0
    rec = obs.active()
    for nb, lanes in input_lanes(
        vectors, inputs, input_set, cur_inputs, engine.batch_cycles
    ):
        bt0 = rec.now() if rec is not None else 0
        step(nb, lanes)
        cycles += nb
        if rec is not None:
            dur = rec.complete(
                "sim.batch", bt0, backend=engine.name, cycles=nb
            )
            rec.metrics.hist("sim.batch_s", dur / 1e9)
            rec.metrics.inc("sim.vectors", nb)
            rec.metrics.inc("sim.cell_evals", nb * n_cells)

    counts, final_values = finish()
    return RunStats(
        cycles=cycles,
        counts=counts,
        final_values=final_values,
        final_ff_state=ff_state,
    )


class BackendUnavailableError(ValueError):
    """A registered backend cannot run in this environment.

    Raised when a backend's optional dependency is missing — e.g. the
    vector backend without the ``[perf]`` extra's numpy.  Subclasses
    :class:`ValueError` so existing "bad backend name" handling keeps
    working.
    """


class BackendDegradedWarning(RuntimeWarning):
    """A run fell back from one backend tier to a slower one mid-run.

    Emitted by the session API's failover policy when the selected
    engine dies with ``MemoryError`` / an import failure /
    :class:`BackendUnavailableError` and the run is re-dispatched on
    the next tier of the fallback chain.  The result is still
    bit-identical (all tiers in a chain share a result class); only
    throughput degrades.  Structured so monitoring can aggregate:
    :attr:`from_backend`, :attr:`to_backend`, :attr:`reason`.
    """

    def __init__(self, from_backend: str, to_backend: str, reason: str):
        self.from_backend = from_backend
        self.to_backend = to_backend
        self.reason = reason
        super().__init__(
            f"backend {from_backend!r} failed ({reason}); "
            f"degrading to {to_backend!r} (results stay bit-identical, "
            "throughput does not)"
        )


from repro.sim.lanes import LanesBackend  # noqa: E402  (needs RunStats at run time)
from repro.sim.vector import (  # noqa: E402
    VectorBackend,
    numpy_available,
    numpy_unavailable_reason,
)

#: Registered backends, by name.  Registration is unconditional — use
#: :func:`backend_unavailable_reason` / :func:`available_backends` to
#: learn whether one can actually run here.
BACKENDS = {
    EventDrivenBackend.name: EventDrivenBackend,
    LanesBackend.name: LanesBackend,
    VectorBackend.name: VectorBackend,
}

#: Pseudo-backend name resolved per run by :func:`select_backend`.
AUTO_BACKEND = "auto"

#: Runtime degradation order for glitch-exact sessions: every tier is
#: bit-identical to the event-driven reference, each successive tier
#: trades throughput for fewer runtime dependencies / less memory
#: (the event engine streams one cycle at a time and allocates almost
#: nothing).
FALLBACK_CHAIN = ("vector", "lanes", "event")
#: Degradation order for settled (zero-delay) sessions.
ZERO_DELAY_FALLBACK_CHAIN = ("vector", "lanes")


def fallback_candidates(
    current: str, zero_delay: bool = False
) -> List[str]:
    """Backends to try, in order, after *current* fails at runtime.

    Only tiers *behind* the failing one in the chain are candidates
    (they need strictly less memory / fewer dependencies), and only
    those available in this environment.  An empty list means the
    failure is terminal.
    """
    chain = ZERO_DELAY_FALLBACK_CHAIN if zero_delay else FALLBACK_CHAIN
    if current not in chain:
        return []
    return [
        name
        for name in chain[chain.index(current) + 1:]
        if backend_unavailable_reason(name) is None
    ]


def backend_unavailable_reason(name: str) -> str | None:
    """Why backend *name* can't run here, or ``None`` when it can.

    Raises :class:`ValueError` for unknown names (like
    :func:`canonical_backend`).
    """
    if canonical_backend(name) == VectorBackend.name:
        reason = numpy_unavailable_reason()
        if reason is not None:
            return f"the 'vector' backend is unavailable: {reason}"
    return None


def available_backends() -> List[str]:
    """Names of the backends that can run here, sorted."""
    return sorted(
        name
        for name in BACKENDS
        if backend_unavailable_reason(name) is None
    )


def select_backend() -> str:
    """Resolve the ``"auto"`` backend policy to a concrete engine.

    The vectorized numpy backend when the ``[perf]`` extra is
    installed — it is bit-identical to the event-driven engine in both
    its glitch-exact and zero-delay modes and by far the fastest —
    else the pure-Python lanes backend, whose mode the delay model
    selects just the same.  Per-cycle traces and recorded events (VCD
    dumps) name the event-driven engine themselves, the only one that
    produces them.
    """
    if numpy_available():
        return VectorBackend.name
    return LanesBackend.name


def canonical_backend(name: str) -> str:
    """*name*, checked to be a registered engine (:data:`BACKENDS`)."""
    if name not in BACKENDS:
        raise ValueError(
            f"unknown simulation backend {name!r}; "
            f"choose from {sorted(BACKENDS)}"
        )
    return name


def get_backend(
    name: str,
    circuit: Circuit,
    delay_model: DelayModel | None = None,
    monitor: Iterable[int] | None = None,
) -> SimBackend:
    """Construct the backend called *name* for *circuit*.

    Raises :class:`BackendUnavailableError` when the backend exists
    but can't run in this environment (missing optional dependency).
    """
    reason = backend_unavailable_reason(name)
    if reason is not None:
        raise BackendUnavailableError(reason)
    return BACKENDS[name](circuit, delay_model, monitor)


def preload_backends(names: Iterable[str]) -> None:
    """Import, in this process, what the engines behind *names* import.

    A supervisor calls this before its pool forks: resolving ``auto``
    or ``vector`` here imports numpy once, and every forked worker
    inherits it instead of importing it again.  Other names, unknown
    ones included, are left to the workers.
    """
    if any(name in (AUTO_BACKEND, VectorBackend.name) for name in names):
        numpy_available()
