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

The two batch engines are **dual-mode**: a timed delay model selects
glitch-exact analysis whose aggregated :class:`RunStats` are
bit-identical to the event-driven engine's; an explicit
:class:`~repro.sim.delays.ZeroDelay` selects settled zero-delay
evaluation, whose per-net toggle counts equal the event-driven
engine's *useful* counts.  Both run through one batch driver,
:func:`run_batches`, and differ only in their per-batch kernel.  The
retired engine names survive as aliases: ``waveform``, ``wave`` and
``codegen`` name ``lanes``; ``bitparallel``, ``bit-parallel`` and
``batch`` name its zero-delay mode (:data:`ZERO_DELAY_ALIASES`).

All backends accept an explicit starting point (``initial_values`` +
``initial_ff_state``), which is what makes exact vector-stream sharding
possible: a shard's boundary state is computed cheaply with the
zero-delay engine (:func:`zero_delay_backend`) and handed to a
glitch-exact shard worker, whose stats are then bit-identical to an
unsharded run (settled values provably equal zero-delay evaluation).

:func:`select_backend` implements the ``"auto"`` policy used by the
session API and the CLI: event-driven whenever traces/VCD recording
are requested; otherwise the vector backend when numpy is available,
the lanes backend without it.  Asking that question is what imports
numpy: importing this module does not.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Protocol, Sequence, Tuple, runtime_checkable

from repro.core.transitions import NodeActivity
from repro.netlist.circuit import Circuit
from repro.obs import trace as obs
from repro.sim.delays import DelayModel, UnitDelay, ZeroDelay
from repro.sim.engine import Simulator

InputVector = Sequence[int] | Mapping[int, int]


@dataclass
class RunStats:
    """Aggregated per-net activity of one backend run.

    ``final_values`` / ``final_ff_state`` snapshot the settled state
    after the last counted cycle, so a subsequent run (on any backend)
    can continue the stream exactly where this one stopped.
    """

    cycles: int = 0
    per_node: Dict[int, NodeActivity] = field(default_factory=dict)
    final_values: List[int] = field(default_factory=list)
    final_ff_state: Dict[int, int] = field(default_factory=dict)


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
        for n in vec:
            if n not in input_set:
                raise ValueError(
                    f"net {n} is not a primary input; mapping vectors may "
                    "only drive primary inputs"
                )
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


class EventDrivenBackend:
    """Exact transport-delay backend (see :mod:`repro.sim.engine`).

    Per-cycle toggle counts are folded into :class:`NodeActivity`
    records with the paper's parity classification: an odd per-cycle
    count contributes one useful transition, everything else is
    useless.
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
        stats = RunStats()
        per_node = stats.per_node
        rec = obs.active()
        t0 = rec.now() if rec is not None else 0
        for vec in it:
            trace = sim.step(vec)
            stats.cycles += 1
            rises = trace.rises
            for net, count in trace.toggles.items():
                act = per_node.get(net)
                if act is None:
                    act = per_node[net] = NodeActivity()
                act.add_cycle(count, rises.get(net, 0))
        stats.final_values = list(sim.values)
        stats.final_ff_state = dict(sim.ff_state)
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
    * input resolution, with mapping carry-over (:func:`_resolve_vector`);
    * cutting the stream into ``engine.batch_cycles``-cycle batches;
    * per batch, the ``sim.batch`` span, the ``sim.batch_s`` histogram
      and the ``sim.vectors`` / ``sim.cell_evals`` counters;
    * the final :class:`RunStats` state.

    The engine supplies ``name``, ``batch_cycles``, its compiled
    circuit ``_cc`` and ``_open(values, ff_state)``, which returns a
    ``(step, finish)`` pair for one run: ``step(batch)`` simulates one
    batch of resolved input vectors from the settled state the previous
    batch left (advancing *ff_state* in place), and ``finish()``
    returns ``(per_node, final_values)``.
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

    it = iter(vectors)
    if initial_values is None:
        if warmup is None:
            try:
                warmup = next(it)
            except StopIteration:
                return RunStats(final_values=values, final_ff_state=ff_state)
        full = _resolve_vector(warmup, inputs, input_set, cur_inputs)
        values, _ = cc.evaluate_flat(full, ff_state)
    elif warmup is not None:
        full = _resolve_vector(warmup, inputs, input_set, cur_inputs)
        values, _ = cc.evaluate_flat(full, ff_state)

    step, finish = engine._open(values, ff_state)
    B = engine.batch_cycles
    n_cells = len(cc.cell_kinds)
    cycles = 0
    rec = obs.active()
    batch: List[List[int]] = []
    exhausted = False
    while not exhausted:
        batch.clear()
        for vec in it:
            batch.append(_resolve_vector(vec, inputs, input_set, cur_inputs))
            if len(batch) == B:
                break
        else:
            exhausted = True
        if not batch:
            break
        bt0 = rec.now() if rec is not None else 0
        nb = len(batch)
        step(batch)
        cycles += nb
        if rec is not None:
            dur = rec.complete(
                "sim.batch", bt0, backend=engine.name, cycles=nb
            )
            rec.metrics.hist("sim.batch_s", dur / 1e9)
            rec.metrics.inc("sim.vectors", nb)
            rec.metrics.inc("sim.cell_evals", nb * n_cells)

    per_node, final_values = finish()
    return RunStats(
        cycles=cycles,
        per_node=per_node,
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

#: Registered backends, by canonical name (aliases resolved in
#: :func:`get_backend`).  Registration is unconditional — use
#: :func:`backend_unavailable_reason` / :func:`available_backends` to
#: learn whether one can actually run here.
BACKENDS = {
    EventDrivenBackend.name: EventDrivenBackend,
    LanesBackend.name: LanesBackend,
    VectorBackend.name: VectorBackend,
}

_ALIASES = {
    "event": "event",
    "event-driven": "event",
    "lanes": "lanes",
    "waveform": "lanes",
    "wave": "lanes",
    "codegen": "lanes",
    "bitparallel": "lanes",
    "bit-parallel": "lanes",
    "batch": "lanes",
    "vector": "vector",
    "numpy": "vector",
    "np": "vector",
}

#: Names that pin the lanes engine to its zero-delay mode (the retired
#: bit-parallel engine's names): a timed delay model is rejected
#: instead of silently selecting glitch mode.
ZERO_DELAY_ALIASES = frozenset({"bitparallel", "bit-parallel", "batch"})

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

    Resolves aliases; raises :class:`ValueError` for unknown names
    (like :func:`canonical_backend`).
    """
    canonical = canonical_backend(name)
    if canonical == VectorBackend.name:
        reason = numpy_unavailable_reason()
        if reason is not None:
            return f"the 'vector' backend is unavailable: {reason}"
    return None


def available_backends() -> List[str]:
    """Canonical names of the backends that can run here, sorted."""
    return sorted(
        name
        for name in BACKENDS
        if backend_unavailable_reason(name) is None
    )


def select_backend(
    delay_model: DelayModel | None = None,
    record_events: bool = False,
    want_traces: bool = False,
) -> str:
    """Resolve the ``"auto"`` backend policy to a concrete engine.

    * per-cycle traces or recorded events (VCD dumps) need the
      event-driven engine — nothing else produces them;
    * everything else goes to the vectorized numpy backend when the
      ``[perf]`` extra is installed — it is bit-identical to the
      event-driven engine in both its glitch-exact and zero-delay
      modes and by far the fastest;
    * without numpy it goes to the pure-Python lanes backend, whose
      mode the delay model selects just the same.
    """
    if record_events or want_traces:
        return EventDrivenBackend.name
    if numpy_available():
        return VectorBackend.name
    return LanesBackend.name


def canonical_backend(name: str) -> str:
    """Resolve a backend name/alias to its canonical registry key."""
    canonical = _ALIASES.get(name)
    if canonical is None:
        raise ValueError(
            f"unknown simulation backend {name!r}; "
            f"choose from {sorted(set(_ALIASES))}"
        )
    return canonical


def pins_zero_delay(name: str, delay_model: DelayModel | None) -> bool:
    """Whether backend *name* pins the zero-delay mode.

    True for the :data:`ZERO_DELAY_ALIASES`; raises :class:`ValueError`
    when such a name is paired with a timed *delay_model*, which the
    settled mode would silently ignore.
    """
    if name not in ZERO_DELAY_ALIASES:
        return False
    if delay_model is not None and not isinstance(delay_model, ZeroDelay):
        raise ValueError(
            f"the {name!r} backend is inherently zero-delay and would "
            f"silently ignore {delay_model.describe()!r}; pass "
            "delay_model=None (or ZeroDelay) or use a glitch-exact "
            "backend"
        )
    return True


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
    canonical = canonical_backend(name)
    reason = backend_unavailable_reason(canonical)
    if reason is not None:
        raise BackendUnavailableError(reason)
    if pins_zero_delay(name, delay_model):
        delay_model = ZeroDelay()
    return BACKENDS[canonical](circuit, delay_model, monitor)


def preload_backends(names: Iterable[str]) -> None:
    """Import, in this process, what the engines behind *names* import.

    A supervisor calls this before its pool forks: resolving ``auto``
    or a vector name here imports numpy once, and every forked worker
    inherits it instead of importing it again.  Other names, unknown
    ones included, are left to the workers.
    """
    if any(
        name == AUTO_BACKEND or _ALIASES.get(name) == VectorBackend.name
        for name in names
    ):
        numpy_available()


def zero_delay_backend(
    circuit: Circuit, monitor: Iterable[int] | None = None
) -> SimBackend:
    """The fastest available settled-value engine for *circuit*.

    The zero-delay mode of the vector backend when numpy is present,
    else of the lanes backend — both produce identical results (the
    settled-equivalence invariant), so callers that only fast-forward
    state or need useful-only counts can take whichever is faster.
    """
    if numpy_available():
        return VectorBackend(circuit, ZeroDelay(), monitor)
    return LanesBackend(circuit, ZeroDelay(), monitor)
