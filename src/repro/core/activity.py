"""Circuit-level transition-activity accounting: the session API.

:class:`ActivityRun` is the single entry point every consumer (the
seven experiment drivers, the CLI, the benchmarks) routes through.  A
session binds one circuit to one delay model and one simulation
backend (:mod:`repro.sim.backends`) and offers:

* :meth:`ActivityRun.run` — simulate a vector stream and classify
  every transition, returning an :class:`ActivityResult` with per-node
  and aggregate useful/useless/glitch statistics — the quantities
  behind the paper's Tables 1 and 2, Figure 5, and the Section 4.2
  direction detector numbers;
* :meth:`ActivityRun.run_sharded` — the same result, computed by
  splitting the vector stream into contiguous shards (optionally
  across ``multiprocessing`` workers).  Shard boundary states are
  fast-forwarded with the fastest available zero-delay engine — exact,
  because settled event-driven values provably equal zero-delay
  evaluation — and shard results are combined with
  :meth:`ActivityResult.merge`, so the merged result is bit-identical
  to an unsharded run;
* :meth:`ActivityRun.step_traces` — raw per-cycle traces for callers
  that need single-cycle detail (worst-case stimuli, VCD dumps);
* :meth:`ActivityRun.ff_activity` — mean flipflop D-input toggle
  probability, measured with the zero-delay engine (settled values
  only, which is exactly what D pins sample).

:func:`analyze` remains as the one-call convenience wrapper.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Sequence, Tuple

from repro.core.transitions import NodeActivity
from repro.netlist.circuit import Circuit
from repro.obs import trace as obs
from repro.sim.backends import (
    AUTO_BACKEND,
    BACKENDS,
    BackendDegradedWarning,
    BackendUnavailableError,
    RunStats,
    _resolve_vector,
    backend_unavailable_reason,
    canonical_backend,
    fallback_candidates,
    get_backend,
    pins_zero_delay,
    select_backend,
    zero_delay_backend,
)
from repro.sim.delays import DelayModel, UnitDelay, ZeroDelay
from repro.sim.engine import CycleTrace, Simulator


def summarize_counts(
    cycles: int, toggles: int, rises: int, useful: int, useless: int
) -> Dict[str, float]:
    """The headline summary dict from aggregate transition counts.

    One source of truth for every surface that reports these numbers
    (:meth:`ActivityResult.summary`, the service store's payload
    summaries, the batch scheduler's tables).  ``glitches`` is exactly
    ``useless // 2``: per-cycle classification always produces an even
    useless count per node, so the per-node and aggregate definitions
    coincide.
    """
    ratio = (
        useless / useful if useful
        else (float("inf") if useless else 0.0)
    )
    return {
        "cycles": cycles,
        "total": toggles,
        "useful": useful,
        "useless": useless,
        "glitches": useless // 2,
        "rises": rises,
        "L/F": round(ratio, 4),
        "reduction_bound": round(1.0 + ratio, 4),
    }


@dataclass
class ActivityResult:
    """Aggregated transition activity for one simulation run.

    The paper's headline metrics map as follows:

    * *total* (Table 1 "total")       -> :attr:`total_transitions`
    * *useful F* (Table 1 "useful F") -> :attr:`useful`
    * *useless L* (Table 1 "useless L") -> :attr:`useless`
    * *L/F*                           -> :meth:`useless_useful_ratio`
    * glitch-free reduction bound 1 + L/F (Section 4.2)
                                      -> :meth:`reduction_bound`
    """

    circuit_name: str
    delay_description: str
    cycles: int = 0
    per_node: Dict[int, NodeActivity] = field(default_factory=dict)
    node_names: Dict[int, str] = field(default_factory=dict)

    # -- aggregates ----------------------------------------------------
    @property
    def total_transitions(self) -> int:
        return sum(a.toggles for a in self.per_node.values())

    @property
    def useful(self) -> int:
        return sum(a.useful for a in self.per_node.values())

    @property
    def useless(self) -> int:
        return sum(a.useless for a in self.per_node.values())

    @property
    def rises(self) -> int:
        return sum(a.rises for a in self.per_node.values())

    @property
    def glitches(self) -> int:
        return sum(a.glitches for a in self.per_node.values())

    def useless_useful_ratio(self) -> float:
        """The paper's L/F metric (``inf`` when no useful transitions)."""
        if self.useful == 0:
            return float("inf") if self.useless else 0.0
        return self.useless / self.useful

    def reduction_bound(self) -> float:
        """Best-case activity reduction factor from perfect balancing.

        Section 4.2: activity can shrink by ``1 + L/F`` if all delay
        paths are balanced (all useless transitions eliminated).
        """
        return 1.0 + self.useless_useful_ratio()

    # -- per-node / per-word views ---------------------------------------
    def node(self, net: int) -> NodeActivity:
        """Activity of one net (zero record if it never toggled)."""
        return self.per_node.get(net, NodeActivity())

    def restrict(self, nets: Iterable[int]) -> "ActivityResult":
        """A new result containing only *nets* (e.g. one output word)."""
        keep = set(nets)
        out = ActivityResult(
            circuit_name=self.circuit_name,
            delay_description=self.delay_description,
            cycles=self.cycles,
        )
        for n, act in self.per_node.items():
            if n in keep:
                out.per_node[n] = act
                if n in self.node_names:
                    out.node_names[n] = self.node_names[n]
        return out

    def word_profile(
        self, word: Sequence[int]
    ) -> List[NodeActivity]:
        """Per-bit activity along a word, LSB first (paper Figure 5)."""
        return [self.node(n) for n in word]

    def merge(self, other: "ActivityResult") -> None:
        """Accumulate a second (sharded) run into this result.

        Both results must come from the same circuit *and* the same
        delay regime — merging, say, unit-delay counts into
        ``dsum=2*dcarry`` counts would silently mix incomparable
        classifications.
        """
        if other.circuit_name != self.circuit_name:
            raise ValueError("cannot merge results from different circuits")
        if other.delay_description != self.delay_description:
            raise ValueError(
                "cannot merge results from different delay models: "
                f"{self.delay_description!r} vs {other.delay_description!r}"
            )
        self.cycles += other.cycles
        for n, act in other.per_node.items():
            mine = self.per_node.get(n)
            if mine is None:
                self.per_node[n] = NodeActivity(
                    act.toggles, act.rises, act.useful, act.useless,
                    act.cycles_active,
                )
            else:
                mine.merge(act)
        self.node_names.update(other.node_names)

    def summary(self) -> Dict[str, float]:
        """Headline numbers in one dict (used by reports and benches)."""
        return summarize_counts(
            self.cycles, self.total_transitions, self.rises,
            self.useful, self.useless,
        )


def accumulate_traces(
    result: ActivityResult, traces: Iterable[CycleTrace]
) -> ActivityResult:
    """Fold raw cycle traces into *result* (in place; returned for chaining).

    The hot aggregation path runs on flat per-net arrays (grown on
    demand) with the parity classification inlined, and folds into
    :class:`NodeActivity` records once at the end — one dict lookup
    and method call per *net*, not per (net, cycle).
    """
    size = 0
    tog: List[int] = []
    ris: List[int] = []
    useful: List[int] = []
    useless: List[int] = []
    active: List[int] = []
    n_cycles = 0
    for trace in traces:
        n_cycles += 1
        rises = trace.rises
        for net, toggles in trace.toggles.items():
            if net >= size:
                grow = net + 1 - size
                tog += [0] * grow
                ris += [0] * grow
                useful += [0] * grow
                useless += [0] * grow
                active += [0] * grow
                size = net + 1
            tog[net] += toggles
            ris[net] += rises.get(net, 0)
            if toggles & 1:
                useful[net] += 1
                useless[net] += toggles - 1
            else:
                useless[net] += toggles
            active[net] += 1
    result.cycles += n_cycles
    per_node = result.per_node
    for net in range(size):
        if not tog[net]:
            continue
        act = per_node.get(net)
        if act is None:
            per_node[net] = NodeActivity(
                tog[net], ris[net], useful[net], useless[net], active[net]
            )
        else:
            act.merge(
                NodeActivity(
                    tog[net], ris[net], useful[net], useless[net],
                    active[net],
                )
            )
    return result


def _stats_to_result(
    stats: RunStats,
    circuit_name: str,
    delay_description: str,
    node_names: Dict[int, str] | None = None,
) -> ActivityResult:
    """Wrap backend :class:`RunStats` into an :class:`ActivityResult`."""
    return ActivityResult(
        circuit_name=circuit_name,
        delay_description=delay_description,
        cycles=stats.cycles,
        per_node=stats.per_node,
        node_names=node_names or {},
    )


def _stats_with_failover(
    circuit: Circuit,
    delay_model: DelayModel,
    backend_name: str,
    monitor,
    vectors,
    warmup,
    initial_values,
    initial_ff_state,
    failover: bool,
) -> Tuple[str, RunStats]:
    """Run *vectors* on *backend_name*, degrading down the chain.

    The runtime half of the ``"auto"`` policy: when the dispatched
    tier dies with ``MemoryError`` (a 100k-cell batch that doesn't
    fit), an import failure, or :class:`BackendUnavailableError`
    (numpy present at selection time, broken in the worker), the run
    is re-dispatched from scratch on the next tier of
    :func:`~repro.sim.backends.fallback_candidates` and a structured
    :class:`~repro.sim.backends.BackendDegradedWarning` is emitted.
    Backends are pure over their inputs, so the retried stats are
    bit-identical — every tier of a chain shares one result class.

    Returns ``(backend_that_ran, stats)``.  With ``failover=False``
    the first failure propagates unchanged.
    """
    # Lazy: keeps the sim layer import-independent of the service
    # layer (faults deliberately imports nothing back).
    from repro.service import faults

    name = backend_name
    if failover:
        # The stream must be replayable for a mid-run re-dispatch.
        vectors = vectors if isinstance(vectors, list) else list(vectors)
    zero = isinstance(delay_model, ZeroDelay)
    with obs.span(
        "sim.run", circuit=circuit.name, backend=backend_name
    ) as sp:
        while True:
            try:
                faults.raise_if(
                    "backend.memoryerror", key=name, exc_type=MemoryError
                )
                backend = get_backend(name, circuit, delay_model, monitor)
                sp.set(backend=name)
                return name, backend.run(
                    vectors,
                    warmup=warmup,
                    initial_values=initial_values,
                    initial_ff_state=initial_ff_state,
                )
            except (
                MemoryError, ImportError, BackendUnavailableError
            ) as exc:
                candidates = fallback_candidates(name, zero_delay=zero)
                if not failover or not candidates:
                    raise
                obs.inc("backend.degraded")
                obs.warn_event(
                    BackendDegradedWarning(
                        name, candidates[0],
                        f"{type(exc).__name__}: {exc}",
                    ),
                    from_backend=name,
                    to_backend=candidates[0],
                )
                name = candidates[0]


def _run_shard(job) -> ActivityResult:
    """Run one backend shard (module-level for multiprocessing)."""
    (
        circuit, delay_model, backend_name, monitor, vectors,
        warmup, initial_values, initial_ff_state, delay_description,
        failover,
    ) = job
    _, stats = _stats_with_failover(
        circuit, delay_model, backend_name, monitor, vectors,
        warmup, initial_values, initial_ff_state, failover,
    )
    return _stats_to_result(stats, circuit.name, delay_description)


class ActivityRun:
    """A reusable activity-analysis session for one circuit.

    Parameters
    ----------
    circuit:
        The netlist to analyse.
    delay_model:
        Intra-cycle delay regime (default
        :class:`~repro.sim.delays.UnitDelay`).  An explicit
        :class:`~repro.sim.delays.ZeroDelay` runs a settled zero-delay
        session (useful activity only) on the batch engines, and is
        rejected on the event-driven backend: there no glitch could be
        observed, so the classification would be vacuously "all
        useful" and silently wrong.
    backend:
        ``"auto"`` (the default) — resolve per
        :func:`repro.sim.backends.select_backend`: the numpy
        ``"vector"`` engine when the ``[perf]`` extra is installed,
        the pure-Python ``"lanes"`` engine otherwise; ``"event"``
        (the exact event-driven reference); ``"lanes"`` or
        ``"vector"`` explicitly.  Both batch engines are dual-mode: a
        timed delay model selects glitch-exact analysis, bit-identical
        to the event-driven engine, an explicit ZeroDelay selects
        settled accounting.  The retired names ``"waveform"``,
        ``"wave"`` and ``"codegen"`` alias ``"lanes"``;
        ``"bitparallel"``, ``"bit-parallel"`` and ``"batch"`` alias
        its zero-delay mode and reject a timed delay model.
        Per-cycle traces (:meth:`step_traces`) always use the
        event-driven engine — the only one that produces them.
    monitor:
        Optional net indices to restrict accounting to; defaults to all
        cell-driven nets.
    failover:
        Whether a backend that dies *mid-run* with ``MemoryError`` /
        an import failure re-dispatches on the next tier of the
        fallback chain (``vector → lanes → event``; settled
        sessions ``vector → lanes``) instead
        of aborting.  Results stay bit-identical — tiers in one chain
        share a result class — and each degradation emits a
        :class:`~repro.sim.backends.BackendDegradedWarning`.  Defaults
        to ``True`` for ``backend="auto"`` (auto is a *policy*, not a
        static pick) and ``False`` for an explicitly named backend.
    """

    def __init__(
        self,
        circuit: Circuit,
        delay_model: DelayModel | None = None,
        backend: str = AUTO_BACKEND,
        monitor: Iterable[int] | None = None,
        failover: bool | None = None,
    ) -> None:
        self.circuit = circuit
        if backend == AUTO_BACKEND:
            backend = select_backend(delay_model)
            if failover is None:
                failover = True
        self.failover = bool(failover)
        #: Degradations this session performed (mirrors the warnings).
        self.degraded: List[str] = []
        self.backend_name = canonical_backend(backend)
        reason = backend_unavailable_reason(self.backend_name)
        if reason is not None:
            raise BackendUnavailableError(reason)
        self.monitor = None if monitor is None else list(monitor)
        dual = getattr(BACKENDS[self.backend_name], "dual_mode", False)
        if pins_zero_delay(backend, delay_model) or (
            dual and isinstance(delay_model, ZeroDelay)
        ):
            # Zero-delay session: a name that pins the settled mode, or
            # a dual-mode backend explicitly asked for it.
            self.delay_model = None
            self.delay_description = f"zero delay ({self.backend_name})"
        else:
            delay_model = delay_model or UnitDelay()
            if isinstance(delay_model, ZeroDelay):
                raise ValueError(
                    "activity analysis requires a delay model with >= 1 "
                    "delta per cell; ZeroDelay hides all glitches"
                )
            self.delay_model = delay_model
            self.delay_description = delay_model.describe()

    @property
    def exact_glitches(self) -> bool:
        """Whether this session classifies glitches (timed delay model).

        Per-*session*, not per-backend-class: a dual-mode backend
        constructed with an explicit ZeroDelay runs a settled
        zero-delay session even though its class can observe glitches.
        """
        return self.delay_model is not None

    # ------------------------------------------------------------------
    def _effective_delay_model(self) -> DelayModel:
        """The delay model to hand the backend constructor.

        Zero-delay sessions store ``delay_model=None``, but dual-mode
        backends interpret a ``None`` constructor argument as "default
        timed model" — so the settled mode must be requested with an
        explicit ZeroDelay instance.
        """
        return (
            self.delay_model if self.delay_model is not None else ZeroDelay()
        )

    def _make_backend(self, monitor: Iterable[int] | None = None):
        return get_backend(
            self.backend_name,
            self.circuit,
            self._effective_delay_model(),
            self.monitor if monitor is None else monitor,
        )

    def _result_shell(self) -> ActivityResult:
        return ActivityResult(
            circuit_name=self.circuit.name,
            delay_description=self.delay_description,
            node_names={n.index: n.name for n in self.circuit.nets},
        )

    # ------------------------------------------------------------------
    def run(
        self,
        vectors: Iterable[Sequence[int] | Mapping[int, int]],
        warmup: Sequence[int] | Mapping[int, int] | None = None,
    ) -> ActivityResult:
        """Simulate *vectors* and classify every transition.

        The first vector is consumed as warm-up when *warmup* is
        ``None``, so every counted cycle has a well-defined previous
        computation.

        With :attr:`failover` enabled (the ``auto`` default), a
        mid-run ``MemoryError``/import failure re-dispatches on the
        next fallback tier; the session then *stays* on the degraded
        tier (:attr:`backend_name` is updated) so subsequent runs
        don't re-trip the same failure.
        """
        ran_on, stats = _stats_with_failover(
            self.circuit, self._effective_delay_model(),
            self.backend_name, self.monitor, vectors, warmup,
            None, None, self.failover,
        )
        if ran_on != self.backend_name:
            self.degraded.append(f"{self.backend_name}->{ran_on}")
            self.backend_name = ran_on
        return _stats_to_result(
            stats,
            self.circuit.name,
            self.delay_description,
            node_names={n.index: n.name for n in self.circuit.nets},
        )

    def run_sharded(
        self,
        vectors: Iterable[Sequence[int] | Mapping[int, int]],
        shards: int,
        warmup: Sequence[int] | Mapping[int, int] | None = None,
        processes: int | None = None,
    ) -> ActivityResult:
        """Shard the vector stream and merge per-shard results.

        The stream is materialised, split into *shards* contiguous
        slices, and each slice is simulated independently from its
        exact boundary state (settled net values + flipflop state,
        fast-forwarded with the fastest zero-delay engine).  The
        merged result is bit-identical to :meth:`run` on the same
        stream.  With *processes* > 1 the shards run under the
        supervised worker pool (:func:`repro.service.pool.run_supervised`
        — crashed/hung shard workers are respawned and the shard is
        retried); otherwise they run sequentially in-process (still
        exercising the merge path).
        """
        if shards < 1:
            raise ValueError("shards must be >= 1")
        cc_inputs = tuple(self.circuit.inputs)
        input_set = frozenset(cc_inputs)
        cur = [0] * len(cc_inputs)
        resolved = []
        it = iter(vectors)
        if warmup is None:
            first = next(it, None)
            if first is None:
                return self._result_shell()
            warmup = first
        warmup = _resolve_vector(warmup, cc_inputs, input_set, cur)
        for vec in it:
            resolved.append(_resolve_vector(vec, cc_inputs, input_set, cur))

        n = len(resolved)
        shards = max(1, min(shards, n)) if n else 1
        base, extra = divmod(n, shards)
        slices: List[List[List[int]]] = []
        start = 0
        for s in range(shards):
            size = base + (1 if s < extra else 0)
            slices.append(resolved[start:start + size])
            start += size

        # Fast-forward exact boundary states with the zero-delay engine
        # (settled event-driven values equal zero-delay evaluation).
        ff = zero_delay_backend(self.circuit, monitor=())
        effective_delay = self._effective_delay_model()
        jobs = []
        values: List[int] | None = None
        state: Dict[int, int] | None = None
        for s, seg in enumerate(slices):
            jobs.append((
                self.circuit, effective_delay, self.backend_name,
                self.monitor, seg,
                warmup if s == 0 else None,
                values, dict(state) if state is not None else None,
                self.delay_description, self.failover,
            ))
            if s < shards - 1:
                stats = ff.run(
                    seg,
                    warmup=warmup if s == 0 else None,
                    initial_values=values,
                    initial_ff_state=state,
                )
                values = stats.final_values
                state = stats.final_ff_state

        if processes and processes > 1 and shards > 1:
            # Lazy: the service layer imports core, not vice versa.
            from repro.service.pool import run_supervised

            pool_result = run_supervised(
                _run_shard, jobs,
                processes=min(processes, shards),
                keys=[f"shard-{s}/{shards}" for s in range(shards)],
                labels=[
                    f"{self.circuit.name} shard {s}" for s in range(shards)
                ],
            )
            if pool_result.interrupted:
                raise KeyboardInterrupt
            if pool_result.failures:
                first = pool_result.failures[0]
                raise RuntimeError(
                    f"{len(pool_result.failures)} shard(s) failed after "
                    f"retries; first: {first.label}: {first.error}"
                )
            shard_results = list(pool_result.payloads)
        else:
            shard_results = [_run_shard(job) for job in jobs]

        result = self._result_shell()
        for sub in shard_results:
            result.merge(sub)
        return result

    # ------------------------------------------------------------------
    def step_traces(
        self,
        vectors: Iterable[Sequence[int] | Mapping[int, int]],
        warmup: Sequence[int] | Mapping[int, int] | None = None,
        record_events: bool = False,
    ) -> List[CycleTrace]:
        """Raw per-cycle traces (always via the event-driven engine).

        For callers that need single-cycle detail — worst-case stimuli,
        VCD export — rather than aggregated statistics.  Only the
        event-driven engine produces traces, so this is the
        ``"auto"`` policy's fallback path regardless of the session
        backend (batch engines cannot, by construction).  Pass
        ``record_events=True`` when the traces are destined for a VCD
        dump (:func:`repro.sim.vcd.dump_vcd` requires it).
        """
        if self.delay_model is None:
            raise ValueError(
                "per-cycle traces require an intra-cycle delay model; "
                "a zero-delay session cannot produce them — construct "
                "the run with a timed delay model (traces always come "
                "from the event-driven engine)"
            )
        sim = Simulator(
            self.circuit, self.delay_model, monitor=self.monitor,
            record_events=record_events,
        )
        return sim.run(vectors, warmup=warmup)

    def ff_activity(
        self,
        vectors: Iterable[Sequence[int] | Mapping[int, int]],
        warmup: Sequence[int] | Mapping[int, int] | None = None,
    ) -> Dict[str, float]:
        """Mean flipflop D-input toggle probability per cycle.

        Measured with the zero-delay engine regardless of the
        session backend: D pins sample *settled* values, which
        zero-delay evaluation reproduces exactly.  Validates the paper's
        footnote-1 assumption that flipflop inputs change ~50% of the
        time.
        """
        ff_d = [c.inputs[0] for c in self.circuit.flipflops]
        if not ff_d:
            return {"flipflops": 0, "cycles": 0, "mean_d_activity": 0.0}
        bp = zero_delay_backend(self.circuit, monitor=set(ff_d))
        stats = bp.run(vectors, warmup=warmup)
        # A net feeding several D pins counts once per pin, as a
        # per-flipflop mean should.
        multiplicity = Counter(ff_d)
        changes = sum(
            stats.per_node[n].toggles * m
            for n, m in multiplicity.items()
            if n in stats.per_node
        )
        total = len(ff_d) * stats.cycles
        return {
            "flipflops": len(ff_d),
            "cycles": stats.cycles,
            "mean_d_activity": changes / total if total else 0.0,
        }


def analyze(
    circuit: Circuit,
    vectors: Iterable[Sequence[int] | Mapping[int, int]],
    delay_model: DelayModel | None = None,
    warmup: Sequence[int] | Mapping[int, int] | None = None,
    monitor: Iterable[int] | None = None,
) -> ActivityResult:
    """Simulate *circuit* over *vectors* and classify every transition.

    One-call convenience wrapper over :class:`ActivityRun` with the
    exact, event-driven backend; parameters mirror
    :class:`~repro.sim.engine.Simulator`.
    """
    return ActivityRun(
        circuit, delay_model=delay_model, backend="event", monitor=monitor
    ).run(vectors, warmup=warmup)
