"""The service front door: one cached-work executor around :class:`ActivityRun`.

:func:`execute` is the plan every cached consumer shares: look each
item up once by its content-addressed :class:`RunKey`, compute
key-identical misses once (in process, or over the supervised worker
pool), persist every finished payload before reporting anything, and
return each item's outcome (``"hit"``, ``"computed"`` or ``"failed"``)
and value.  The parent is the store's only writer, and the executor
encodes a value only for the store (or a key twin with other work)
and ships work as ``to_dict()`` only to pool workers.  Its callers
are thin: :func:`run_once` / :func:`cached_run` (one activity run),
:func:`estimate_once` / :func:`cached_estimate` (one analytic
estimate) and, in :mod:`repro.service.jobs`, sweeps and explore's
candidate circuits.

Hits are **bit-identical** to recomputation: the key hashes the exact
inputs of the simulation (canonical circuit structure, resolved
per-cell delays, the seed-stable declarative stimulus bound to the
word layout), and the payload stores exact integer counts per net
name.  Runs are always *computed and cached* over the full monitor
set; a ``monitor`` argument only restricts the returned view.
Estimates are keyed by the circuit and the stimulus's *derived input
statistics* (seed-independent).  :func:`cached_run` and
:func:`cached_estimate` default to the process-wide store
(:func:`configure_default_store` or ``REPRO_CACHE_DIR``).
"""

from __future__ import annotations

import os
from typing import (
    TYPE_CHECKING, Any, Callable, Dict, Iterable, List, Mapping, NamedTuple,
    Optional, Sequence, Tuple,
)

from repro.core.activity import ActivityResult, ActivityRun
from repro.netlist.circuit import Circuit
from repro.obs import trace as obs
from repro.netlist.compiled import (
    ZERO_DELAY_FINGERPRINT,
    content_digest,
    delay_fingerprint,
)
from repro.service.store import (
    ESTIMATE,
    GLITCH_EXACT,
    SETTLED,
    ResultStore,
    RunKey,
    decode_estimate,
    decode_result,
    encode_estimate,
    encode_result,
)
from repro.sim.backends import preload_backends
from repro.sim.delays import DelayModel
from repro.sim.vectors import StimulusSpec, WordStimulus

if TYPE_CHECKING:
    from repro.estimate.workload import EstimateResult
    from repro.service.pool import RetryPolicy, TaskFailure

#: Process-wide default store (see :func:`configure_default_store`).
_DEFAULT_STORE: Optional[ResultStore] = None
_DEFAULT_STORE_INIT = False


def configure_default_store(store: ResultStore | None) -> None:
    """Set (or clear, with ``None``) the process-wide default store."""
    global _DEFAULT_STORE, _DEFAULT_STORE_INIT
    _DEFAULT_STORE = store
    _DEFAULT_STORE_INIT = True


def default_store() -> Optional[ResultStore]:
    """The configured default store, else one from ``REPRO_CACHE_DIR``."""
    global _DEFAULT_STORE, _DEFAULT_STORE_INIT
    if not _DEFAULT_STORE_INIT:
        cache_dir = os.environ.get("REPRO_CACHE_DIR")
        if cache_dir:
            _DEFAULT_STORE = ResultStore(cache_dir)
        _DEFAULT_STORE_INIT = True
    return _DEFAULT_STORE


def _as_word_stimulus(
    words: WordStimulus | Mapping[str, Sequence[int]]
) -> WordStimulus:
    if isinstance(words, WordStimulus):
        return words
    return WordStimulus(dict(words))


def word_layout(circuit: Circuit, stim: WordStimulus) -> Tuple:
    """Canonical word structure: ``((word, (net names...)), ...)``.

    Net *names* (not indices) keep the layout aligned with the
    circuit fingerprint's identity; word order is preserved because it
    determines RNG consumption order in the generators.
    """
    return tuple(
        (name, tuple(circuit.net_name(n) for n in nets))
        for name, nets in stim.words.items()
    )


def run_key(
    circuit: Circuit,
    words: WordStimulus | Mapping[str, Sequence[int]],
    stimulus: StimulusSpec,
    n_vectors: int,
    delay_model: DelayModel | None = None,
    backend: str = "auto",
) -> RunKey:
    """The content-addressed identity of this run (without running it)."""
    run = ActivityRun(circuit, delay_model=delay_model, backend=backend)
    layout = word_layout(circuit, _as_word_stimulus(words))
    # Per-session, not per-backend-class: dual-mode backends run a
    # settled zero-delay session when given an explicit ZeroDelay, and
    # those results belong in the SETTLED class.
    return RunKey(
        circuit_fp=circuit.fingerprint(),
        delay_fp=delay_fingerprint(circuit, run.delay_model),
        stimulus_fp=stimulus.fingerprint(layout),
        n_vectors=n_vectors,
        result_class=GLITCH_EXACT if run.exact_glitches else SETTLED,
    )


def estimate_key(circuit: Circuit, stimulus: StimulusSpec) -> RunKey:
    """The content-addressed identity of an estimator run.

    Estimates depend on the circuit and on the *analytic input
    statistics* of the stimulus — not on its seed, nor on any delay
    model or vector count.  The stimulus slot therefore hashes the
    derived ``(one_probability, density)`` pair rather than the spec,
    so differently-seeded but statistically identical workloads share
    one entry; the delay slot is pinned to the zero-delay fingerprint
    and the vector count to 0.
    """
    from repro.estimate.workload import input_statistics

    return RunKey(
        circuit_fp=circuit.fingerprint(),
        delay_fp=ZERO_DELAY_FINGERPRINT,
        stimulus_fp=content_digest(
            ("estimate-stats-v1", input_statistics(stimulus))
        ),
        n_vectors=0,
        result_class=ESTIMATE,
    )


class Executed(NamedTuple):
    """What :func:`execute` did, per item in item order: its outcome
    (``"hit"``, ``"computed"``, ``"failed"``, or ``None`` when an
    interrupt left it unresolved) and its value; then the pool's
    quarantine records and whether it was interrupted."""

    outcomes: List[Optional[str]]
    values: List[Any]
    failures: List["TaskFailure"]
    interrupted: bool


def execute(
    items: Sequence[Tuple[Optional[RunKey], str, Any]],
    compute: Callable[[Any], Any] | None,
    store: ResultStore | None = None,
    *,
    encode: Callable[[Any], Dict[str, Any]] | None = None,
    decode: Callable[[Dict[str, Any], Any], Any] | None = None,
    worker: Callable[[Dict[str, Any]], Dict[str, Any]] | None = None,
    processes: int | None = None,
    policy: "RetryPolicy | None" = None,
    on_progress: Callable[[str, Optional[float]], None] | None = None,
    supervise: bool = True,
    kind: str = "run",
) -> Executed:
    """Run ``(key, label, work)`` items through *store*.

    Each keyed item is looked up once, and a hit's value is
    ``decode(payload, work)``.  Key-identical misses are computed once:
    ``compute(work)`` in process or, with *processes* > 1 and several
    misses, ``worker(work.to_dict())`` in the supervised pool, whose
    payloads are decoded in the parent (after the parent imports what
    the ``work.engine`` backends need).  Items sharing a key share the
    computed value only if they share the work; any other decodes its
    own copy of the payload against its own work.  A miss's site key is
    its key's digest (else ``task-<i>:<label>``), so fault decisions and
    backoff jitter follow the content.  *supervise* (batches) retries and
    quarantines under *policy* and marks each outcome with a
    ``jobs.<kind>`` instant; without it (one-item callers) the
    computation's own exception propagates and no instant is emitted.
    The parent, the store's only writer, then puts every finished
    payload (``encode(value)`` for work done in process) in one batch
    before anything is reported, interrupts and quarantines included.
    *encode* / *decode* default to the identity (values that are
    payloads).  *kind* names the ``cache.lookup`` / ``cache.decode``
    spans.  *on_progress* hears ``("hit", None)`` per hit, then the
    pool's progress.  With ``compute=None`` only the lookup runs.
    """
    outcomes: List[Optional[str]] = [None] * len(items)
    values: List[Any] = [None] * len(items)

    def resolve(i: int, outcome: str, value: Any = None) -> None:
        outcomes[i], values[i] = outcome, value
        if supervise:
            obs.instant(f"jobs.{kind}", label=items[i][1], outcome=outcome)

    site_of: Dict[int, str] = {}  # per miss
    for i, (key, label, work) in enumerate(items):
        payload = None
        if store is not None and key is not None:
            with obs.span("cache.lookup", kind=kind):
                payload = store.get(key)
        if payload is None:
            site_of[i] = f"task-{i}:{label}" if key is None else key.digest()
            continue
        if decode is not None:
            with obs.span("cache.decode", kind=kind):
                payload = decode(payload, work)
        resolve(i, "hit", payload)
        if on_progress is not None:
            on_progress("hit", None)
    first: Dict[str, int] = {}  # site key -> the one item computed for it
    for i, site in site_of.items():
        first.setdefault(site, i)
    if compute is None or not first:
        return Executed(outcomes, values, [], False)

    from repro.service.pool import PoolResult, run_supervised, timed_call

    sites, unique = list(first), list(first.values())
    works = [items[i][2] for i in unique]
    pooled = bool(processes and processes > 1 and len(works) > 1)
    if not supervise:
        done = PoolResult([
            timed_call(compute, work, site)[0]
            for work, site in zip(works, sites)
        ])
    else:
        if pooled:
            preload_backends(w.engine for w in works)
        done = run_supervised(
            worker if pooled else compute,
            [w.to_dict() for w in works] if pooled else works,
            processes=min(processes, len(works)) if pooled else None,
            policy=policy, keys=sites, labels=[items[i][1] for i in unique],
            on_progress=on_progress,
        )
    computed = done.payloads  # values in process, payloads from the pool

    def payload(j: int) -> Any:  # made per call, so nothing holds it
        value = done.payloads[j]
        return value if pooled or encode is None else encode(value)

    if store is not None:
        with store.deferred():  # one index write for the batch
            for j, i in enumerate(unique):
                if computed[j] is not None and items[i][0] is not None:
                    store.put(items[i][0], payload(j))
    if pooled and decode is not None:
        computed = [
            p if p is None else decode(p, w) for p, w in zip(computed, works)
        ]
    row = {site: j for j, site in enumerate(sites)}
    failed = {sites[f.index] for f in done.failures}
    for i, site in site_of.items():
        j, work = row[site], items[i][2]
        if computed[j] is None:
            if site in failed:
                resolve(i, "failed")
        elif work is works[j] or decode is None:
            resolve(i, "computed", computed[j])
        else:  # a key twin: one fingerprint can number nets differently
            resolve(i, "computed", decode(payload(j), work))
    return Executed(outcomes, values, done.failures, done.interrupted)


def run_once(
    circuit: Circuit,
    words: WordStimulus | Mapping[str, Sequence[int]],
    stimulus: StimulusSpec,
    n_vectors: int,
    delay_model: DelayModel | None = None,
    backend: str = "auto",
    store: ResultStore | None = None,
    shards: int = 1,
    processes: int | None = None,
) -> Tuple[str, ActivityResult]:
    """One full-monitor run through :func:`execute`: ``(outcome,
    result)``.  *store* is taken as given: ``None`` is no store (and
    no key), not the process default."""
    if n_vectors < 0:
        raise ValueError("n_vectors must be >= 0")
    stim = _as_word_stimulus(words)
    run = ActivityRun(circuit, delay_model=delay_model, backend=backend)
    key = None if store is None else run_key(
        circuit, stim, stimulus, n_vectors, delay_model, backend
    )

    def simulate(run: ActivityRun) -> ActivityResult:
        vectors = stimulus.vectors(stim, n_vectors + 1)
        if shards > 1:
            return run.run_sharded(vectors, shards, processes=processes)
        return run.run(vectors)

    done = execute(
        [(key, circuit.name, run)], simulate, store, encode=encode_result,
        decode=lambda payload, run: decode_result(
            payload, circuit, run.delay_description
        ),
        supervise=False,
    )
    return done.outcomes[0], done.values[0]


def cached_run(
    circuit: Circuit,
    words: WordStimulus | Mapping[str, Sequence[int]],
    stimulus: StimulusSpec,
    n_vectors: int,
    delay_model: DelayModel | None = None,
    backend: str = "auto",
    store: ResultStore | None = None,
    shards: int = 1,
    processes: int | None = None,
    monitor: Iterable[int] | None = None,
) -> ActivityResult:
    """Activity analysis with exact, content-addressed result reuse.

    Semantics match ``ActivityRun(circuit, delay_model, backend)``
    driven with ``stimulus.vectors(words, n_vectors + 1)`` (first
    vector consumed as warm-up), except that a prior identical run —
    in this process or any other sharing *store* — is served from the
    cache, bit for bit, with zero simulation work.  *monitor*
    restricts only the returned view; see the module docstring.

    With ``store=None`` the process default
    (:func:`default_store` / ``REPRO_CACHE_DIR``) applies; configure
    nothing and it degrades to a plain uncached run.
    """
    if store is None:
        store = default_store()
    _, result = run_once(
        circuit, words, stimulus, n_vectors, delay_model, backend, store,
        shards, processes,
    )
    return result if monitor is None else result.restrict(monitor)


def estimate_once(
    circuit: Circuit,
    stimulus: StimulusSpec | None = None,
    store: ResultStore | None = None,
) -> Tuple[str, "EstimateResult"]:
    """One workload estimate through :func:`execute`: ``(outcome,
    estimate)``, with *store* taken as given."""
    from repro.estimate.workload import estimate_workload
    from repro.sim.vectors import UniformStimulus

    spec = stimulus if stimulus is not None else UniformStimulus()

    def decode(payload, spec):
        result = decode_estimate(payload, circuit)
        # Like decode_result's delay_description: the description
        # reflects the *requesting* spec (entries are shared across
        # seeds, whose describe() strings differ).
        result.stimulus_description = spec.describe()
        return result

    key = None if store is None else estimate_key(circuit, spec)
    done = execute(
        [(key, circuit.name, spec)],
        lambda spec: estimate_workload(circuit, spec), store,
        encode=encode_estimate, decode=decode, supervise=False,
        kind="estimate",
    )
    return done.outcomes[0], done.values[0]


def cached_estimate(
    circuit: Circuit,
    stimulus: StimulusSpec | None = None,
    store: ResultStore | None = None,
):
    """Workload estimation with content-addressed result reuse.

    Semantics match :func:`repro.estimate.workload.estimate_workload`,
    except that a prior identical request (same circuit fingerprint,
    same analytic input statistics) is served from *store* with zero
    estimator work.  With ``store=None`` the process default
    (:func:`default_store` / ``REPRO_CACHE_DIR``) applies; configure
    nothing and it degrades to a plain uncached estimate.
    """
    if store is None:
        store = default_store()
    return estimate_once(circuit, stimulus, store)[1]
