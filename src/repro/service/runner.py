"""The service front door: exact result reuse around :class:`ActivityRun`.

:func:`cached_run` is the one call every cached consumer (the CLI's
``analyze --cache``, the experiment drivers, the batch scheduler)
routes through.  It computes the content-addressed :class:`RunKey` for
a (circuit, delay model, stimulus spec, vector count) request, serves
a store hit by re-materializing the payload against the requesting
circuit, and on a miss simulates through the normal session API and
stores the full-monitor result.

Hits are **bit-identical** to recomputation: the key hashes the exact
inputs of the simulation (canonical circuit structure, resolved
per-cell delays, the seed-stable declarative stimulus bound to the
word layout), and the payload stores exact integer counts per net
name.  Results are always *computed and cached* over the full monitor
set (all cell-driven nets); a ``monitor`` argument only restricts the
returned view, so one cache entry serves every projection of the same
run.

:func:`cached_estimate` is the same front door for the analytic
estimation backend (:mod:`repro.estimate`): estimator results are
keyed by the circuit fingerprint plus the stimulus's *derived input
statistics* (seed-independent), stored under the ``estimate`` result
class, and served with zero estimator work on a warm hit.

The default store can be set process-wide with
:func:`configure_default_store` or the ``REPRO_CACHE_DIR`` environment
variable, which is how ``repro.cli`` turns ``--cache DIR`` into warm
experiment re-runs without threading a store through every driver
signature.
"""

from __future__ import annotations

import os
from typing import Iterable, Mapping, Optional, Sequence, Tuple

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
from repro.sim.delays import DelayModel
from repro.sim.vectors import StimulusSpec, WordStimulus

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
    return _key_for(run, circuit, _as_word_stimulus(words), stimulus, n_vectors)


def _key_for(
    run: ActivityRun,
    circuit: Circuit,
    stim: WordStimulus,
    stimulus: StimulusSpec,
    n_vectors: int,
) -> RunKey:
    # Per-session, not per-backend-class: dual-mode backends run a
    # settled zero-delay session when given an explicit ZeroDelay, and
    # those results belong in the SETTLED class.
    exact = run.exact_glitches
    return RunKey(
        circuit_fp=circuit.fingerprint(),
        delay_fp=delay_fingerprint(circuit, run.delay_model),
        stimulus_fp=stimulus.fingerprint(word_layout(circuit, stim)),
        n_vectors=n_vectors,
        result_class=GLITCH_EXACT if exact else SETTLED,
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


def cached_estimate(
    circuit: Circuit,
    stimulus: StimulusSpec | None = None,
    store: ResultStore | None = None,
):
    """Workload estimation with content-addressed result reuse.

    Semantics match
    :func:`repro.estimate.workload.estimate_workload` — one fused
    estimator pass over the compiled IR — except that a prior
    identical request (same circuit fingerprint, same analytic input
    statistics) is served from *store* with zero estimator work.  A
    single estimate is cheap; sweeps over thousands of
    stimulus/circuit points are not, which is what the cache is for.

    With ``store=None`` the process default
    (:func:`default_store` / ``REPRO_CACHE_DIR``) applies; configure
    nothing and it degrades to a plain uncached estimate.
    """
    from repro.estimate.workload import estimate_workload
    from repro.sim.vectors import UniformStimulus

    spec = stimulus if stimulus is not None else UniformStimulus()
    if store is None:
        store = default_store()
    key = estimate_key(circuit, spec)
    if store is not None:
        with obs.span("cache.lookup", kind="estimate"):
            payload = store.get(key)
        if payload is not None:
            result = decode_estimate(payload, circuit)
            # Like decode_result's delay_description: the description
            # reflects the *requesting* spec (entries are shared across
            # seeds, whose describe() strings differ).
            result.stimulus_description = spec.describe()
            return result
    result = estimate_workload(circuit, spec)
    if store is not None:
        store.put(key, encode_estimate(result))
    return result


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
    if n_vectors < 0:
        raise ValueError("n_vectors must be >= 0")
    stim = _as_word_stimulus(words)
    if store is None:
        store = default_store()
    run = ActivityRun(circuit, delay_model=delay_model, backend=backend)
    key = _key_for(run, circuit, stim, stimulus, n_vectors)

    result: ActivityResult | None = None
    if store is not None:
        with obs.span("cache.lookup", kind="run"):
            payload = store.get(key)
        if payload is not None:
            with obs.span("cache.decode", kind="run"):
                result = decode_result(
                    payload, circuit, run.delay_description
                )
    if result is None:
        # A cache miss is one unit of compute work; charge it with the
        # pool's task telemetry (span + task-latency histogram) so a
        # single-run experiment's manifest reports latencies in the
        # same taxonomy a pooled sweep does.  (A sharded run fans out
        # through the supervised pool internally and meters its shards
        # on top of this inline span.)
        from repro.service.pool import observe_task

        vectors = stimulus.vectors(stim, n_vectors + 1)
        with observe_task(key.digest()[:16], source="cached_run"):
            if shards > 1:
                result = run.run_sharded(
                    vectors, shards, processes=processes
                )
            else:
                result = run.run(vectors)
        if store is not None:
            store.put(key, encode_result(result))
    if monitor is not None:
        return result.restrict(monitor)
    return result
