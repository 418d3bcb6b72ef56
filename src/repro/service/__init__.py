"""Analysis service: exact result reuse and batch scheduling.

The sixth architecture layer, on top of the session API
(:mod:`repro.core.activity`).  Identical analysis requests — the
common case when many users sweep the same paper artefacts — are
served from a persistent, content-addressed cache instead of
recomputing, and large parameter sweeps become declarative batch jobs
with partial-hit resume:

* :mod:`repro.service.store` — :class:`ResultStore`: on-disk,
  LRU-bounded, atomic-write cache of serialized activity results,
  keyed by canonical fingerprints of (circuit, delay model, stimulus,
  vector count, result class).  Hits are bit-identical to
  recomputation by construction.
* :mod:`repro.service.runner` — :func:`cached_run`, the front door
  every cached consumer routes through, plus the process-default
  store (``REPRO_CACHE_DIR``) and :func:`cached_estimate`, the same
  front door for the analytic estimation backend
  (:mod:`repro.estimate`; entries keyed by derived input statistics,
  shared across stimulus seeds).
* :mod:`repro.service.jobs` — :class:`JobSpec` sweeps expanded into
  :class:`JobPoint`\\ s and executed by the :class:`BatchScheduler`
  over the supervised worker pool; only cache-missing points
  simulate.
* :mod:`repro.service.pool` — :func:`run_supervised`: the fan-out
  primitive all batch paths use.  Worker death and hangs are detected
  and the task retried with deterministic backoff
  (:class:`RetryPolicy`); tasks that exhaust the budget become
  structured :class:`TaskFailure` quarantine records; an interrupt
  salvages every completed payload.
* :mod:`repro.service.faults` — the deterministic fault-injection
  harness behind the chaos suite: a seeded :class:`FaultPlan` arms
  named injection points (worker crash/hang, torn or failing store
  writes, backend ``MemoryError``) whose firing is a pure function of
  (seed, site identity), so any chaos run replays exactly.

The CLI exposes the service as ``repro.cli submit / status / cache``
(including ``cache verify|repair``) and via ``--cache DIR`` on
``analyze`` and ``experiment``.
"""

from repro import _lazy_exports

__getattr__, __dir__, __all__ = _lazy_exports(globals(), {
    ".store": (
        "ESTIMATE",
        "GLITCH_EXACT",
        "SETTLED",
        "ResultStore",
        "RunKey",
        "decode_estimate",
        "decode_result",
        "encode_estimate",
        "encode_result",
        "payload_summary",
        "StoreWriteWarning",
    ),
    ".runner": (
        "cached_estimate",
        "cached_run",
        "configure_default_store",
        "default_store",
        "estimate_key",
        "run_key",
        "word_layout",
    ),
    ".jobs": (
        "BatchReport",
        "BatchScheduler",
        "JobPoint",
        "JobSpec",
        "PointOutcome",
        "load_job_records",
        "resolve_delay",
    ),
    ".faults": ("FaultPlan", "FaultSpec"),
    ".pool": ("PoolResult", "RetryPolicy", "TaskFailure", "run_supervised"),
})
