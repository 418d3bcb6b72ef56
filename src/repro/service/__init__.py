"""Analysis service: exact result reuse and batch scheduling.

The sixth architecture layer, on top of the session API
(:mod:`repro.core.activity`).  Identical analysis requests are served
from a persistent, content-addressed cache instead of recomputing, and
large parameter sweeps become declarative batch jobs with partial-hit
resume:

* :mod:`repro.service.runner` — :func:`~repro.service.runner.execute`,
  the one cached-work executor: one store lookup per item, key-identical
  misses computed once (in process or supervised), every finished
  payload stored by the parent before anything is reported, and a
  ``hit`` / ``computed`` / ``failed`` outcome per item.  Its one-item
  callers :func:`cached_run` and :func:`cached_estimate` (the front
  doors of the CLI and the experiment drivers; default store from
  ``REPRO_CACHE_DIR``) serialize nothing without a store.
* :mod:`repro.service.store` — :class:`ResultStore`: on-disk,
  LRU-bounded, atomic-write cache of serialized results, keyed by
  canonical fingerprints of (circuit, delay model, stimulus, vector
  count, result class); hits are bit-identical to recomputation.
* :mod:`repro.service.jobs` — :class:`JobSpec` sweeps expanded into
  :class:`JobPoint`\\ s for the :class:`BatchScheduler`, and explore's
  candidate circuits: both thin callers of the executor.
* :mod:`repro.service.pool` — :func:`run_supervised`, the supervised
  fan-out: dead or hung workers are detected and the task retried with
  deterministic backoff (:class:`RetryPolicy`); tasks that exhaust the
  budget become :class:`TaskFailure` quarantine records; an interrupt
  salvages every completed payload.
* :mod:`repro.service.faults` — the deterministic fault-injection
  harness behind the chaos suite: a seeded :class:`FaultPlan` arms
  named injection points whose firing is a pure function of (seed,
  site identity), so any chaos run replays exactly.

The CLI exposes the service as ``repro.cli submit / status / cache``
(including ``cache verify|repair``) and via ``--cache DIR`` on
``analyze``, ``estimate``, ``import``, ``explore`` and ``experiment``.
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
