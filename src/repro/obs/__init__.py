"""repro.obs — observability: spans, metrics, histograms, manifests.

Instrumentation hooks (:func:`span`, :func:`instant`, :func:`inc`,
:func:`gauge`, :func:`hist`, :func:`warn_event`) are safe to call
unconditionally from every layer: while tracing is disabled they cost
one global load and return the shared null span.  Arm tracing with
:func:`enable` (or the CLI's ``--trace`` / ``--metrics`` flags, or
``REPRO_TRACE=1`` in the environment — workers adopt it automatically,
mirroring ``REPRO_FAULTS``), then export the buffer as Chrome-trace
JSON (:func:`write_chrome_trace`), a human tree (:func:`format_tree`),
or a per-run manifest (:func:`build_manifest`).

Beyond spans and counters: :class:`Histogram` latency distributions
merge exactly across the worker pool; :mod:`repro.obs.log` correlates
every event to a per-run ``run_id`` in a JSONL file; the
:class:`ResourceSampler` records RSS/CPU/GC/queue-depth counter tracks
into the trace; :mod:`repro.obs.ledger` renders and diffs the
committed perf trajectory.
"""

from repro import _lazy_exports

__getattr__, __dir__, __all__ = _lazy_exports(globals(), {
    ".hist": ("Histogram",),
    ".metrics": ("MetricsRegistry",),
    ".sampler": ("ResourceSampler", "register_probe", "unregister_probe"),
    ".trace": (
        "ENV_VAR",
        "NULL_SPAN",
        "Recorder",
        "TRACE_SCHEMA",
        "active",
        "capture",
        "chrome_trace",
        "disable",
        "enable",
        "enabled",
        "format_tree",
        "gauge",
        "hist",
        "inc",
        "instant",
        "set_event_sink",
        "span",
        "validate_chrome_trace",
        "warn_event",
        "write_chrome_trace",
    ),
    ".manifest": (
        "build_manifest",
        "environment",
        "phase_times",
        "span_coverage",
        "write_manifest",
    ),
})
# The submodule of the same name would shadow a lazy binding once it
# loads, so the function is bound now.
hist = __getattr__("hist")
