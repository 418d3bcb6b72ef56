"""Run one ``repro`` CLI command with the per-layer wrappers installed.

Usage (from the repository root, ``src`` on ``PYTHONPATH``)::

    E2EBENCH_TRACE_DIR=DIR python e2ebench/traced_cli.py analyze --circuit rca8

Behaves like ``python -m repro.cli ...`` and leaves one ``<pid>.json``
record per process (this one and any pool worker) in ``DIR``.
"""

import time

T_LAUNCH = time.perf_counter()

import os  # noqa: E402
import sys  # noqa: E402

sys.path.append(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from e2ebench import layers  # noqa: E402


def main() -> int:
    tracer = layers.Tracer(os.environ[layers.TRACE_DIR_ENV])
    tracer.marks["launch"] = T_LAUNCH
    layers.install(tracer)
    with tracer.span(layers.IMPORT_LAYER):
        import repro.cli
    try:
        return repro.cli.main(sys.argv[1:])
    finally:
        tracer.marks["main_end"] = time.perf_counter()
        tracer.dump()


if __name__ == "__main__":
    sys.exit(main())
