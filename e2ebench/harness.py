"""Child processes of the benchmark: environment, timing, memory, metadata."""

from __future__ import annotations

import hashlib
import json
import os
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from typing import Dict, List, Optional

#: The repository checkout the benchmark runs in (parent of this package).
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
CLI_FILE = os.path.join(SRC, "repro", "cli.py")
TRACED_CLI = os.path.join(ROOT, "e2ebench", "traced_cli.py")
#: Git-ignored scratch space for result stores and temp files; the
#: benchmark reads and writes nothing else outside its checkout.
SCRATCH = os.path.join(ROOT, ".e2ebench_tmp")

#: A single command may not outlive the benchmark's own time limit.
COMMAND_TIMEOUT_S = 150.0


def child_env(tmpdir: str) -> Dict[str, str]:
    """The environment every ``repro`` child runs in.

    Strips every ``REPRO_*`` variable (among them ``REPRO_CACHE_DIR``,
    ``REPRO_TRACE``, ``REPRO_FAULTS`` and ``REPRO_LOG``), so no outside
    store, trace, fault plan or event log changes what is measured.
    Byte-code caching stays on, as for an installed package.
    """
    env = {
        k: v for k, v in os.environ.items()
        if not k.startswith("REPRO_") and k != "PYTHONDONTWRITEBYTECODE"
    }
    path = env.get("PYTHONPATH")
    env["PYTHONPATH"] = SRC if not path else SRC + os.pathsep + path
    env["TMPDIR"] = tmpdir
    return env


@dataclass
class Completed:
    """One finished child command."""

    returncode: int
    #: ``time.perf_counter()`` just before spawn and just after reaping
    #: (the system-wide monotonic clock, comparable across processes).
    started: float
    ended: float
    peak_rss_mb: float
    stdout: str
    stderr: str

    @property
    def wall_s(self) -> float:
        return self.ended - self.started


def run_command(argv: List[str], env: Dict[str, str], workdir: str) -> Completed:
    """Run *argv* to completion; time it from spawn to exit.

    ``peak_rss_mb`` is the child's ``wait4`` maximum resident set,
    which covers every descendant the child waited for (the supervised
    pool joins its workers), i.e. the largest process of the tree.  A
    command that outlives :data:`COMMAND_TIMEOUT_S` is killed with its
    whole process group.
    """
    out_path = os.path.join(workdir, "stdout.txt")
    err_path = os.path.join(workdir, "stderr.txt")
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            argv, stdout=out, stderr=err, stdin=subprocess.DEVNULL,
            env=env, cwd=ROOT, start_new_session=True,
        )
        timer = threading.Timer(COMMAND_TIMEOUT_S, _kill_group, (proc.pid,))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        t1 = time.perf_counter()
    proc.returncode = os.waitstatus_to_exitcode(status)
    # Reap anything the command left in its group (nothing, normally).
    _kill_group(proc.pid)
    with open(out_path, encoding="utf-8", errors="replace") as fh:
        stdout = fh.read()
    with open(err_path, encoding="utf-8", errors="replace") as fh:
        stderr = fh.read()
    return Completed(
        returncode=proc.returncode,
        started=t0,
        ended=t1,
        peak_rss_mb=usage.ru_maxrss / 1024.0,
        stdout=stdout,
        stderr=stderr,
    )


def _kill_group(pgid: int) -> None:
    try:
        os.killpg(pgid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass


def cli_argv(args: List[str]) -> List[str]:
    """``python -m repro.cli ARGS`` as a user types it."""
    return [sys.executable, "-m", "repro.cli", *args]


def traced_argv(args: List[str]) -> List[str]:
    """The same command started through the per-layer launcher."""
    return [sys.executable, TRACED_CLI, *args]


_PROBE = """
import json, os, platform
try:
    import numpy
    numpy_version = numpy.__version__
except ImportError:
    numpy_version = None
from repro.sim.backends import select_backend
print(json.dumps({
    "python": platform.python_version(),
    "numpy": numpy_version,
    "auto_backend": select_backend(),
    "nproc": len(os.sched_getaffinity(0)),
}))
"""


def environment(env: Dict[str, str], workdir: str) -> Dict[str, object]:
    """What a result must be stored with to be comparable.

    The Python and numpy versions, the engine ``--backend auto``
    resolves to (``vector`` with numpy, ``waveform`` without), the
    usable CPU count, the git commit when the checkout is a git
    repository, and a digest of the program's sources either way.
    """
    done = run_command([sys.executable, "-c", _PROBE], env, workdir)
    if done.returncode != 0:
        raise RuntimeError(f"environment probe failed: {done.stderr.strip()}")
    meta = json.loads(done.stdout.strip().splitlines()[-1])
    meta["commit"] = _git_commit()
    meta["src_digest"] = source_digest()
    return meta


def _git_commit() -> Optional[str]:
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return None
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() or None if done.returncode == 0 else None


def source_digest() -> str:
    """SHA-256 (first 16 hex digits) over ``src/repro``'s Python files."""
    digest = hashlib.sha256()
    base = os.path.join(SRC, "repro")
    for dirpath, dirnames, filenames in os.walk(base):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, base).encode())
                with open(path, "rb") as fh:
                    digest.update(fh.read())
    return digest.hexdigest()[:16]
