"""What importing the package and starting the CLI loads.

``import repro`` and ``import repro.cli`` load no layer: package names
resolve on first access (``repro._lazy_exports``, PEP 562), numpy loads
with the first vector run, and each CLI command imports the layers it
runs.  Every check runs in a fresh interpreter, because this test
process has long since imported everything.
"""

import json
import os
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from importlib import metadata
from pathlib import Path

import pytest

import repro
from repro.sim.vector import numpy_available

PACKAGE = Path(repro.__file__).resolve().parent


def _python(*args, path=(), check=True):
    """Run a fresh interpreter with this checkout's ``repro`` importable."""
    entries = [*path, str(PACKAGE.parent), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, entries)))
    done = subprocess.run(
        [sys.executable, *args], env=env, capture_output=True, text=True,
        timeout=120,
    )
    if check:
        assert done.returncode == 0, done.stderr
    return done


def test_cli_import_loads_only_the_cli():
    done = _python("-c", (
        "import json, sys\n"
        "before = set(sys.modules)\n"
        "import repro.cli\n"
        "print(json.dumps(sorted(set(sys.modules) - before)))\n"
    ))
    added = json.loads(done.stdout)
    assert [m for m in added if m.partition(".")[0] == "repro"] == [
        "repro", "repro.cli",
    ]
    assert [
        m for m in added if m.partition(".")[0] in ("numpy", "multiprocessing")
    ] == []


def _first_imports():
    """Each subpackage, with every name it exports, and each module a
    ``repro.__all__`` name comes from."""
    subpackages = sorted(
        f"repro.{p.name}" for p in PACKAGE.iterdir() if (p / "__init__.py").exists()
    )
    checks = [
        f"import {p}\nfor name in {p}.__all__: getattr({p}, name)"
        for p in ["repro", *subpackages]
    ]
    sources = {
        getattr(repro, name).__module__
        for name in repro.__all__ if name != "__version__"
    }
    return checks + [f"import {m}" for m in sorted(sources)]


def test_every_package_and_export_source_imports_first():
    """Import-order cycles show up only when a module is the first one
    loaded, as the CLI's lazy imports make many of them."""
    checks = _first_imports()
    with ThreadPoolExecutor(max_workers=4) as pool:
        runs = list(pool.map(
            lambda code: _python("-c", code, check=False), checks
        ))
    failed = {
        code.partition("\n")[0]: run.stderr.strip().splitlines()[-1]
        for code, run in zip(checks, runs) if run.returncode
    }
    assert failed == {}
    assert len(checks) > 40


def test_numpy_loads_with_the_first_backend_question():
    done = _python("-c", (
        "import sys\n"
        "from repro.sim.backends import select_backend\n"
        "print('numpy' in sys.modules, select_backend(), 'numpy' in sys.modules)\n"
    ))
    engine = "vector" if numpy_available() else "lanes"
    assert done.stdout.split() == ["False", engine, str(numpy_available())]


@pytest.mark.parametrize("stub, reason", [
    ("raise ImportError('stub')", "numpy is not installed"),
    ("__version__ = '1.26.4'", "numpy 1.26.4 lacks bitwise_count"),
])
def test_an_unusable_numpy_degrades_auto_to_lanes(tmp_path, stub, reason):
    (tmp_path / "numpy").mkdir()
    (tmp_path / "numpy" / "__init__.py").write_text(stub + "\n")
    done = _python("-c", (
        "from repro.circuits.catalog import build_named_circuit\n"
        "from repro.sim.backends import BackendUnavailableError, get_backend\n"
        "from repro.sim.backends import select_backend\n"
        "print(select_backend())\n"
        "try:\n"
        "    get_backend('vector', build_named_circuit('rca4')[0])\n"
        "except BackendUnavailableError as exc:\n"
        "    print(exc)\n"
    ), path=[str(tmp_path)])
    engine, message = done.stdout.splitlines()
    assert engine == "lanes"
    assert "'vector' backend is unavailable" in message and reason in message


def test_an_estimate_manifest_leaves_numpy_unloaded(tmp_path):
    """The manifest reads numpy's version without importing numpy."""
    done = _python("-c", (
        "import sys\n"
        "from repro.cli import main\n"
        "main(sys.argv[1:])\n"
        "print('numpy loaded:', 'numpy' in sys.modules)\n"
    ), "submit", "--circuit", "array16", "--estimate",
        "--cache", str(tmp_path), "--metrics")
    assert done.stdout.splitlines()[-1] == "numpy loaded: False"
    (manifest,) = (tmp_path / "manifests").iterdir()
    try:
        installed = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        installed = None
    assert json.loads(manifest.read_text())["environment"]["numpy"] == installed


@pytest.mark.skipif(not numpy_available(), reason="needs the [perf] extra")
def test_a_pooled_sweep_imports_numpy_once():
    """The supervisor loads numpy before it forks, so workers inherit it."""
    done = _python(
        "-X", "importtime", "-m", "repro.cli", "submit", "--circuit", "rca4",
        "--sweep", "circuit=rca4,rca6", "--vectors", "20", "--jobs", "2",
    )
    imports = [
        line for line in done.stderr.splitlines()
        if line.rpartition("|")[2].strip() == "numpy"
    ]
    assert len(imports) == 1
