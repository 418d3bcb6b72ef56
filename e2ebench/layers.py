"""Per-layer self time of a traced ``repro`` process, measured from outside.

The traced run starts each CLI command through ``traced_cli.py``,
which installs the wrappers defined here before ``repro.cli`` is
imported.  Each wrapper charges its call to a named layer.  A layer's
*self time* is the wall time of its calls minus the wall time of the
wrapped calls nested inside them, so within one process the self times
of all layers plus the unwrapped remainder add up to the wall time.

Wrapped functions are rebound in every loaded ``repro.*`` module that
imported them by name (``from x import f``); methods are patched on
their class.  Modules are patched as they finish importing (a
``sys.meta_path`` hook), so the CLI's lazy imports pick up the wrappers
and their import time stays where the program spends it.

Pool workers are forked after the wrappers are installed and leave via
``os._exit``, so no ``atexit`` hook runs in them: each worker rewrites
its own ``<pid>.json`` after every task.  The root process writes its
record when the command returns, and :func:`merge` adds the records
up.

The program calls every wrapped function from its main thread, so the
accounting keeps one call stack per process and takes no locks.
"""

from __future__ import annotations

import functools
import importlib.abc
import importlib.machinery
import json
import os
import sys
import time
from collections import Counter, defaultdict
from typing import Any, Callable, Dict, Iterable, List, Mapping, Optional

clock = time.perf_counter

#: ``(layer, module, attribute, call counter)``.  ``attribute`` may be
#: ``Class.method``; the counter, when given, counts calls of this one
#: entry point.
TARGETS = (
    ("circuits.build", "repro.circuits.catalog", "build_named_circuit", None),
    ("netlist.compile", "repro.netlist.compiled", "compile_circuit",
     "netlist.compile_calls"),
    ("netlist.compile_delta", "repro.netlist.compiled", "compile_delta", None),
    ("netlist.fingerprint", "repro.netlist.compiled", "circuit_fingerprint",
     "netlist.fingerprint_calls"),
    ("netlist.fingerprint", "repro.netlist.compiled", "delay_fingerprint",
     "netlist.fingerprint_calls"),
    ("netlist.levelize", "repro.netlist.codegen", "level_groups", None),
    ("netlist.levelize", "repro.netlist.codegen", "levelize_cells", None),
    ("netlist.levelize", "repro.netlist.codegen", "levelize_cells_delta", None),
    ("netlist.codegen", "repro.netlist.codegen", "build_settle_pass", None),
    ("netlist.codegen", "repro.netlist.codegen", "build_waveform_pass", None),
    ("netlist.codegen", "repro.netlist.codegen", "build_prob_pass", None),
    ("netlist.codegen", "repro.netlist.codegen", "build_density_pass", None),
    ("netlist.delta", "repro.netlist.delta", "CircuitDelta.apply", None),
    ("netlist.delta", "repro.netlist.delta", "diff_circuits", None),
    ("netlist.io", "repro.netlist.io", "circuit_to_json", None),
    ("netlist.io", "repro.netlist.io", "circuit_from_json", None),
    ("sim.plan", "repro.sim.backends", "get_backend", None),
    ("core.run", "repro.core.activity", "ActivityRun.run", None),
    ("estimate.full", "repro.estimate.workload", "estimate_workload",
     "estimate.full_calls"),
    ("estimate.full", "repro.estimate.workload", "workload_snapshot",
     "estimate.full_calls"),
    ("estimate.cone", "repro.estimate.workload", "incremental_workload",
     "estimate.cone_calls"),
    ("opt.balance", "repro.opt.balance", "balance_paths", None),
    ("opt.balance", "repro.opt.balance", "balance_paths_delta", None),
    ("opt.cleanup", "repro.opt.transform", "propagate_constants", None),
    ("opt.cleanup", "repro.opt.transform", "propagate_constants_delta", None),
    ("opt.cleanup", "repro.opt.transform", "dead_cell_elimination", None),
    ("opt.cleanup", "repro.opt.transform", "dead_cell_elimination_delta", None),
    ("opt.cleanup", "repro.opt.transform", "strip_buffers", None),
    ("opt.cleanup", "repro.opt.transform", "strip_buffers_delta", None),
    ("retime.min_period", "repro.retime.leiserson_saxe", "minimum_period", None),
    ("retime.min_period", "repro.retime.leiserson_saxe", "feas",
     "retime.feas_calls"),
    ("retime.apply", "repro.retime.apply", "apply_retiming", None),
    ("retime.apply", "repro.retime.apply", "apply_retiming_delta", None),
    ("retime.pipeline", "repro.retime.pipeline", "pipeline_circuit", None),
    ("explore.search", "repro.explore.search", "explore", None),
    ("explore.cost", "repro.explore.cost", "estimated_cost", None),
    ("explore.cost", "repro.explore.cost", "estimated_cost_from", None),
    ("explore.cost", "repro.explore.cost", "simulated_cost", None),
    ("explore.cost", "repro.explore.cost", "transition_instant_sets", None),
    ("explore.cost", "repro.explore.cost", "spliced_instant_state", None),
    ("service.store_get", "repro.service.store", "ResultStore.get",
     "service.store_gets"),
    ("service.store_put", "repro.service.store", "ResultStore.put",
     "service.store_puts"),
    ("service.codec", "repro.service.store", "encode_result", None),
    ("service.codec", "repro.service.store", "decode_result", None),
    ("service.codec", "repro.service.store", "encode_estimate", None),
    ("service.codec", "repro.service.store", "decode_estimate", None),
    ("service.pool", "repro.service.pool", "run_supervised", None),
    ("cli.command", "repro.cli", "main", None),
)

#: Every engine in this registry gets its constructor charged to
#: ``sim.plan`` and its ``run`` to ``sim.kernel``, so engines added or
#: merged later are traced without editing this file.
ENGINE_REGISTRY = ("repro.sim.backends", "BACKENDS")

#: Layer of ``import repro.cli`` (timed by the launcher).
IMPORT_LAYER = "cli.import"

#: Every layer, each reported as ``<layer>_s``.
LAYERS = tuple(dict.fromkeys(
    [IMPORT_LAYER] + [t[0] for t in TARGETS] + ["sim.plan", "sim.kernel"]
))

#: Self time of ``repro.cli.main`` is whatever no other wrapper
#: covers, so counting it would make ``trace.attributed_frac`` ~1 by
#: construction; it is reported but not attributed.
UNATTRIBUTED = ("cli.command",)

#: Per-layer values parsed from the program's own output (0 where a
#: workload's output has none).
OUTPUT_COUNTS = (
    "explore.candidates", "explore.simulated", "explore.delta_reuse_frac",
    "service.failed_points",
)

TRACE_DIR_ENV = "E2EBENCH_TRACE_DIR"


class Tracer:
    """Self-time and count accumulators for one process.

    *out_dir* receives ``<pid>.json`` records (see :meth:`dump`).
    """

    def __init__(self, out_dir: str) -> None:
        self.out_dir = out_dir
        self.root_pid = os.getpid()
        self.stack: List[List[float]] = []
        self.active: Counter = Counter()
        self.self_s: Dict[str, float] = defaultdict(float)
        self.counts: Dict[str, float] = defaultdict(float)
        self.samples: Dict[str, List[float]] = defaultdict(list)
        self.marks: Dict[str, float] = {}
        self.missing: List[str] = []
        if hasattr(os, "register_at_fork"):
            os.register_at_fork(after_in_child=self._forget)

    def _forget(self) -> None:
        # A forked worker starts empty: the parent's frames never
        # return in it, and the parent reports its own totals.
        # Cleared in place because the wrappers hold these objects.
        self.stack.clear()
        self.active.clear()
        self.self_s.clear()
        self.counts.clear()
        self.samples.clear()
        self.marks.clear()

    # -- accounting ----------------------------------------------------
    def push(self, layer: str) -> List[float]:
        frame = [0.0]
        self.stack.append(frame)
        self.active[layer] += 1
        return frame

    def pop(self, layer: str, frame: List[float], dur: float) -> None:
        if self.stack and self.stack[-1] is frame:
            self.stack.pop()
        self.active[layer] -= 1
        self.self_s[layer] += dur - frame[0]
        if self.stack:
            self.stack[-1][0] += dur

    def span(self, layer: str) -> "_Span":
        """Context manager charging a block to *layer*."""
        return _Span(self, layer)

    def wrap(
        self,
        layer: str,
        fn: Callable,
        counter: Optional[str] = None,
        after: Optional[Callable[["Tracer", tuple, Any], None]] = None,
    ) -> Callable:
        """*fn* with its calls charged to *layer*.

        *after(tracer, args, result)* runs once the call has returned
        and its frame is off the stack.
        """
        push, pop = self.push, self.pop
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = push(layer)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                pop(layer, frame, clock() - t0)
                if counter is not None:
                    counts[counter] += 1
            if after is not None:
                after(self, args, result)
            return result

        wrapper.__e2ebench_original__ = fn
        return wrapper

    # -- records -------------------------------------------------------
    def record(self) -> Dict[str, Any]:
        pid = os.getpid()
        return {
            "pid": pid,
            "root": pid == self.root_pid,
            "self_s": dict(self.self_s),
            "counts": dict(self.counts),
            "samples": {k: list(v) for k, v in self.samples.items()},
            "marks": dict(self.marks),
            "missing": list(self.missing),
        }

    def dump(self) -> str:
        """Write this process's record to ``<out_dir>/<pid>.json``."""
        path = os.path.join(self.out_dir, f"{os.getpid()}.json")
        tmp = path + ".tmp"
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(self.record(), fh)
        os.replace(tmp, path)
        return path


class _Span:
    def __init__(self, tracer: Tracer, layer: str) -> None:
        self.tracer = tracer
        self.layer = layer

    def __enter__(self) -> None:
        self.frame = self.tracer.push(self.layer)
        self.t0 = clock()

    def __exit__(self, *exc) -> None:
        self.tracer.pop(self.layer, self.frame, clock() - self.t0)


class _TimedTask:
    """A pool task that times itself in worker processes.

    In a worker, each call appends its wall time to the
    ``service.task`` samples and rewrites the worker's record, since
    the worker exits without running ``atexit``.  In-process (the
    sequential pool) it only passes the call through.
    """

    def __init__(self, func: Callable, tracer: Tracer) -> None:
        self.func = func
        self.tracer = tracer

    def __call__(self, item):
        t0 = clock()
        try:
            return self.func(item)
        finally:
            tracer = self.tracer
            if os.getpid() != tracer.root_pid:
                tracer.samples["service.task"].append(clock() - t0)
                tracer.dump()


# ---------------------------------------------------------------------------
# Hooks that derive counts from a wrapped call's arguments and result
# ---------------------------------------------------------------------------

def _count_store_hit(tracer: Tracer, args: tuple, result: Any) -> None:
    if result is not None:
        tracer.counts["service.store_hits"] += 1


def _count_cell_cycles(tracer: Tracer, args: tuple, result: Any) -> None:
    # Engines may delegate to another engine's run (codegen's settled
    # tier does); only the outermost run counts its cycles.
    if tracer.active["sim.kernel"]:
        return
    circuit = getattr(args[0], "circuit", None)
    cycles = getattr(result, "cycles", 0)
    if circuit is not None:
        tracer.counts["sim.cell_cycles"] += len(circuit.cells) * cycles


def _wrap_pool(tracer: Tracer, fn: Callable) -> Callable:
    """``run_supervised`` with timed tasks and pool-capacity accounting."""
    timed = tracer.wrap("service.pool", fn)
    counts = tracer.counts

    @functools.wraps(fn)
    def run_supervised(func, items, processes=None, *args, **kwargs):
        items = list(items)
        workers = (
            min(processes, len(items))
            if processes and processes > 1 and len(items) > 1 else 0
        )
        t0 = clock()
        result = timed(_TimedTask(func, tracer), items, processes, *args, **kwargs)
        if workers:
            counts["service.pool_capacity_s"] += workers * (clock() - t0)
        counts["service.retries"] += getattr(result, "n_retries", 0)
        return result

    run_supervised.__e2ebench_original__ = fn
    return run_supervised


_AFTER = {
    "ResultStore.get": _count_store_hit,
}


# ---------------------------------------------------------------------------
# Installation
# ---------------------------------------------------------------------------

class _Installer:
    """Patches target modules as they finish importing."""

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self.by_module: Dict[str, list] = defaultdict(list)
        for layer, module, attr, counter in TARGETS:
            self.by_module[module].append((layer, attr, counter))
        self.by_module.setdefault(ENGINE_REGISTRY[0], [])
        #: id(original) -> wrapper, for rebinding by-name imports.
        self.replaced: Dict[int, Callable] = {}
        self.originals: List[Callable] = []  # keeps the ids stable

    def patch(self, modname: str) -> None:
        module = sys.modules[modname]
        for layer, attr, counter in self.by_module.get(modname, ()):
            owner_name, _, name = attr.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            current = None if owner is None else vars(owner).get(name)
            if current is None:
                self.tracer.missing.append(f"{modname}.{attr}")
                continue
            if hasattr(current, "__e2ebench_original__"):
                continue
            if attr == "run_supervised":
                wrapper = _wrap_pool(self.tracer, current)
            else:
                wrapper = self.tracer.wrap(
                    layer, current, counter, _AFTER.get(attr)
                )
            setattr(owner, name, wrapper)
            if owner is module:
                self.replaced[id(current)] = wrapper
                self.originals.append(current)
        if modname == ENGINE_REGISTRY[0]:
            self._patch_engines(getattr(module, ENGINE_REGISTRY[1], {}))
        self.rebind()

    def _patch_engines(self, registry: Mapping[str, type]) -> None:
        for cls in registry.values():
            for name, layer, after in (
                ("__init__", "sim.plan", None),
                ("run", "sim.kernel", _count_cell_cycles),
            ):
                current = vars(cls).get(name)
                if current is None or hasattr(current, "__e2ebench_original__"):
                    continue
                setattr(cls, name, self.tracer.wrap(layer, current, None, after))

    def rebind(self) -> None:
        """Point by-name imports of patched functions at the wrappers."""
        replaced = self.replaced
        for modname, module in list(sys.modules.items()):
            if module is None or not (
                modname == "repro" or modname.startswith("repro.")
            ):
                continue
            namespace = vars(module)
            for key, value in list(namespace.items()):
                wrapper = replaced.get(id(value))
                if wrapper is not None:
                    namespace[key] = wrapper


class _PatchOnImport(importlib.abc.MetaPathFinder):
    def __init__(self, installer: _Installer) -> None:
        self.installer = installer

    def find_spec(self, fullname, path, target=None):
        if fullname not in self.installer.by_module:
            return None
        spec = importlib.machinery.PathFinder.find_spec(fullname, path)
        if spec is None or spec.loader is None:
            return None
        loader = spec.loader
        exec_module = loader.exec_module
        installer = self.installer

        def exec_then_patch(module):
            exec_module(module)
            installer.patch(fullname)

        loader.exec_module = exec_then_patch
        return spec


def install(tracer: Tracer) -> _Installer:
    """Wrap every target, now for loaded modules and on import for the rest."""
    installer = _Installer(tracer)
    sys.meta_path.insert(0, _PatchOnImport(installer))
    for modname in list(installer.by_module):
        if modname in sys.modules:
            installer.patch(modname)
    return installer


# ---------------------------------------------------------------------------
# Reading the records back
# ---------------------------------------------------------------------------

def read_records(trace_dir: str) -> List[Dict[str, Any]]:
    records = []
    for name in sorted(os.listdir(trace_dir)):
        if name.endswith(".json"):
            with open(os.path.join(trace_dir, name), encoding="utf-8") as fh:
                records.append(json.load(fh))
    return records


def merge(records: Iterable[Mapping[str, Any]]) -> Dict[str, Any]:
    """Sum per-pid records; root self time is also kept apart.

    Worker time runs in parallel with the parent's wait inside
    ``service.pool``, so only root self time is compared with wall time.
    """
    total: Dict[str, Any] = {
        "self_s": defaultdict(float),
        "root_self_s": defaultdict(float),
        "counts": defaultdict(float),
        "samples": defaultdict(list),
        "missing": set(),
    }
    for rec in records:
        is_root = rec.get("root", False)
        for layer, value in rec.get("self_s", {}).items():
            total["self_s"][layer] += value
            if is_root:
                total["root_self_s"][layer] += value
        for name, value in rec.get("counts", {}).items():
            total["counts"][name] += value
        for name, values in rec.get("samples", {}).items():
            total["samples"][name].extend(values)
        total["missing"].update(rec.get("missing", ()))
    return total


def tail_percentile(n: int, min_beyond: int = 10) -> Optional[float]:
    """Highest of p50/p90/p99/p99.9 with >= *min_beyond* samples above it."""
    best = None
    for pct in (50.0, 90.0, 99.0, 99.9):
        if n * (100.0 - pct) / 100.0 >= min_beyond:
            best = pct
    return best


def percentile(values: List[float], pct: float) -> float:
    """Nearest-rank percentile (the value itself, not an interpolation)."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * pct // 100))
    return ordered[int(rank) - 1]


def layer_metrics(
    merged: Mapping[str, Any],
    traced_wall_s: float,
    untraced_wall_s: float,
    extra: Mapping[str, float],
    startup_s: float = 0.0,
    exit_s: float = 0.0,
) -> Dict[str, float]:
    """The per-layer metric values of one traced iteration.

    *traced_wall_s* and *untraced_wall_s* are the summed spawn-to-exit
    walls of the iteration's commands with and without the wrappers;
    *extra* carries the :data:`OUTPUT_COUNTS` parsed from the program's
    own output.  *startup_s* (spawn until the launcher's first line)
    and *exit_s* (``main`` returned until the process was reaped) are
    the ``process.*`` layers, timed from outside the process.
    """
    self_s = merged["self_s"]
    counts = merged["counts"]
    out: Dict[str, float] = {}
    for layer in LAYERS:
        out[f"{layer}_s"] = self_s.get(layer, 0.0)
    for name in (
        "netlist.compile_calls", "netlist.fingerprint_calls",
        "estimate.full_calls", "estimate.cone_calls", "retime.feas_calls",
        "service.store_puts", "service.retries", "sim.cell_cycles",
    ):
        out[name] = counts.get(name, 0.0)
    kernel = out["sim.kernel_s"]
    out["sim.cell_cycles_per_s"] = out["sim.cell_cycles"] / kernel if kernel else 0.0
    gets = counts.get("service.store_gets", 0.0)
    out["service.store_hit_frac"] = (
        counts.get("service.store_hits", 0.0) / gets if gets else 0.0
    )
    tasks = merged["samples"].get("service.task", [])
    tail = tail_percentile(len(tasks))
    out["service.task_samples"] = float(len(tasks))
    out["service.task_s"] = percentile(tasks, 50.0) if tasks else 0.0
    out["service.task_tail_s"] = percentile(tasks, tail) if tail else 0.0
    out["service.task_tail_pct"] = tail or 0.0
    capacity = counts.get("service.pool_capacity_s", 0.0)
    out["service.worker_busy_frac"] = sum(tasks) / capacity if capacity else 0.0
    attributed = startup_s + exit_s + sum(
        merged["root_self_s"].get(layer, 0.0)
        for layer in LAYERS if layer not in UNATTRIBUTED
    )
    out["trace.attributed_frac"] = (
        attributed / traced_wall_s if traced_wall_s else 0.0
    )
    out["trace.overhead_frac"] = (
        (traced_wall_s - untraced_wall_s) / untraced_wall_s
        if untraced_wall_s else 0.0
    )
    out["process.startup_s"] = startup_s
    out["process.exit_s"] = exit_s
    for name in OUTPUT_COUNTS:
        out[name] = float(extra.get(name, 0.0))
    return out
