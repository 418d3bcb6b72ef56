"""Command-line front end.

Exposes the library's analyses without writing Python::

    python -m repro.cli analyze --circuit array8 --vectors 500
    python -m repro.cli analyze --circuit array16 --vectors 2000 \
        --shards 8 --jobs 4          # sharded, exactly merged
    python -m repro.cli analyze --circuit array16 --backend auto \
        --vectors 2000               # fastest glitch-exact engine
    python -m repro.cli analyze --circuit array32 --backend vector \
        --vectors 5000               # numpy tier ([perf] extra)
    python -m repro.cli analyze --circuit rca16 \
        --backend bitparallel        # zero-delay, useful-only counts
    python -m repro.cli analyze --circuit rca8 --vectors 50 \
        --backend auto --vcd rca8.vcd   # falls back to event-driven
    python -m repro.cli analyze --circuit array8 --cache .repro-cache
    python -m repro.cli analyze --circuit array8 --estimate   # + estimator gap
    python -m repro.cli estimate --circuit array16            # analytic only
    python -m repro.cli experiment table1
    python -m repro.cli experiment ablation                   # estimate vs sim
    python -m repro.cli experiment fig5 --cache .repro-cache  # warm = instant
    python -m repro.cli submit --circuit array8 --cache .repro-cache \
        --sweep circuit=rca8,rca16,array8 --sweep n_vectors=200,500 --jobs 4
    python -m repro.cli status --cache .repro-cache
    python -m repro.cli cache --dir .repro-cache
    python -m repro.cli export --circuit detector --format dot
    python -m repro.cli import design.json --action analyze
    python -m repro.cli balance --circuit rca16 --vectors 300
    python -m repro.cli analyze --circuit rca16 --trace t.json --metrics
    python -m repro.cli trace t.json            # span tree from the file
    python -m repro.cli explore --circuit array8 --strategy beam \
        --cache .repro-cache       # estimate-guided Pareto search
    python -m repro.cli experiment frontier

Circuit names: ``rcaN`` (ripple-carry adder), ``arrayN`` / ``wallaceN``
(NxN multipliers), ``detector`` (the Section 4.2 processing unit).
``--cache DIR`` routes runs through the service layer
(:mod:`repro.service`): identical re-runs are served bit-identically
from the content-addressed store with zero simulation work.

Only the standard library loads with this module: each command imports
the layers it runs, so ``--help`` costs about one interpreter start.
"""

from __future__ import annotations

import argparse
import os
import random
import sys
from typing import TYPE_CHECKING, List, Sequence, Tuple

if TYPE_CHECKING:
    from repro.netlist.circuit import Circuit
    from repro.sim.delays import DelayModel
    from repro.sim.vectors import WordStimulus

#: ``--backend`` values: the ``auto`` policy, the three engines, and
#: the retired engine names that still resolve to ``lanes`` (the
#: bit-parallel ones to its zero-delay mode).
BACKEND_CHOICES = [
    "auto", "event", "lanes", "vector",
    "waveform", "wave", "codegen", "bitparallel", "bit-parallel", "batch",
]


def build_named_circuit(name: str) -> Tuple[Circuit, WordStimulus]:
    """Construct a circuit by CLI name; returns it with its stimulus.

    Thin wrapper over :func:`repro.circuits.catalog.build_named_circuit`
    that converts lookup errors into ``SystemExit``.
    """
    from repro.circuits.catalog import build_named_circuit as build

    try:
        return build(name)
    except ValueError as exc:
        raise SystemExit(str(exc))


def _parse_size(name: str, prefix: str) -> int:
    from repro.circuits.catalog import _parse_size as parse

    try:
        return parse(name, prefix)
    except ValueError as exc:
        raise SystemExit(str(exc))


def _delay_model(spec: str) -> DelayModel:
    from repro.sim.delays import SumCarryDelay, UnitDelay

    if spec == "unit":
        return UnitDelay()
    if spec == "sumcarry":
        return SumCarryDelay(dsum=2, dcarry=1)
    raise SystemExit(f"unknown delay model {spec!r}; use unit or sumcarry")


def _open_store(path: str | None, max_bytes: int | None = None):
    """A :class:`~repro.service.store.ResultStore` at *path*, or None."""
    if path is None:
        return None
    from repro.service.store import ResultStore

    return ResultStore(path, max_bytes=max_bytes)


def _require_backend(name: str) -> None:
    """Exit with a one-line error when *name* cannot run here.

    ``auto`` always resolves to something runnable; concrete names are
    checked up front so a missing optional dependency surfaces as a
    clean message listing the usable engines, not a traceback from
    deep inside a run.
    """
    from repro.sim.backends import (
        available_backends,
        backend_unavailable_reason,
    )

    if name == "auto":
        return
    try:
        reason = backend_unavailable_reason(name)
    except ValueError as exc:
        raise SystemExit(str(exc))
    if reason is not None:
        raise SystemExit(
            f"{reason} (available backends: "
            f"{', '.join(available_backends())})"
        )


def cmd_analyze(args: argparse.Namespace) -> int:
    from repro.core.activity import ActivityRun
    from repro.core.report import format_table
    from repro.sim.backends import ZERO_DELAY_ALIASES, select_backend

    circuit, stim = build_named_circuit(args.circuit)
    if args.shards < 1:
        raise SystemExit(f"--shards must be >= 1, got {args.shards}")
    rng = random.Random(args.seed)
    backend = args.backend
    _require_backend(backend)
    if args.vcd is not None:
        # Recorded events exist only on the event-driven engine; auto
        # falls back to it, anything else is a contradiction.
        if backend not in ("auto", "event"):
            raise SystemExit(
                f"--vcd requires recorded events, which only the "
                f"event-driven engine produces; drop --backend {backend} "
                "or use --backend auto"
            )
        if args.shards > 1:
            raise SystemExit("--vcd records a single stream; drop --shards")
        if args.cache is not None:
            raise SystemExit(
                "--vcd needs recorded per-cycle events, which the result "
                "store does not hold; drop --cache for VCD dumps"
            )
        backend = select_backend(record_events=True)
    if backend not in ZERO_DELAY_ALIASES:
        # "auto" is passed through unresolved: ActivityRun/cached_run
        # resolve it themselves, which arms runtime failover down the
        # backend chain (an explicitly named backend never falls back).
        delay = _delay_model(args.delay or "unit")
    elif args.delay is not None:
        raise SystemExit(
            f"--delay {args.delay} has no effect on the zero-delay "
            f"{args.backend!r} backend; drop it or use --backend event"
        )
    else:
        delay = None
    store = None
    if args.cache is not None:
        # Route through the service layer: exact content-addressed
        # reuse, bit-identical to the direct run below.
        from repro.service.runner import cached_run
        from repro.sim.vectors import UniformStimulus

        store = _open_store(args.cache)
        result = cached_run(
            circuit, stim, UniformStimulus(seed=args.seed), args.vectors,
            delay_model=delay, backend=backend, store=store,
            shards=args.shards, processes=args.jobs,
        )
        source = "cache" if store.hits else "simulated"
        store.flush()  # persist hit recency even in read-only runs
        print(f"[cache] {source}: {store.root}")
    else:
        run = ActivityRun(circuit, delay_model=delay, backend=backend)
        vectors = stim.random(rng, args.vectors + 1)
        if args.vcd is not None:
            from repro.core.activity import accumulate_traces
            from repro.sim.vcd import dump_vcd

            traces = run.step_traces(vectors, record_events=True)
            result = accumulate_traces(run._result_shell(), traces)
            cycle_length = max(
                (t.settle_time for t in traces), default=0
            ) + 1
            with open(args.vcd, "w") as fh:
                fh.write(dump_vcd(circuit, traces, cycle_length=cycle_length))
            print(f"wrote {len(traces)} cycles to {args.vcd}")
        elif args.shards > 1:
            result = run.run_sharded(
                vectors, shards=args.shards, processes=args.jobs
            )
        else:
            result = run.run(vectors)
    summary = result.summary()
    print(
        format_table(
            ["metric", "value"],
            [[k, v] for k, v in summary.items()],
            title=(
                f"{circuit.name}: {args.vectors} random vectors, "
                f"{result.delay_description}"
            ),
        )
    )
    if args.estimate:
        from repro.sim.vectors import UniformStimulus

        estimate = _estimate_for(
            circuit, UniformStimulus(seed=args.seed), store
        )
        cycles = result.cycles or 1
        est = estimate.summary()
        rows = [
            [
                "useful/cycle",
                round(result.useful / cycles, 2),
                est["useful"],
            ],
            [
                "total/cycle",
                round(result.total_transitions / cycles, 2),
                est["total"],
            ],
            ["L/F", summary["L/F"], est["L/F"]],
        ]
        # A zero-delay session counts only settled (useful) activity,
        # so its "total" is not glitch-inclusive — label the
        # comparison accordingly rather than overclaim exactness.
        sim_label = (
            "zero-delay simulation (useful-only totals)"
            if backend in ZERO_DELAY_ALIASES else "glitch-exact simulation"
        )
        print()
        print(format_table(
            ["metric", "simulated", "estimated"],
            rows,
            title=(
                f"{circuit.name}: {sim_label} vs analytic "
                "estimate (rates per cycle)"
            ),
        ))
    return 0


def _estimate_for(circuit: Circuit, stimulus, store):
    """One workload estimate, through the service layer when *store* is set."""
    if store is not None:
        from repro.service.runner import cached_estimate

        hits_before = store.hits
        estimate = cached_estimate(circuit, stimulus, store=store)
        source = "cache" if store.hits > hits_before else "estimated"
        store.flush()  # persist hit recency even in read-only runs
        print(f"[estimate cache] {source}: {store.root}")
        return estimate
    from repro.estimate.workload import estimate_workload

    return estimate_workload(circuit, stimulus)


def cmd_estimate(args: argparse.Namespace) -> int:
    from repro.core.report import format_table

    circuit, _ = build_named_circuit(args.circuit)
    stimulus = _make_stimulus_arg(args)
    estimate = _estimate_for(circuit, stimulus, _open_store(args.cache))
    summary = estimate.summary()
    print(format_table(
        ["metric", "value"],
        [[k, v] for k, v in summary.items()],
        title=(
            f"{circuit.name}: analytic estimate, "
            f"{estimate.stimulus_description} "
            f"(p={estimate.input_probability:g}, "
            f"D={estimate.input_density:g})"
        ),
    ))
    classes = estimate.by_class(circuit)
    rows = [
        [
            cls,
            row["nets"],
            round(row["useful"], 2),
            round(row["density"], 2),
        ]
        for cls, row in sorted(classes.items())
    ]
    print(format_table(
        ["net class", "nets", "zero-delay useful/cyc", "density/cyc"],
        rows,
        title="estimated activity per net class",
    ))
    return 0


def cmd_experiment(args: argparse.Namespace) -> int:
    from repro.obs import trace as obs

    name = args.name
    store = _open_store(args.cache)
    with obs.span(f"experiment.{name}", vectors=args.vectors):
        _dispatch_experiment(name, args, store)
    if store is not None:
        store.flush()  # persist hit recency even in read-only runs
        print(
            f"[cache] {store.hits} hit(s), {store.misses} miss(es) "
            f"at {store.root}"
        )
    return 0


def _dispatch_experiment(name: str, args: argparse.Namespace, store) -> None:
    if name == "fig5":
        from repro.experiments.rca import figure5_experiment, format_figure5

        print(format_figure5(
            figure5_experiment(n_vectors=args.vectors, store=store)
        ))
    elif name == "table1":
        from repro.experiments.multipliers import format_rows, table1_experiment

        print(format_rows(
            table1_experiment(n_vectors=args.vectors, store=store), "Table 1"
        ))
    elif name == "table2":
        from repro.experiments.multipliers import format_rows, table2_experiment

        print(format_rows(
            table2_experiment(n_vectors=args.vectors, store=store), "Table 2"
        ))
    elif name == "sec42":
        from repro.core.report import format_table
        from repro.experiments.detector import section42_experiment

        data = section42_experiment(n_vectors=args.vectors, store=store)
        rows = [
            ["useful", data["useful"], data["paper"]["useful"]],
            ["useless", data["useless"], data["paper"]["useless"]],
            ["L/F", data["L/F"], data["paper"]["L/F"]],
        ]
        print(format_table(["metric", "repro", "paper"], rows, "Section 4.2"))
    elif name == "table3":
        from repro.experiments.retiming_power import (
            format_table3,
            table3_experiment,
        )

        print(format_table3(
            table3_experiment(n_vectors=args.vectors, store=store)
        ))
    elif name == "ablation":
        from repro.experiments.ablation import (
            estimator_ablation_experiment,
            format_ablation,
        )

        print(format_ablation(
            estimator_ablation_experiment(
                n_vectors=args.vectors, store=store
            )
        ))
    elif name == "adders":
        from repro.experiments.adder_sweep import (
            adder_architecture_experiment,
            format_adder_sweep,
        )

        print(
            format_adder_sweep(
                adder_architecture_experiment(
                    n_vectors=args.vectors, store=store
                )
            )
        )
    elif name == "frontier":
        from repro.experiments.explore_frontier import (
            explore_frontier_experiment,
            format_frontier,
        )

        print(format_frontier(
            explore_frontier_experiment(n_vectors=args.vectors, store=store)
        ))
    else:
        raise SystemExit(
            f"unknown experiment {name!r}; "
            "try fig5, table1, table2, sec42, table3, adders, ablation, "
            "frontier"
        )


def _parse_sweep(
    pairs: List[str] | None,
) -> dict:
    """``axis=v1,v2,...`` option strings -> sweep dict (typed values)."""
    sweep: dict = {}
    for pair in pairs or []:
        axis, sep, values = pair.partition("=")
        if not sep or not values:
            raise SystemExit(
                f"bad --sweep {pair!r}: expected axis=value1,value2,..."
            )
        items: List = values.split(",")
        if axis in ("n_vectors", "seed"):
            try:
                items = [int(v) for v in items]
            except ValueError:
                raise SystemExit(f"--sweep {axis} values must be integers")
        sweep[axis] = items
    return sweep


def _make_stimulus_arg(args: argparse.Namespace):
    from repro.sim.vectors import make_stimulus

    params = {"seed": args.seed}
    if args.stimulus == "correlated":
        params["flip_probability"] = args.flip_probability
    try:
        return make_stimulus(args.stimulus, **params)
    except (TypeError, ValueError) as exc:
        raise SystemExit(str(exc))


def cmd_submit(args: argparse.Namespace) -> int:
    from repro.core.report import format_table
    from repro.service.jobs import BatchScheduler, JobSpec

    _require_backend(args.backend)
    store = _open_store(args.cache)
    spec = JobSpec(
        circuit=args.circuit,
        delay=args.delay,
        stimulus=_make_stimulus_arg(args),
        n_vectors=args.vectors,
        backend=args.backend,
        estimate=args.estimate,
        sweep=_parse_sweep(args.sweep),
    )
    try:
        points = spec.points()
    except ValueError as exc:
        raise SystemExit(str(exc))
    policy = None
    if args.retries is not None or args.task_timeout is not None:
        from repro.service.pool import RetryPolicy

        defaults = RetryPolicy()
        policy = RetryPolicy(
            max_attempts=(
                defaults.max_attempts if args.retries is None
                else max(1, args.retries + 1)
            ),
            timeout_s=(
                defaults.timeout_s if args.task_timeout is None
                else args.task_timeout
            ),
        )
    scheduler = BatchScheduler(
        store=store, processes=args.jobs, policy=policy
    )
    if args.dry_run:
        hits, misses = scheduler.plan(spec)
        rows = [[p.label(), "hit"] for p, _ in hits]
        rows += [[p.label(), "miss"] for p, _ in misses]
        print(format_table(
            ["point", "cache"], rows,
            title=f"dry run — {len(points)} point(s), "
                  f"{len(hits)} cached, {len(misses)} to simulate",
        ))
        return 0
    report = scheduler.run(spec, heartbeat_s=args.heartbeat)
    rows = [
        [
            o.point.label(), o.status, o.summary["total"],
            o.summary["useful"], o.summary["useless"], o.summary["L/F"],
        ]
        for o in report.outcomes
    ]
    title = (
        f"{report.job_id}: {report.n_hits} hit(s), "
        f"{report.n_computed} computed in {report.elapsed_s:.2f}s"
    )
    if report.n_failed:
        title += f", {report.n_failed} FAILED"
    print(format_table(
        ["point", "source", "total", "useful", "useless", "L/F"],
        rows, title=title,
    ))
    for failure in report.failures:
        print(
            f"[failed] {failure.label}: {failure.kind} after "
            f"{failure.attempts} attempt(s): {failure.error}"
        )
    return 1 if report.n_failed else 0


def cmd_status(args: argparse.Namespace) -> int:
    from repro.core.report import format_table
    from repro.service.jobs import load_job_records

    store = _open_store(args.cache)
    if store is None:
        raise SystemExit("status requires --cache DIR")
    records = load_job_records(store)
    if args.job is not None:
        matches = [r for r in records if r.get("job_id") == args.job]
        if not matches:
            raise SystemExit(f"no job {args.job!r} in {store.root}")
        record = matches[-1]
        rows = [
            [
                o["point"]["circuit"], o["point"]["delay"],
                o["point"]["n_vectors"], o["status"],
                o["summary"]["total"], o["summary"]["L/F"],
            ]
            for o in record["outcomes"]
        ]
        print(format_table(
            ["circuit", "delay", "vectors", "source", "total", "L/F"],
            rows, title=record["job_id"],
        ))
        return 0
    if not records:
        print(f"no jobs recorded in {store.root}")
        return 0
    rows = [
        [
            r["job_id"], len(r.get("outcomes", [])),
            r.get("hits", 0), r.get("computed", 0),
            r.get("failed", 0),
            "yes" if r.get("interrupted") else "no",
            r.get("elapsed_s", 0.0),
        ]
        for r in records
    ]
    print(format_table(
        ["job", "points", "hits", "computed", "failed", "interrupted",
         "elapsed_s"],
        rows, title=f"jobs in {store.root}",
    ))
    return 0


def cmd_cache(args: argparse.Namespace) -> int:
    from repro.core.report import format_table

    store = _open_store(args.dir)
    if store is None:
        raise SystemExit("cache requires --dir DIR")
    if args.action == "verify":
        report = store.verify()
        rows = [
            [p["digest"][:12], p["kind"], p["detail"]]
            for p in report["problems"]
        ]
        title = (
            f"{report['ok']}/{report['entries']} entrie(s) ok, "
            f"{len(report['problems'])} problem(s)"
        )
        if rows:
            print(format_table(["digest", "kind", "detail"], rows,
                               title=title))
        else:
            print(title)
        return 1 if report["problems"] else 0
    if args.action == "repair":
        before = store.verify()
        fixed = store.repair()
        print(
            f"dropped {fixed['dropped']} corrupt entrie(s), adopted "
            f"{fixed['adopted']} orphan object(s), deleted "
            f"{fixed['deleted']} unparseable orphan(s), swept "
            f"{fixed['swept_tmp']} stale tmp file(s) "
            f"({len(before['problems'])} problem(s) found)"
        )
        after = store.verify()
        print(f"{after['ok']}/{after['entries']} entrie(s) ok after repair")
        return 0
    if args.clear:
        n = store.clear()
        print(f"cleared {n} entrie(s) from {store.root}")
        return 0
    if args.prune_bytes is not None:
        n = store.prune(args.prune_bytes)
        print(f"evicted {n} entrie(s); {store.total_bytes()} bytes remain")
        return 0
    stats = store.stats()
    rows = [[k, v] for k, v in stats.items() if not k.startswith("session_")]
    print(format_table(["metric", "value"], rows, title="result store"))
    entries = list(store.entries())[-args.limit:] if args.limit > 0 else []
    if entries:
        rows = [
            [
                e["digest"][:12],
                e.get("circuit_name", "?"),
                # Entries adopted by index recovery have no decomposed
                # key (the digest alone addresses them).
                (e.get("key") or {}).get("n_vectors", "?"),
                (e.get("key") or {}).get("result_class", "?"),
                (e.get("summary") or {}).get("total", "?"),
                e["size"],
            ]
            for e in entries
        ]
        print(format_table(
            ["digest", "circuit", "vectors", "class", "total", "bytes"],
            rows, title=f"most recent {len(rows)} entrie(s)",
        ))
    return 0


def cmd_export(args: argparse.Namespace) -> int:
    from repro.netlist.io import circuit_to_dot, circuit_to_json

    circuit, _ = build_named_circuit(args.circuit)
    if args.format == "json":
        print(circuit_to_json(circuit, indent=2))
    else:
        print(circuit_to_dot(circuit, max_cells=args.max_cells))
    return 0


def _run_explore(circuit: Circuit, args: argparse.Namespace) -> int:
    """Shared exploration path for ``explore`` and ``import --action explore``."""
    from repro.explore.report import format_explore
    from repro.explore.search import explore
    from repro.explore.specs import default_space
    from repro.sim.vectors import UniformStimulus

    store = _open_store(args.cache)
    try:
        space = default_space(
            delay=args.delay or "unit",
            max_stages=args.max_stages,
            max_depth=args.max_depth,
            max_area_mm2=args.max_area,
            max_latency=args.max_latency,
        )
        result = explore(
            circuit,
            space=space,
            strategy=args.strategy,
            beam_width=args.beam_width,
            n_vectors=args.vectors,
            stimulus=UniformStimulus(seed=args.seed),
            store=store,
            processes=args.jobs,
        )
    except ValueError as exc:
        raise SystemExit(str(exc))
    print(format_explore(result))
    if store is not None:
        store.flush()  # persist hit recency even in warm runs
        print(
            f"[cache] {store.hits} hit(s), {store.misses} miss(es) "
            f"at {store.root}"
        )
    if not any(c.on_front for c in result.candidates):
        raise SystemExit(
            "exploration produced an empty front; relax --max-area / "
            "--max-latency"
        )
    return 0


def cmd_explore(args: argparse.Namespace) -> int:
    circuit, _ = build_named_circuit(args.circuit)
    return _run_explore(circuit, args)


def _load_imported_circuit(path: str) -> Circuit:
    from repro.netlist.io import circuit_from_json
    from repro.netlist.validate import validate

    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        raise SystemExit(f"cannot read {path}: {exc}")
    try:
        circuit = circuit_from_json(text)
    except (ValueError, KeyError, TypeError) as exc:
        raise SystemExit(f"{path} is not a schema-v1 netlist: {exc}")
    errors = [i for i in validate(circuit) if i.severity == "error"]
    if errors:
        detail = "; ".join(i.message for i in errors[:5])
        raise SystemExit(f"{path} failed netlist validation: {detail}")
    if not circuit.inputs:
        raise SystemExit(f"{path} has no primary inputs to stimulate")
    return circuit


def cmd_import(args: argparse.Namespace) -> int:
    """Load an exported/externally generated netlist and analyze it."""
    from repro.core.report import format_table
    from repro.netlist.io import words_from_inputs

    circuit = _load_imported_circuit(args.path)
    if args.action == "explore":
        return _run_explore(circuit, args)
    if args.action == "estimate":
        from repro.sim.vectors import UniformStimulus

        estimate = _estimate_for(
            circuit, UniformStimulus(seed=args.seed), _open_store(args.cache)
        )
        print(format_table(
            ["metric", "value"],
            [[k, v] for k, v in estimate.summary().items()],
            title=(
                f"{circuit.name} (imported): analytic estimate, "
                f"{estimate.stimulus_description}"
            ),
        ))
        return 0
    # analyze: only this path needs the name-derived word stimulus.
    from repro.sim.vectors import UniformStimulus, WordStimulus

    try:
        words = words_from_inputs(circuit)
    except ValueError as exc:
        raise SystemExit(str(exc))
    stim = WordStimulus(words)
    delay = _delay_model(args.delay or "unit")
    store = _open_store(args.cache)
    if store is not None:
        from repro.service.runner import cached_run

        result = cached_run(
            circuit, stim, UniformStimulus(seed=args.seed), args.vectors,
            delay_model=delay, backend="auto", store=store,
        )
        source = "cache" if store.hits else "simulated"
        store.flush()
        print(f"[cache] {source}: {store.root}")
    else:
        from repro.core.activity import ActivityRun

        run = ActivityRun(circuit, delay_model=delay, backend="auto")
        result = run.run(
            UniformStimulus(seed=args.seed).vectors(stim, args.vectors + 1)
        )
    word_desc = ", ".join(
        f"{name}[{len(nets)}]" for name, nets in words.items()
    )
    print(
        format_table(
            ["metric", "value"],
            [[k, v] for k, v in result.summary().items()],
            title=(
                f"{circuit.name} (imported, words {word_desc}): "
                f"{args.vectors} random vectors, "
                f"{result.delay_description}"
            ),
        )
    )
    return 0


def cmd_trace(args: argparse.Namespace) -> int:
    """Render (or validate) a Chrome-trace file written by ``--trace``."""
    import json

    from repro.obs import trace as obs

    try:
        with open(args.path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, ValueError) as exc:
        raise SystemExit(f"cannot read trace {args.path}: {exc}")
    errors = obs.validate_chrome_trace(doc)
    if args.validate:
        if errors:
            for err in errors[:20]:
                print(err)
            print(f"{args.path}: INVALID ({len(errors)} error(s))")
            return 1
        print(
            f"{args.path}: valid "
            f"({len(doc['traceEvents'])} trace event(s))"
        )
        return 0
    if errors:
        raise SystemExit(f"{args.path}: not a repro trace: {errors[0]}")
    events = obs.events_from_chrome(doc)
    print(obs.format_tree(events, min_ms=args.min_ms))
    return 0


def cmd_bench(args: argparse.Namespace) -> int:
    """Render or diff the committed perf-trajectory ledger."""
    from repro.obs.ledger import (
        compare_snapshots,
        format_diff,
        format_ledger,
        load_snapshot,
        validate_snapshot,
    )

    def _load(path: str):
        try:
            doc = load_snapshot(path)
        except (OSError, ValueError) as exc:
            raise SystemExit(f"cannot read ledger {path}: {exc}")
        errors = validate_snapshot(doc)
        if errors:
            for err in errors[:20]:
                print(err)
            raise SystemExit(
                f"{path}: not a bench snapshot ({len(errors)} error(s))"
            )
        return doc

    current = _load(args.file)
    if args.diff is None:
        print(format_ledger(current))
        return 0
    reference = _load(args.diff)
    print(format_diff(reference, current, threshold=args.threshold))
    regressions = compare_snapshots(reference, current, args.threshold)
    return 1 if regressions else 0


def cmd_balance(args: argparse.Namespace) -> int:
    from repro.experiments.balance import (
        balancing_vs_retiming_experiment,
        format_balance_comparison,
    )

    n_bits = _parse_size(args.circuit, "rca")
    data = balancing_vs_retiming_experiment(
        n_bits=n_bits, n_vectors=args.vectors
    )
    print(format_balance_comparison(data))
    return 0


def _obs_options(p: argparse.ArgumentParser) -> None:
    """Observability flags shared by the run commands."""
    p.add_argument(
        "--trace", default=None, metavar="PATH",
        help=(
            "record hierarchical spans across every layer (workers "
            "included) and write a Chrome-trace JSON file loadable in "
            "chrome://tracing or ui.perfetto.dev; render it later with "
            "'repro trace PATH'"
        ),
    )
    p.add_argument(
        "--metrics", action="store_true",
        help=(
            "print the run's counters, gauges and latency histograms "
            "(cache, pool, sim, store) on exit"
        ),
    )
    p.add_argument(
        "--log", default=None, metavar="PATH",
        help=(
            "append every span/instant as one JSON line to PATH, "
            "correlated by a per-run run_id that workers inherit; "
            "greppable while the run is still going"
        ),
    )
    p.add_argument(
        "--sample", type=float, default=None, metavar="HZ",
        help=(
            "sample RSS/CPU/GC/pool-queue-depth HZ times per second "
            "into the trace as Chrome counter tracks"
        ),
    )


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Glitch-aware transition-activity analysis "
            "(Leijten et al., DATE 1995 reproduction)"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="count useful/useless transitions")
    p.add_argument("--circuit", required=True)
    p.add_argument("--vectors", type=int, default=500)
    p.add_argument("--seed", type=int, default=1995)
    p.add_argument(
        "--delay", default=None, choices=["unit", "sumcarry"],
        help="intra-cycle delay model (default: unit)",
    )
    p.add_argument(
        "--backend", default="auto", choices=BACKEND_CHOICES,
        help=(
            "simulation backend (default auto: the fastest glitch-exact "
            "engine — vector with the [perf] extra, lanes without, "
            "event-driven when --vcd is given; numpy is imported only "
            "when a run picks vector); event is the reference "
            "engine; waveform, wave and codegen are aliases of lanes; "
            "bitparallel, bit-parallel and batch run lanes in zero-delay "
            "mode, counting useful activity only"
        ),
    )
    p.add_argument(
        "--vcd", default=None, metavar="PATH",
        help=(
            "dump the simulated waveforms to a VCD file (forces the "
            "event-driven engine with event recording)"
        ),
    )
    p.add_argument(
        "--shards", type=int, default=1,
        help="split the vector stream into N exactly-merged shards",
    )
    p.add_argument(
        "--jobs", type=int, default=None,
        help="worker processes for sharded runs (default: in-process)",
    )
    p.add_argument(
        "--cache", default=None, metavar="DIR",
        help=(
            "route the run through the service result store at DIR; "
            "identical re-runs are served bit-exactly without simulating"
        ),
    )
    p.add_argument(
        "--estimate", action="store_true",
        help=(
            "also run the analytic estimation backend on the same "
            "workload and print the simulated-vs-estimated comparison"
        ),
    )
    _obs_options(p)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser(
        "estimate",
        help="analytic activity estimate (no simulation)",
    )
    p.add_argument("--circuit", required=True)
    p.add_argument("--seed", type=int, default=1995)
    p.add_argument(
        "--stimulus", default="uniform",
        choices=["uniform", "correlated", "burst"],
        help="workload whose analytic input statistics drive the estimate",
    )
    p.add_argument("--flip-probability", type=float, default=0.1)
    p.add_argument(
        "--cache", default=None, metavar="DIR",
        help=(
            "serve repeated estimates from the service result store at "
            "DIR (entries are shared across stimulus seeds)"
        ),
    )
    p.set_defaults(func=cmd_estimate)

    p = sub.add_parser("experiment", help="regenerate a paper table/figure")
    p.add_argument("name")
    p.add_argument("--vectors", type=int, default=300)
    p.add_argument(
        "--cache", default=None, metavar="DIR",
        help="serve repeated runs from the service result store at DIR",
    )
    _obs_options(p)
    p.set_defaults(func=cmd_experiment)

    p = sub.add_parser(
        "submit",
        help="run a declarative (sweep) batch job through the service",
    )
    p.add_argument("--circuit", default="array8")
    p.add_argument("--vectors", type=int, default=500)
    p.add_argument("--seed", type=int, default=1995)
    p.add_argument(
        "--delay", default="unit", choices=["unit", "sumcarry", "zero"],
    )
    p.add_argument(
        "--stimulus", default="uniform",
        choices=["uniform", "correlated", "burst"],
    )
    p.add_argument("--flip-probability", type=float, default=0.1)
    p.add_argument("--backend", default="auto", choices=BACKEND_CHOICES)
    p.add_argument(
        "--estimate", action="store_true",
        help="run the analytic estimation backend instead of simulating",
    )
    p.add_argument(
        "--sweep", action="append", metavar="AXIS=V1,V2,...",
        help=(
            "sweep an axis (circuit, delay, n_vectors, seed, estimate) "
            "over values; repeatable, axes combine as a Cartesian "
            "product (estimate=0,1 yields the simulate/estimate pair "
            "per point)"
        ),
    )
    p.add_argument(
        "--cache", default=None, metavar="DIR",
        help="result store directory (enables partial-hit resume)",
    )
    p.add_argument(
        "--jobs", type=int, default=None,
        help="worker processes for cache-missing points",
    )
    p.add_argument(
        "--retries", type=int, default=None, metavar="N",
        help=(
            "retry a crashed/hung/failing point up to N times before "
            "quarantining it (default 2)"
        ),
    )
    p.add_argument(
        "--task-timeout", type=float, default=None, metavar="SECONDS",
        help=(
            "per-point wall-clock limit; a worker past it is killed "
            "and the point retried (default 300)"
        ),
    )
    p.add_argument(
        "--dry-run", action="store_true",
        help="show the hit/miss plan without simulating",
    )
    p.add_argument(
        "--heartbeat", type=float, default=None, metavar="SECONDS",
        help=(
            "print a progress line (done/total, warm-hit ratio, "
            "p50/p99 task latency, ETA) to stderr at most every "
            "SECONDS; 0 prints on every resolved point"
        ),
    )
    _obs_options(p)
    p.set_defaults(func=cmd_submit)

    p = sub.add_parser(
        "trace", help="render or validate a --trace Chrome-trace file"
    )
    p.add_argument("path", help="JSON file written by a --trace run")
    p.add_argument(
        "--validate", action="store_true",
        help="check the file against the trace schema and exit",
    )
    p.add_argument(
        "--min-ms", type=float, default=0.0, metavar="MS",
        help="fold spans shorter than MS out of the tree",
    )
    p.set_defaults(func=cmd_trace)

    p = sub.add_parser(
        "bench",
        help="inspect or diff the committed perf-trajectory ledger",
    )
    p.add_argument(
        "action", choices=["report"],
        help="'report' renders the ledger (or diffs it with --diff)",
    )
    p.add_argument(
        "--file", default="BENCH_sim.json", metavar="PATH",
        help="ledger snapshot to read (default BENCH_sim.json)",
    )
    p.add_argument(
        "--diff", default=None, metavar="REFERENCE.json",
        help=(
            "diff against a reference snapshot and exit non-zero on "
            "any regression past --threshold"
        ),
    )
    p.add_argument(
        "--threshold", type=float, default=0.25,
        help="allowed median regression fraction (default 0.25)",
    )
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("status", help="list batch jobs recorded in a store")
    p.add_argument("--cache", required=True, metavar="DIR")
    p.add_argument("--job", default=None, help="show one job in detail")
    p.set_defaults(func=cmd_status)

    p = sub.add_parser("cache", help="inspect or maintain a result store")
    p.add_argument(
        "action", nargs="?", default=None, choices=["verify", "repair"],
        help=(
            "verify: checksum every entry and report corruption "
            "(exit 1 on problems); repair: drop corrupt entries, "
            "adopt orphaned objects, sweep stale temp files"
        ),
    )
    p.add_argument("--dir", required=True, metavar="DIR")
    p.add_argument("--clear", action="store_true", help="drop all entries")
    p.add_argument(
        "--prune-bytes", type=int, default=None, metavar="N",
        help="evict least-recently-used entries down to N bytes",
    )
    p.add_argument(
        "--limit", type=int, default=10,
        help="entries to list (default 10)",
    )
    p.set_defaults(func=cmd_cache)

    p = sub.add_parser("export", help="dump a circuit as JSON or DOT")
    p.add_argument("--circuit", required=True)
    p.add_argument("--format", default="json", choices=["json", "dot"])
    p.add_argument("--max-cells", type=int, default=2000)
    p.set_defaults(func=cmd_export)

    p = sub.add_parser(
        "balance", help="compare balancing vs retiming on an RCA"
    )
    p.add_argument("--circuit", default="rca12")
    p.add_argument("--vectors", type=int, default=300)
    p.set_defaults(func=cmd_balance)

    def _explore_options(p: argparse.ArgumentParser) -> None:
        p.add_argument("--vectors", type=int, default=120)
        p.add_argument("--seed", type=int, default=1995)
        p.add_argument(
            "--strategy", default="beam",
            choices=["beam", "greedy", "exhaustive"],
            help=(
                "exhaustive simulates every unique candidate; beam/"
                "greedy rank with the analytic estimators and simulate "
                "only the surviving frontier"
            ),
        )
        p.add_argument(
            "--beam-width", type=int, default=4,
            help="candidates expanded per depth in beam search",
        )
        p.add_argument(
            "--max-depth", type=int, default=2,
            help="maximum transform-chain length",
        )
        p.add_argument(
            "--max-stages", type=int, default=2,
            help="largest retime(stages=k) transform in the space",
        )
        p.add_argument(
            "--delay", default="unit", choices=["unit", "sumcarry"],
            help="delay regime candidates are padded for and measured under",
        )
        p.add_argument(
            "--max-area", type=float, default=None, metavar="MM2",
            help="area constraint: candidates above it leave the front",
        )
        p.add_argument(
            "--max-latency", type=int, default=None, metavar="STAGES",
            help="pipeline-latency constraint (extra clock cycles)",
        )
        p.add_argument(
            "--cache", default=None, metavar="DIR",
            help=(
                "result store: candidate sims resume warm, the whole "
                "exploration result is served instantly on re-runs"
            ),
        )
        p.add_argument(
            "--jobs", type=int, default=None,
            help="worker processes for candidate simulations",
        )
        _obs_options(p)

    p = sub.add_parser(
        "explore",
        help="search transform combinations for minimum glitch power",
    )
    p.add_argument("--circuit", required=True)
    _explore_options(p)
    p.set_defaults(func=cmd_explore)

    p = sub.add_parser(
        "import",
        help="load a schema-v1 JSON netlist (inverse of export) and run it",
    )
    p.add_argument("path", help="netlist JSON file (see repro export)")
    p.add_argument(
        "--action", default="analyze",
        choices=["analyze", "estimate", "explore"],
        help="what to run on the imported circuit",
    )
    _explore_options(p)
    p.set_defaults(func=cmd_import)

    return parser


def _finish_observed(args: argparse.Namespace, rec) -> None:
    """Persist the observability artifacts of an instrumented run.

    Called after the recorder is disarmed so the export itself is not
    traced.  Writes the Chrome-trace file (``--trace``), prints the
    counter table (``--metrics``) and — whenever the run had a result
    store — drops a manifest next to the job records in
    ``<cache>/manifests``.
    """
    from repro.obs import trace as obs
    from repro.obs.manifest import build_manifest, write_manifest

    trace_path = getattr(args, "trace", None)
    if trace_path:
        obs.write_chrome_trace(trace_path, rec.events)
        print(f"[trace] {len(rec.events)} event(s) -> {trace_path}")
    log_path = getattr(args, "log", None)
    if log_path:
        print(f"[log] events appended to {log_path}")
    if getattr(args, "metrics", False):
        table = rec.metrics.format_table()
        if table:
            print(table)
        else:
            print("[metrics] no counters recorded")
    cache = getattr(args, "cache", None)
    if cache is not None:
        manifest = build_manifest(
            rec,
            command=args.command,
            backend=getattr(args, "backend", None),
            seed=getattr(args, "seed", None),
        )
        path = write_manifest(os.path.join(cache, "manifests"), manifest)
        print(f"[manifest] {path}")


def main(argv: Sequence[str] | None = None) -> int:
    args = make_parser().parse_args(argv)
    try:
        status = _run(args)
        sys.stdout.flush()
        return status
    except BrokenPipeError:
        # The reader closed stdout early (``repro export ... | head``):
        # keep the interpreter's exit flush quiet, report it in the status.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


def _run(args: argparse.Namespace) -> int:
    observed = (
        getattr(args, "trace", None)
        or getattr(args, "metrics", False)
        or getattr(args, "log", None)
        or getattr(args, "sample", None) is not None
    )
    if observed:
        from repro.obs import trace as obs
        from repro.obs.sampler import ResourceSampler

        rec = obs.enable()
        log_path = getattr(args, "log", None)
        if log_path:
            from repro.obs import log as obs_log

            obs_log.enable(log_path)
        sample_hz = getattr(args, "sample", None)
        sampler = None
        if sample_hz is not None and sample_hz > 0:
            sampler = ResourceSampler(
                interval_s=1.0 / sample_hz, recorder=rec
            )
            sampler.start()
        try:
            return args.func(args)
        finally:
            if sampler is not None:
                sampler.stop()
            obs.disable()  # also closes the event log, if armed
            _finish_observed(args, rec)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
