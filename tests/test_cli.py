"""Tests for the command-line front end."""

import json

import pytest

from repro.cli import build_named_circuit, main


class TestBuildNamedCircuit:
    def test_rca(self):
        circuit, stim = build_named_circuit("rca8")
        assert len(circuit.inputs) == 16
        assert set(stim.words) == {"a", "b"}

    def test_multipliers(self):
        for name, words in (("array4", {"x", "y"}), ("wallace4", {"x", "y"})):
            circuit, stim = build_named_circuit(name)
            assert set(stim.words) == words

    def test_detector(self):
        circuit, stim = build_named_circuit("detector")
        assert len(stim.words) == 6

    @pytest.mark.parametrize("bad", ["rcaX", "rca0", "rca99", "nonsense"])
    def test_bad_names(self, bad):
        with pytest.raises(SystemExit):
            build_named_circuit(bad)


class TestCommands:
    def test_analyze(self, capsys):
        assert main(["analyze", "--circuit", "rca8", "--vectors", "50"]) == 0
        out = capsys.readouterr().out
        assert "L/F" in out and "useless" in out

    def test_analyze_sumcarry_delay(self, capsys):
        assert (
            main(
                [
                    "analyze", "--circuit", "array4", "--vectors", "30",
                    "--delay", "sumcarry",
                ]
            )
            == 0
        )
        assert "dsum=2" in capsys.readouterr().out

    def test_analyze_backends_agree_bit_exactly(self, capsys):
        outputs = []
        for backend in ("event", "lanes", "auto"):
            assert (
                main(
                    [
                        "analyze", "--circuit", "array4", "--vectors", "40",
                        "--backend", backend,
                    ]
                )
                == 0
            )
            # The banner names the delay model, not the engine, so the
            # whole table must be identical across exact backends.
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1] == outputs[2]

    def test_analyze_vcd_via_auto(self, capsys, tmp_path):
        vcd = tmp_path / "out.vcd"
        assert (
            main(
                [
                    "analyze", "--circuit", "rca4", "--vectors", "10",
                    "--backend", "auto", "--vcd", str(vcd),
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "wrote 10 cycles" in out and "L/F" in out
        assert vcd.read_text().startswith("$date")

    def test_analyze_vcd_rejects_batch_backends(self):
        for backend in ("lanes", "bitparallel"):
            with pytest.raises(SystemExit, match="event-driven"):
                main(
                    [
                        "analyze", "--circuit", "rca4", "--vectors", "5",
                        "--backend", backend, "--vcd", "/tmp/never.vcd",
                    ]
                )

    def test_analyze_vcd_rejects_shards(self):
        with pytest.raises(SystemExit, match="shards"):
            main(
                [
                    "analyze", "--circuit", "rca4", "--vectors", "5",
                    "--shards", "2", "--vcd", "/tmp/never.vcd",
                ]
            )

    def test_experiment_table1(self, capsys):
        assert main(["experiment", "table1", "--vectors", "30"]) == 0
        out = capsys.readouterr().out
        assert "wallace" in out

    def test_experiment_sec42(self, capsys):
        assert main(["experiment", "sec42", "--vectors", "40"]) == 0
        out = capsys.readouterr().out
        assert "paper" in out

    def test_experiment_adders(self, capsys):
        assert main(["experiment", "adders", "--vectors", "30"]) == 0
        assert "kogge-stone" in capsys.readouterr().out

    def test_experiment_unknown(self):
        with pytest.raises(SystemExit):
            main(["experiment", "does-not-exist"])

    def test_export_json_parses(self, capsys):
        assert main(["export", "--circuit", "rca4"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["name"] == "rca4"

    def test_export_dot(self, capsys):
        assert main(["export", "--circuit", "rca4", "--format", "dot"]) == 0
        assert capsys.readouterr().out.startswith("digraph")

    def test_balance(self, capsys):
        assert main(["balance", "--circuit", "rca8", "--vectors", "60"]) == 0
        out = capsys.readouterr().out
        assert "balanced" in out and "pipelined" in out

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            main([])


class TestServiceCommands:
    def test_analyze_cache_warm_output_matches_cold(self, tmp_path, capsys):
        args = [
            "analyze", "--circuit", "rca6", "--vectors", "40",
            "--cache", str(tmp_path),
        ]
        assert main(args) == 0
        cold = capsys.readouterr().out
        assert main(args) == 0
        warm = capsys.readouterr().out
        assert "[cache] simulated" in cold
        assert "[cache] cache" in warm
        # Everything below the cache banner is byte-identical.
        assert cold.split("\n", 1)[1] == warm.split("\n", 1)[1]

    def test_analyze_cache_matches_uncached(self, tmp_path, capsys):
        cached = [
            "analyze", "--circuit", "rca6", "--vectors", "40",
            "--cache", str(tmp_path),
        ]
        assert main(cached) == 0
        cached_out = capsys.readouterr().out.split("\n", 1)[1]
        assert main(cached[:-2]) == 0
        assert capsys.readouterr().out == cached_out

    def test_experiment_cache_reports_hits(self, tmp_path, capsys):
        args = [
            "experiment", "table2", "--vectors", "30",
            "--cache", str(tmp_path),
        ]
        assert main(args) == 0
        assert "0 hit(s), 4 miss(es)" in capsys.readouterr().out
        assert main(args) == 0
        assert "4 hit(s), 0 miss(es)" in capsys.readouterr().out

    def test_submit_status_cache_flow(self, tmp_path, capsys):
        cache = str(tmp_path)
        assert main([
            "submit", "--circuit", "rca4", "--vectors", "20",
            "--sweep", "circuit=rca4,rca6", "--cache", cache,
        ]) == 0
        first = capsys.readouterr().out
        assert "0 hit(s), 2 computed" in first
        assert main([
            "submit", "--circuit", "rca4", "--vectors", "20",
            "--sweep", "circuit=rca4,rca6,rca8", "--cache", cache,
        ]) == 0
        assert "2 hit(s), 1 computed" in capsys.readouterr().out
        assert main(["status", "--cache", cache]) == 0
        out = capsys.readouterr().out
        assert "job-0000" in out and "job-0001" in out
        assert main(["cache", "--dir", cache]) == 0
        out = capsys.readouterr().out
        assert "entries" in out and "glitch-exact" in out

    def test_submit_dry_run_simulates_nothing(self, tmp_path, capsys):
        from repro.service.store import ResultStore

        cache = str(tmp_path)
        assert main([
            "submit", "--circuit", "rca4", "--vectors", "20",
            "--dry-run", "--cache", cache,
        ]) == 0
        assert "to simulate" in capsys.readouterr().out
        assert len(ResultStore(cache)) == 0

    def test_submit_bad_sweep(self, tmp_path):
        with pytest.raises(SystemExit):
            main([
                "submit", "--sweep", "bogus-axis", "--cache", str(tmp_path),
            ])
        with pytest.raises(SystemExit):
            main([
                "submit", "--sweep", "n_vectors=ten", "--cache", str(tmp_path),
            ])

    def test_cache_clear(self, tmp_path, capsys):
        cache = str(tmp_path)
        assert main([
            "analyze", "--circuit", "rca4", "--vectors", "10",
            "--cache", cache,
        ]) == 0
        capsys.readouterr()
        assert main(["cache", "--dir", cache, "--clear"]) == 0
        assert "cleared 1" in capsys.readouterr().out

    def test_status_unknown_job(self, tmp_path):
        with pytest.raises(SystemExit, match="no job"):
            main(["status", "--cache", str(tmp_path), "--job", "nope"])

    def test_vcd_rejects_cache(self, tmp_path):
        with pytest.raises(SystemExit, match="drop --cache"):
            main([
                "analyze", "--circuit", "rca4", "--vectors", "5",
                "--vcd", str(tmp_path / "x.vcd"), "--cache", str(tmp_path),
            ])

    def test_cache_limit_zero_lists_nothing(self, tmp_path, capsys):
        cache = str(tmp_path)
        assert main([
            "analyze", "--circuit", "rca4", "--vectors", "10",
            "--cache", cache,
        ]) == 0
        capsys.readouterr()
        assert main(["cache", "--dir", cache, "--limit", "0"]) == 0
        assert "most recent" not in capsys.readouterr().out


class TestEstimateCommands:
    def test_estimate_basic(self, capsys):
        assert main(["estimate", "--circuit", "array4"]) == 0
        out = capsys.readouterr().out
        assert "analytic estimate" in out
        assert "FA.sum" in out and "FA.carry" in out
        assert "net class" in out

    def test_estimate_stimulus_aware(self, capsys):
        assert main([
            "estimate", "--circuit", "rca8",
            "--stimulus", "correlated", "--flip-probability", "0.1",
        ]) == 0
        out = capsys.readouterr().out
        assert "correlated" in out and "D=0.1" in out

    def test_estimate_cache_warm(self, tmp_path, capsys):
        args = ["estimate", "--circuit", "rca8", "--cache", str(tmp_path)]
        assert main(args) == 0
        cold = capsys.readouterr().out
        assert "[estimate cache] estimated" in cold
        assert main(args) == 0
        warm = capsys.readouterr().out
        assert "[estimate cache] cache" in warm
        assert cold.split("\n", 1)[1] == warm.split("\n", 1)[1]

    def test_estimate_cache_shared_across_seeds(self, tmp_path, capsys):
        cache = str(tmp_path)
        assert main([
            "estimate", "--circuit", "rca8", "--seed", "1", "--cache", cache,
        ]) == 0
        capsys.readouterr()
        assert main([
            "estimate", "--circuit", "rca8", "--seed", "2", "--cache", cache,
        ]) == 0
        assert "[estimate cache] cache" in capsys.readouterr().out

    def test_estimate_bad_circuit(self):
        with pytest.raises(SystemExit):
            main(["estimate", "--circuit", "nonsense"])

    def test_analyze_estimate_comparison(self, capsys):
        assert main([
            "analyze", "--circuit", "rca8", "--vectors", "50", "--estimate",
        ]) == 0
        out = capsys.readouterr().out
        assert "simulated" in out and "estimated" in out
        assert "useful/cycle" in out and "total/cycle" in out

    def test_analyze_estimate_bitparallel_labelled_honestly(self, capsys):
        """The zero-delay engine counts useful-only totals; the
        comparison table must not call that 'glitch-exact'."""
        assert main([
            "analyze", "--circuit", "rca8", "--vectors", "50",
            "--backend", "bitparallel", "--estimate",
        ]) == 0
        out = capsys.readouterr().out
        assert "useful-only totals" in out
        assert "glitch-exact" not in out
        assert main([
            "analyze", "--circuit", "rca8", "--vectors", "50",
            "--backend", "lanes", "--estimate",
        ]) == 0
        assert "glitch-exact simulation" in capsys.readouterr().out

    def test_analyze_estimate_with_cache(self, tmp_path, capsys):
        args = [
            "analyze", "--circuit", "rca6", "--vectors", "30",
            "--estimate", "--cache", str(tmp_path),
        ]
        assert main(args) == 0
        capsys.readouterr()
        assert main(args) == 0
        warm = capsys.readouterr().out
        assert "[cache] cache" in warm
        assert "[estimate cache] cache" in warm

    def test_experiment_ablation(self, capsys):
        assert main(["experiment", "ablation", "--vectors", "30"]) == 0
        out = capsys.readouterr().out
        assert "estimate/simulate gap" in out
        assert "total/zero-delay" in out
        assert "array8" in out

    def test_submit_estimate_sweep(self, tmp_path, capsys):
        cache = str(tmp_path)
        assert main([
            "submit", "--circuit", "rca4", "--vectors", "20",
            "--sweep", "estimate=0,1", "--cache", cache,
        ]) == 0
        out = capsys.readouterr().out
        assert "0 hit(s), 2 computed" in out
        assert "estimate" in out
        assert main(["cache", "--dir", cache]) == 0
        assert "estimate" in capsys.readouterr().out


class TestExploreCommand:
    def test_explore_smoke(self, capsys):
        assert main([
            "explore", "--circuit", "rca4", "--vectors", "30",
        ]) == 0
        out = capsys.readouterr().out
        assert "Pareto front" in out
        assert "original" in out
        assert "rank agreement" in out

    def test_explore_exhaustive(self, capsys):
        assert main([
            "explore", "--circuit", "rca4", "--vectors", "30",
            "--strategy", "exhaustive",
        ]) == 0
        assert "exhaustive search" in capsys.readouterr().out

    def test_explore_cache_warm(self, tmp_path, capsys):
        args = [
            "explore", "--circuit", "rca4", "--vectors", "30",
            "--cache", str(tmp_path),
        ]
        assert main(args) == 0
        capsys.readouterr()
        assert main(args) == 0
        out = capsys.readouterr().out
        assert "1 hit(s), 0 miss(es)" in out

    def test_explore_empty_front_fails(self, tmp_path):
        with pytest.raises(SystemExit, match="empty front"):
            main([
                "explore", "--circuit", "rca4", "--vectors", "20",
                "--max-area", "0.0001",
            ])

    def test_explore_bad_circuit(self):
        with pytest.raises(SystemExit):
            main(["explore", "--circuit", "nonsense"])


class TestImportCommand:
    def _export(self, tmp_path, name="rca4"):
        from repro.circuits.catalog import build_named_circuit as build
        from repro.netlist.io import circuit_to_json

        circuit, _ = build(name)
        path = tmp_path / f"{name}.json"
        path.write_text(circuit_to_json(circuit))
        return path

    def test_import_analyze_matches_native_analyze(self, tmp_path, capsys):
        path = self._export(tmp_path)
        assert main(["import", str(path), "--vectors", "40"]) == 0
        imported = capsys.readouterr().out
        assert main(["analyze", "--circuit", "rca4", "--vectors", "40"]) == 0
        native = capsys.readouterr().out
        # Same counts line for line: the derived word stimulus replays
        # the catalog stream exactly.
        for metric in ("total", "useful", "useless"):
            line_i = [ln for ln in imported.splitlines() if metric in ln]
            line_n = [ln for ln in native.splitlines() if metric in ln]
            assert line_i and line_i[0].split("|")[-1] == line_n[0].split("|")[-1]

    def test_import_estimate(self, tmp_path, capsys):
        path = self._export(tmp_path)
        assert main(["import", str(path), "--action", "estimate"]) == 0
        out = capsys.readouterr().out
        assert "analytic estimate" in out and "imported" in out

    def test_import_explore(self, tmp_path, capsys):
        path = self._export(tmp_path)
        assert main([
            "import", str(path), "--action", "explore", "--vectors", "20",
        ]) == 0
        assert "Pareto front" in capsys.readouterr().out

    def test_import_missing_file(self, tmp_path):
        with pytest.raises(SystemExit, match="cannot read"):
            main(["import", str(tmp_path / "nope.json")])

    def test_import_rejects_garbage(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{\"schema\": 99}")
        with pytest.raises(SystemExit, match="schema"):
            main(["import", str(path)])
        path.write_text("not json at all")
        with pytest.raises(SystemExit, match="not a schema-v1"):
            main(["import", str(path)])

    def test_import_rejects_inputless_netlist(self, tmp_path):
        import json as _json

        doc = {
            "schema": 1, "name": "empty", "nets": [], "inputs": [],
            "outputs": [], "cells": [],
        }
        path = tmp_path / "empty.json"
        path.write_text(_json.dumps(doc))
        with pytest.raises(SystemExit, match="no primary inputs"):
            main(["import", str(path)])

    def test_import_with_cache(self, tmp_path, capsys):
        path = self._export(tmp_path)
        cache = tmp_path / "cache"
        args = ["import", str(path), "--vectors", "30", "--cache", str(cache)]
        assert main(args) == 0
        capsys.readouterr()
        assert main(args) == 0
        assert "[cache] cache" in capsys.readouterr().out


class TestFrontierExperiment:
    def test_frontier_smoke(self, capsys):
        assert main(["experiment", "frontier", "--vectors", "25"]) == 0
        out = capsys.readouterr().out
        assert "Frontier discovery" in out
        assert "bound" in out
        assert "array8" in out


class TestBackendSelection:
    """--backend validation: unknown names and unavailable engines."""

    def test_unknown_backend_rejected_by_argparse(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["analyze", "--circuit", "rca4", "--backend", "quantum"])
        assert exc.value.code == 2  # argparse usage error
        assert "invalid choice" in capsys.readouterr().err

    def test_unknown_backend_rejected_on_submit(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["submit", "--circuit", "rca4", "--backend", "quantum"])
        assert exc.value.code == 2
        assert "invalid choice" in capsys.readouterr().err

    def test_unavailable_backend_one_line_error(self, monkeypatch):
        """A known-but-unavailable engine exits with a clear one-liner
        naming the engines that *can* run."""
        monkeypatch.setattr(
            "repro.sim.vector._NUMPY_ERROR",
            "numpy is not installed (simulated by test)",
        )
        with pytest.raises(SystemExit) as exc:
            main(["analyze", "--circuit", "rca4", "--vectors", "5",
                  "--backend", "vector"])
        message = str(exc.value)
        assert "\n" not in message
        assert "'vector' backend is unavailable" in message
        assert "available backends:" in message
        for name in ("event", "lanes"):
            assert name in message

    def test_auto_degrades_without_numpy(self, monkeypatch, capsys):
        monkeypatch.setattr(
            "repro.sim.vector._NUMPY_ERROR",
            "numpy is not installed (simulated by test)",
        )
        assert main(["analyze", "--circuit", "rca4", "--vectors", "10",
                     "--backend", "auto"]) == 0
        assert "L/F" in capsys.readouterr().out

    def test_codegen_tiers_agree_with_event_via_cli(self, capsys):
        from repro.sim.vector import numpy_available

        backends = ["event", "lanes"]
        if numpy_available():
            backends.append("vector")
        outputs = []
        for backend in backends:
            assert main(["analyze", "--circuit", "array4", "--vectors",
                         "40", "--backend", backend]) == 0
            outputs.append(capsys.readouterr().out)
        for other in outputs[1:]:
            assert other == outputs[0]

    @pytest.mark.parametrize("name", [
        "waveform", "wave", "codegen", "bitparallel", "bit-parallel", "batch",
    ])
    def test_retired_names_resolve_to_lanes(self, name, capsys):
        """A retired engine name prints exactly what lanes prints in
        its documented mode (the bit-parallel names: zero delay)."""
        args = ["analyze", "--circuit", "rca6", "--vectors", "40"]
        assert main(args + ["--backend", name]) == 0
        out = capsys.readouterr().out
        if name in ("bitparallel", "bit-parallel", "batch"):
            assert "zero delay (lanes)" in out
            assert main(args + ["--backend", "bitparallel"]) == 0
        else:
            assert main(args + ["--backend", "lanes"]) == 0
        assert out == capsys.readouterr().out


class TestDocumentedDefaults:
    def test_auto_is_the_default_backend(self, monkeypatch):
        """README: ``backend="auto"`` is the default, and resolves to
        the pure-Python lanes engine when numpy is absent."""
        import inspect

        from repro.cli import make_parser
        from repro.core.activity import ActivityRun
        from repro.sim.backends import select_backend
        from repro.sim.delays import ZeroDelay

        signature = inspect.signature(ActivityRun)
        assert signature.parameters["backend"].default == "auto"
        args = make_parser().parse_args(["analyze", "--circuit", "rca4"])
        assert args.backend == "auto"
        monkeypatch.setattr(
            "repro.sim.vector._NUMPY_ERROR",
            "numpy is not installed (simulated by test)",
        )
        assert select_backend() == "lanes"
        assert select_backend(ZeroDelay()) == "lanes"

    @staticmethod
    def _option(command, flag):
        import argparse

        from repro.cli import make_parser

        sub = next(
            a for a in make_parser()._actions
            if isinstance(a, argparse._SubParsersAction)
        )
        return next(
            a for a in sub.choices[command]._actions
            if flag in a.option_strings
        )

    def test_retry_policy_matches_submit_help(self):
        """``submit --retries`` says "default 2" (three attempts in
        all) and ``--task-timeout`` says "default 300"."""
        import re

        from repro.service.pool import RetryPolicy

        policy = RetryPolicy()
        assert policy.max_attempts == 3
        assert policy.timeout_s == 300.0
        retries = self._option("submit", "--retries").help
        timeout = self._option("submit", "--task-timeout").help
        assert int(re.search(r"default (\d+)", retries).group(1)) == (
            policy.max_attempts - 1
        )
        assert float(re.search(r"default (\d+)", timeout).group(1)) == (
            policy.timeout_s
        )

    def test_bench_gate_threshold_is_25_percent(self):
        """README: ``bench report --diff`` flags regressions past
        ``--threshold``, default 25%."""
        import inspect

        from repro.cli import make_parser
        from repro.obs.ledger import format_diff

        args = make_parser().parse_args(["bench", "report"])
        assert args.threshold == 0.25
        assert inspect.signature(format_diff).parameters[
            "threshold"
        ].default == 0.25
