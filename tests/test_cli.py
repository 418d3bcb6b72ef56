"""Tests for the command-line front end."""

import json
import os
import re
import subprocess
import sys

import pytest

import repro
from repro.cli import build_named_circuit, main


def _run_cli(args, **streams):
    """Run ``python -m repro.cli *args`` in a fresh interpreter.

    Output is captured unless *streams* redirects it (``stdout=...``).
    """
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, "-m", "repro.cli", *args],
        text=True, env=env, timeout=120,
        **(streams or {"capture_output": True}),
    )


def _assert_one_line_error(proc, message):
    """*proc* failed with exactly *message* on stderr and no traceback."""
    assert proc.returncode != 0
    assert proc.stderr.strip() == message
    assert "Traceback" not in proc.stderr + proc.stdout


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
        base = ["analyze", "--circuit", "rca4", "--vectors", "5"]
        with pytest.raises(SystemExit, match="event-driven"):
            main(base + ["--backend", "lanes", "--vcd", "/tmp/never.vcd"])
        # No settled mode where events are recorded: one line, no
        # traceback.
        for extra, match in (
            (["--backend", "event"], "event-driven engine has none"),
            (["--vcd", "/tmp/never.vcd"], "--delay zero does not simulate"),
        ):
            with pytest.raises(SystemExit, match=match) as exc:
                main(base + ["--delay", "zero"] + extra)
            assert "\n" not in str(exc.value)

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


class TestNegativeVectors:
    """A negative ``--vectors`` or ``n_vectors`` sweep value is refused
    up front: a one-line error, no traceback, nothing stored."""

    @pytest.mark.parametrize(
        "args",
        [
            ["analyze", "--circuit", "rca4", "--vectors", "-1"],
            ["analyze", "--circuit", "rca4", "--vectors", "-1", "--cache"],
            ["experiment", "fig5", "--vectors", "-5"],
            ["submit", "--circuit", "rca4", "--vectors", "-3", "--cache"],
        ],
        ids=["analyze", "analyze-cache", "experiment", "submit"],
    )
    def test_vectors_option_rejected(self, args, tmp_path):
        cache = tmp_path / "store"
        args = args + [str(cache)] if args[-1] == "--cache" else args
        proc = _run_cli(args)
        assert proc.returncode == 2
        value = args[args.index("--vectors") + 1]
        assert proc.stderr.splitlines()[-1] == (
            f"repro {args[0]}: error: argument --vectors: "
            f"must be >= 0, got {value}"
        )
        assert "Traceback" not in proc.stderr + proc.stdout
        assert not cache.exists()

    def test_submit_sweep_value_rejected(self, tmp_path):
        from repro.service.store import ResultStore

        proc = _run_cli([
            "submit", "--circuit", "rca4", "--sweep", "n_vectors=20,-2",
            "--cache", str(tmp_path),
        ])
        _assert_one_line_error(proc, "n_vectors must be >= 0, got -2")
        assert len(ResultStore(tmp_path)) == 0

    def test_non_integer_keeps_the_int_message(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["analyze", "--circuit", "rca4", "--vectors", "abc"])
        assert exc.value.code == 2
        assert capsys.readouterr().err.splitlines()[-1] == (
            "repro analyze: error: argument --vectors: invalid int value: 'abc'"
        )

    def test_prune_bytes_rejected(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["cache", "--dir", str(tmp_path), "--prune-bytes", "-1"])
        assert exc.value.code == 2
        assert capsys.readouterr().err.splitlines()[-1] == (
            "repro cache: error: argument --prune-bytes: must be >= 0, got -1"
        )

    def test_zero_vectors_still_accepted(self):
        assert main(["analyze", "--circuit", "rca4", "--vectors", "0"]) == 0


class TestManifestRunId:
    def test_manifest_names_the_logged_run(self, tmp_path):
        cache, log = tmp_path / "store", tmp_path / "events.jsonl"
        proc = _run_cli([
            "experiment", "fig5", "--vectors", "20",
            "--cache", str(cache), "--log", str(log),
        ])
        assert proc.returncode == 0, proc.stderr
        [name] = os.listdir(cache / "manifests")
        run_id = json.loads((cache / "manifests" / name).read_text())["run_id"]
        lines = [json.loads(x) for x in log.read_text().splitlines()]
        assert run_id is not None and lines
        assert {e["run_id"] for e in lines} == {run_id}


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

    def test_cache_verify_and_repair(self, tmp_path, capsys):
        from repro.service.store import ResultStore

        cache = str(tmp_path)
        for n in ("10", "20"):
            assert main([
                "analyze", "--circuit", "rca4", "--vectors", n, "--cache", cache,
            ]) == 0
        capsys.readouterr()
        assert main(["cache", "verify", "--dir", cache]) == 0
        assert capsys.readouterr().out == "2/2 entrie(s) ok, 0 problem(s)\n"
        # Damage: flip a digit in one object, leave an orphan object
        # (a copy of the other) and a temp file of a dead writer.
        first, second = (
            tmp_path / "objects" / f"{e['digest']}.json"
            for e in ResultStore(cache).entries()
        )
        data = first.read_text()
        pos = data.index('"cycles": ') + len('"cycles": ')
        first.write_text(data[:pos] + "9" + data[pos + 1:])
        (tmp_path / "objects" / "feedfacecafe.json").write_text(second.read_text())
        (tmp_path / ".index.jsonl.zzz.tmp").write_text("junk")
        assert main(["cache", "verify", "--dir", cache]) == 1
        out = capsys.readouterr().out
        assert out.startswith("1/2 entrie(s) ok, 2 problem(s)\n")
        rows = [line.split("|")[1].strip() for line in out.splitlines() if "|" in line]
        assert rows == ["kind", "checksum-mismatch", "orphan-object"]
        # Opening the store swept the temp file before the scan ran.
        assert not (tmp_path / ".index.jsonl.zzz.tmp").exists()
        assert main(["cache", "repair", "--dir", cache]) == 0
        assert capsys.readouterr().out == (
            "dropped 1 corrupt entrie(s), adopted 1 orphan object(s), deleted "
            "0 unparseable orphan(s), swept 0 stale tmp file(s) "
            "(2 problem(s) found)\n"
            "2/2 entrie(s) ok after repair\n"
        )
        assert main(["cache", "verify", "--dir", cache]) == 0
        assert capsys.readouterr().out == "2/2 entrie(s) ok, 0 problem(s)\n"

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

    def test_flip_probability_defaults_for_correlated(self, capsys):
        assert main([
            "estimate", "--circuit", "rca4", "--stimulus", "correlated",
        ]) == 0
        assert "correlated(flip_probability=0.1, seed=1995)" in (
            capsys.readouterr().out
        )

    @pytest.mark.parametrize("command,stimulus", [
        (["submit", "--circuit", "rca4", "--vectors", "5"], "uniform"),
        (["estimate", "--circuit", "rca4", "--stimulus", "burst"], "burst"),
    ], ids=["submit", "estimate"])
    def test_flip_probability_needs_correlated(self, command, stimulus):
        proc = _run_cli([*command, "--flip-probability", "0.3"])
        _assert_one_line_error(
            proc,
            "--flip-probability applies only to --stimulus correlated, "
            f"not {stimulus!r}; drop it or use --stimulus correlated",
        )

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
            "--backend", "lanes", "--delay", "zero", "--estimate",
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

    def test_max_depth_zero_is_a_one_line_error(self):
        """``--max-depth 0`` exits like ``--beam-width 0``: non-zero,
        with the space's own message and no traceback."""
        _assert_one_line_error(
            _run_cli(["explore", "--circuit", "rca4", "--max-depth", "0"]),
            "max_depth must be >= 1",
        )


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

    def test_import_explore_max_depth_zero_is_a_one_line_error(
        self, tmp_path
    ):
        path = self._export(tmp_path)
        _assert_one_line_error(
            _run_cli([
                "import", str(path), "--action", "explore",
                "--max-depth", "0",
            ]),
            "max_depth must be >= 1",
        )

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

    def test_import_rejects_a_delay_hint_in_one_line(self, tmp_path):
        path = self._export(tmp_path)
        doc = json.loads(path.read_text())
        doc["cells"][2]["delay_hint"] = [3]
        path.write_text(json.dumps(doc))
        _assert_one_line_error(
            _run_cli(["import", str(path), "--vectors", "10"]),
            f"{path} is not a schema-v1 netlist: cell "
            f"{doc['cells'][2]['name']!r} carries a delay_hint; a netlist "
            "holds no delays, the delay model times every cell (--delay)",
        )

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

    def test_import_estimate_one_input_gate(self, tmp_path):
        """``y = AND(XOR(a, b))``: a one-input AND is a legal cell, and
        its density is its input's (the empty product is 1.0)."""
        from repro.core.report import format_table
        from repro.estimate.reference import (
            switching_activity_reference,
            transition_densities_reference,
        )
        from repro.estimate.workload import summarize_rates
        from repro.netlist.cells import CellKind
        from repro.netlist.circuit import Circuit
        from repro.netlist.io import circuit_to_json

        c = Circuit("and1")
        a, b = c.add_input("a"), c.add_input("b")
        x = c.gate(CellKind.XOR, a, b, name="x")
        y = c.gate(CellKind.AND, x, name="y")
        c.mark_output(y, "out")
        path = tmp_path / "and1.json"
        path.write_text(circuit_to_json(c))
        proc = _run_cli(["import", str(path), "--action", "estimate"])
        assert proc.returncode == 0, proc.stderr
        useful = switching_activity_reference(c, 0.5)
        total = transition_densities_reference(c, 0.5)
        expected = summarize_rates(
            2, useful[x] + useful[y], total[x] + total[y]
        )
        assert format_table(
            ["metric", "value"], [[k, v] for k, v in expected.items()]
        ) in proc.stdout


class TestBrokenPipe:
    """A reader that closes stdout early gets no traceback."""

    def _into_closed_pipe(self, args):
        read_end, write_end = os.pipe()
        os.close(read_end)  # gone before the command writes a byte
        try:
            return _run_cli(args, stdout=write_end, stderr=subprocess.PIPE)
        finally:
            os.close(write_end)

    def test_export(self):
        proc = self._into_closed_pipe(["export", "--circuit", "array16"])
        assert proc.returncode != 0
        assert "Traceback" not in proc.stderr
        assert "BrokenPipeError" not in proc.stderr

    def test_trace_file(self, tmp_path, capsys):
        trace_path = tmp_path / "t.json"
        assert main([
            "analyze", "--circuit", "rca8", "--vectors", "20",
            "--backend", "event", "--trace", str(trace_path),
        ]) == 0
        capsys.readouterr()
        proc = self._into_closed_pipe(["trace", str(trace_path)])
        assert proc.returncode != 0
        assert "Traceback" not in proc.stderr
        assert "BrokenPipeError" not in proc.stderr


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

    @pytest.mark.parametrize("name", [
        "waveform", "wave", "codegen", "bitparallel", "bit-parallel", "batch",
    ])
    def test_retired_names_rejected_by_argparse(self, name, capsys):
        """A former engine alias is a usage error on both commands that
        take ``--backend``: one name per engine, and ``--delay zero``
        is the one spelling of the settled mode."""
        for command in ("analyze", "submit"):
            with pytest.raises(SystemExit) as exc:
                main([command, "--circuit", "rca4", "--backend", name])
            assert exc.value.code == 2
            err = capsys.readouterr().err
            assert "invalid choice" in err
            offered = re.search(r"choose from (.*)\)", err).group(1)
            assert offered.replace("'", "").split(", ") == [
                "auto", "event", "lanes", "vector",
            ]

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

    def test_delay_zero_is_the_settled_mode(self, capsys):
        """``--delay zero`` on each batch engine counts the unit run's
        useful transitions."""
        from repro.sim.vector import numpy_available

        args = ["analyze", "--circuit", "rca6", "--vectors", "40"]

        def count(out, metric):
            value = re.search(rf"{metric} \| +([\d,]+)", out).group(1)
            return int(value.replace(",", ""))

        assert main(args) == 0
        useful = count(capsys.readouterr().out, "useful")
        for backend in ["lanes"] + (["vector"] if numpy_available() else []):
            assert main(args + ["--delay", "zero", "--backend", backend]) == 0
            out = capsys.readouterr().out
            assert "zero delay" in out and f"({backend})" not in out
            assert count(out, "total") == useful
            assert count(out, "useless") == 0

    def test_settled_output_is_the_same_on_every_engine(self, capsys, tmp_path):
        """The settled title is the delay model's: ``--delay zero``
        prints the same bytes on ``auto`` as on ``lanes``, and a result
        that ``lanes`` stored reads the same when ``auto`` is served it."""
        args = ["analyze", "--circuit", "rca6", "--vectors", "40", "--delay", "zero"]
        assert main(args + ["--backend", "lanes"]) == 0
        lanes = capsys.readouterr().out
        assert main(args) == 0
        assert capsys.readouterr().out == lanes
        cache = ["--cache", str(tmp_path)]
        outs = []
        for backend in (["--backend", "lanes"], []):
            assert main(args + backend + cache) == 0
            outs.append(capsys.readouterr().out.split("\n", 1))
        assert [status for status, _ in outs] == [
            f"[cache] simulated: {tmp_path}", f"[cache] cache: {tmp_path}",
        ]
        assert [rest for _, rest in outs] == [lanes, lanes]


class TestDocumentedDefaults:
    def test_auto_is_the_default_backend(self, monkeypatch):
        """README: ``backend="auto"`` is the default, and resolves to
        the pure-Python lanes engine when numpy is absent."""
        import inspect

        from repro.cli import make_parser
        from repro.core.activity import ActivityRun
        from repro.sim.backends import select_backend

        signature = inspect.signature(ActivityRun)
        assert signature.parameters["backend"].default == "auto"
        args = make_parser().parse_args(["analyze", "--circuit", "rca4"])
        assert args.backend == "auto"
        monkeypatch.setattr(
            "repro.sim.vector._NUMPY_ERROR",
            "numpy is not installed (simulated by test)",
        )
        assert select_backend() == "lanes"

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

    def test_choice_lists_match_the_registries(self):
        """The literal ``--backend`` and ``--delay`` lists name what the
        engine and delay registries hold."""
        from repro.cli import BACKEND_CHOICES
        from repro.sim.backends import BACKENDS
        from repro.sim.delays import DELAY_MODELS

        assert BACKEND_CHOICES == ["auto", *BACKENDS]
        for command in ("analyze", "submit"):
            assert self._option(command, "--backend").choices == (
                BACKEND_CHOICES
            )
            delay = self._option(command, "--delay")
            assert delay.choices == list(DELAY_MODELS)
            assert delay.default == "unit"
        for command in ("explore", "import"):
            assert self._option(command, "--delay").choices == [
                name for name in DELAY_MODELS if name != "zero"
            ]

    def test_retry_policy_matches_submit_help(self):
        """``submit --retries`` says "default 2" (three attempts in
        all) and ``--task-timeout`` says "default 300"."""
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
