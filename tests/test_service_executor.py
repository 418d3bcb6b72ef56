"""The one cached-work executor (:func:`repro.service.runner.execute`).

Its batch callers (the scheduler, explore's circuit tasks) are covered
by ``test_service_jobs.py`` and the chaos suite; here: the executor's
own plan, the single-run callers' semantics, and that work without a
store neither fingerprints for the cache nor serializes anything.
"""

import sys

import pytest

from repro.circuits.catalog import build_named_circuit
from repro.service import runner
from repro.service.runner import cached_run, execute
from repro.service.store import ResultStore, RunKey
from repro.sim.vectors import UniformStimulus


def _key(name):
    return RunKey(name, "d", "s", 1, "glitch-exact")


def _payload(total):
    return {
        "cycles": 1, "toggles": [total], "rises": [0], "useful": [0],
        "useless": [total],
    }


@pytest.fixture
def no_default_store(monkeypatch):
    """Neither a configured default store nor ``REPRO_CACHE_DIR``."""
    monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
    monkeypatch.setattr(runner, "_DEFAULT_STORE", None)
    monkeypatch.setattr(runner, "_DEFAULT_STORE_INIT", False)


def _count_calls(monkeypatch, names):
    """Count calls of *names* through every loaded ``repro`` module."""
    calls = dict.fromkeys(names, 0)

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for module in list(sys.modules.values()):
        if not getattr(module, "__name__", "").startswith("repro"):
            continue
        for name in names:
            fn = vars(module).get(name)
            if callable(fn):
                monkeypatch.setattr(module, name, counting(name, fn))
    return calls


class TestPlan:
    def test_hits_collapse_and_outcomes(self, tmp_path):
        store = ResultStore(tmp_path)
        store.put(_key("cached"), _payload(7))
        computed = []

        def compute(work):
            computed.append(work)
            return _payload(work)

        done = execute(
            [(_key("cached"), "a", 1), (_key("shared"), "b", 2),
             (_key("shared"), "c", 3), (None, "d", 4)],
            compute, store,
        )
        assert done.outcomes == ["hit", "computed", "computed", "computed"]
        assert computed == [2, 4]  # one computation per key
        assert [v["toggles"] for v in done.values] == [[7], [2], [2], [4]]
        assert len(store) == 2 and not done.failures
        assert store.get(_key("shared")) == _payload(2)

    def test_lookup_only_without_compute(self, tmp_path):
        store = ResultStore(tmp_path)
        store.put(_key("cached"), _payload(1))
        done = execute(
            [(_key("cached"), "a", 1), (_key("new"), "b", 2)], None, store
        )
        assert done.outcomes == ["hit", None]
        assert done.values == [_payload(1), None]

    def test_quarantine_is_a_failed_outcome_after_salvage(self, tmp_path):
        from repro.service.pool import RetryPolicy

        def compute(work):
            if work == 2:
                raise ValueError("cursed")
            return _payload(work)

        store = ResultStore(tmp_path)
        done = execute(
            [(_key("ok"), "ok", 1), (_key("bad"), "bad", 2)], compute, store,
            policy=RetryPolicy(max_attempts=2, backoff_base_s=0.0),
        )
        assert done.outcomes == ["computed", "failed"]
        assert [f.label for f in done.failures] == ["bad"]
        assert len(store) == 1

    def test_unsupervised_error_propagates_unretried(self):
        calls = []

        def compute(work):
            calls.append(work)
            raise ValueError("its own error")

        with pytest.raises(ValueError, match="its own error"):
            execute([(None, "one", 1)], compute, supervise=False)
        assert calls == [1]

    def test_computed_work_is_one_pool_task(self):
        from repro.obs import trace

        with trace.capture() as rec:
            execute([(None, "one", 1)], _payload, supervise=False)
        (task,) = rec.find("pool.task")
        assert task["args"]["key"] == "task-0:one"
        hists = rec.metrics.snapshot()["hists"]
        assert hists["pool.task_latency_s"]["count"] == 1
        assert hists["pool.exec_s"]["count"] == 1


def _twin(net_order):
    """XOR and AND over ``a[0]``, ``a[1]``: one netlist, its inner nets
    created in *net_order*, so equal fingerprints number them apart."""
    from repro.netlist.cells import CellKind
    from repro.netlist.circuit import Circuit

    c = Circuit("twin")
    a0, a1 = c.add_input_word("a", 2)
    nets = {name: c.new_net(name) for name in net_order}
    c.gate(CellKind.XOR, a0, a1, output=nets["x"], name="gx")
    c.gate(CellKind.AND, nets["x"], a0, output=nets["y"], name="gy")
    c.mark_output(nets["y"])
    return c


class TestKeyTwins:
    @pytest.mark.parametrize("processes", [None, 2])
    def test_each_twin_decodes_against_its_own_circuit(
        self, tmp_path, processes
    ):
        from repro.core.activity import ActivityRun
        from repro.service.jobs import CircuitTask, run_circuit_tasks
        from repro.sim.vectors import WordStimulus

        first, second = _twin(["x", "y"]), _twin(["y", "x"])
        assert first.fingerprint() == second.fingerprint()
        assert first.net("x") != second.net("x")
        other, _ = build_named_circuit("rca4")  # a pool needs two misses
        spec = UniformStimulus(seed=3)
        tasks = [
            CircuitTask.from_circuit(c, "unit", spec, 40, label=c.name + str(i))
            for i, c in enumerate((first, second, other))
        ]
        results = run_circuit_tasks(
            tasks, store=ResultStore(tmp_path), processes=processes
        )
        assert results[0] is not results[1]
        for circuit, result in zip((first, second), results):
            words = WordStimulus({"a": list(circuit.inputs)})
            direct = ActivityRun(circuit).run(spec.vectors(words, 41))
            assert result.counts == direct.counts
        x, y = first.net("x"), first.net("y")
        assert vars(results[0].node(x)) != vars(results[0].node(y))


class TestSingleRuns:
    def test_cached_run_error_propagates_unretried(
        self, monkeypatch, no_default_store
    ):
        import repro.core.activity as activity_mod

        calls = []

        def broken(self, vectors, warmup=None):
            calls.append(1)
            raise ValueError("engine fault")

        monkeypatch.setattr(activity_mod.ActivityRun, "run", broken)
        circuit, stim = build_named_circuit("rca4")
        with pytest.raises(ValueError, match="engine fault"):
            cached_run(circuit, stim, UniformStimulus(seed=1), 10)
        assert calls == [1]

    def test_storeless_run_computes_no_cache_key(
        self, monkeypatch, no_default_store
    ):
        calls = _count_calls(
            monkeypatch, ["delay_fingerprint", "encode_result", "run_key"]
        )
        circuit, stim = build_named_circuit("rca4")
        result = cached_run(circuit, stim, UniformStimulus(seed=1), 20)
        assert result.cycles == 20
        assert calls == {
            "delay_fingerprint": 0, "encode_result": 0, "run_key": 0,
        }

    def test_storeless_explore_serializes_nothing(self, monkeypatch):
        from repro.explore.search import explore

        names = ["circuit_to_json", "encode_result", "decode_result"]
        calls = _count_calls(monkeypatch, names)
        circuit, _ = build_named_circuit("rca4")
        result = explore(circuit, strategy="beam", n_vectors=30)
        assert result.n_simulated > 1
        assert calls == dict.fromkeys(names, 0)


class TestCli:
    def test_analyze_without_cache_ignores_the_environment(
        self, tmp_path, monkeypatch, no_default_store, capsys
    ):
        from repro.cli import main

        env_store = tmp_path / "env-store"
        monkeypatch.setenv("REPRO_CACHE_DIR", str(env_store))
        for argv in (
            ["analyze", "--circuit", "rca4", "--vectors", "20"],
            ["estimate", "--circuit", "rca4"],
        ):
            assert main(argv) == 0
            assert "cache]" not in capsys.readouterr().out
        assert not env_store.exists()

    def test_cache_banner_follows_the_outcome(self, tmp_path, capsys):
        from repro.cli import main

        argv = ["analyze", "--circuit", "rca4", "--vectors", "20",
                "--cache", str(tmp_path)]
        lines = []
        for _ in range(2):
            assert main(argv) == 0
            lines.append(capsys.readouterr().out.splitlines()[0])
        assert lines == [
            f"[cache] simulated: {tmp_path}", f"[cache] cache: {tmp_path}",
        ]
