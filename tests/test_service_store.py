"""The persistent result store: exactness, durability, LRU bound.

The load-bearing property is *exact hit semantics*: a payload decoded
from the store must be bit-identical — per-net, count for count — to
recomputing the run, across processes and regardless of which
glitch-exact engine computed it.  Property-tested over random
circuits below.
"""

import json
import random

import pytest
from hypothesis import given, settings, strategies as st

from tests.conftest import random_dag_circuit
from repro.core.activity import ActivityRun
from repro.service.runner import cached_run, run_key, word_layout
from repro.service.store import (
    GLITCH_EXACT,
    SETTLED,
    ResultStore,
    RunKey,
    decode_result,
    encode_result,
    payload_summary,
)
from repro.sim.delays import SumCarryDelay, UnitDelay, ZeroDelay, resolve_delay
from repro.sim.vectors import UniformStimulus, WordStimulus


def _key(n: int = 0) -> RunKey:
    return RunKey(f"c{n}", "d0", "s0", 100, GLITCH_EXACT)


def _payload(n: int = 0, pad: int = 0) -> dict:
    return {
        "schema": 1,
        "circuit_name": f"circ{n}",
        "delay_description": "unit delay",
        "cycles": 100,
        "per_node": {f"net{n}x{'p' * pad}": [4, 2, 2, 2, 3]},
    }


class TestResultStoreBasics:
    def test_miss_then_hit(self, tmp_path):
        store = ResultStore(tmp_path)
        assert store.get(_key()) is None
        store.put(_key(), _payload())
        assert store.get(_key()) == _payload()
        assert store.hits == 1 and store.misses == 1

    def test_persistence_across_instances(self, tmp_path):
        ResultStore(tmp_path).put(_key(), _payload())
        fresh = ResultStore(tmp_path)
        assert len(fresh) == 1
        assert fresh.get(_key()) == _payload()

    def test_distinct_keys_distinct_objects(self, tmp_path):
        store = ResultStore(tmp_path)
        store.put(_key(0), _payload(0))
        store.put(_key(1), _payload(1))
        assert store.get(_key(0))["circuit_name"] == "circ0"
        assert store.get(_key(1))["circuit_name"] == "circ1"

    def test_key_components_all_matter(self, tmp_path):
        store = ResultStore(tmp_path)
        base = RunKey("c", "d", "s", 100, GLITCH_EXACT)
        store.put(base, _payload())
        for other in (
            RunKey("c2", "d", "s", 100, GLITCH_EXACT),
            RunKey("c", "d2", "s", 100, GLITCH_EXACT),
            RunKey("c", "d", "s2", 100, GLITCH_EXACT),
            RunKey("c", "d", "s", 101, GLITCH_EXACT),
            RunKey("c", "d", "s", 100, "settled"),
        ):
            assert store.get(other) is None

    def test_put_is_idempotent(self, tmp_path):
        store = ResultStore(tmp_path)
        store.put(_key(), _payload())
        store.put(_key(), _payload())
        assert len(store) == 1

    def test_corrupt_object_is_a_miss(self, tmp_path):
        store = ResultStore(tmp_path)
        entry = store.put(_key(), _payload())
        (store.objects / f"{entry['digest']}.json").write_text("{broken")
        assert store.get(_key()) is None
        assert len(store) == 0

    def test_torn_index_line_is_skipped(self, tmp_path):
        store = ResultStore(tmp_path)
        store.put(_key(), _payload())
        with open(tmp_path / ResultStore.INDEX, "a") as fh:
            fh.write('{"digest": "tor')  # crashed writer mid-line
        fresh = ResultStore(tmp_path)
        assert len(fresh) == 1

    def test_clear(self, tmp_path):
        store = ResultStore(tmp_path)
        store.put(_key(0), _payload(0))
        store.put(_key(1), _payload(1))
        assert store.clear() == 2
        assert len(store) == 0
        assert not list(store.objects.glob("*.json"))


class TestLruBound:
    def test_eviction_on_insert(self, tmp_path):
        one = len(json.dumps(_payload(0, pad=10)))
        store = ResultStore(tmp_path, max_bytes=3 * one)
        for n in range(5):
            store.put(_key(n), _payload(n, pad=10))
        assert store.total_bytes() <= 3 * one
        assert store.get(_key(4)) is not None  # newest survives

    def test_recency_protects_entries(self, tmp_path):
        one = len(json.dumps(_payload(0, pad=10)))
        store = ResultStore(tmp_path, max_bytes=3 * one)
        store.put(_key(0), _payload(0, pad=10))
        store.put(_key(1), _payload(1, pad=10))
        store.put(_key(2), _payload(2, pad=10))
        assert store.get(_key(0)) is not None  # touch 0: now most recent
        store.put(_key(3), _payload(3, pad=10))  # evicts 1, not 0
        assert store.get(_key(0)) is not None
        assert store.get(_key(1)) is None

    def test_prune(self, tmp_path):
        store = ResultStore(tmp_path)
        for n in range(4):
            store.put(_key(n), _payload(n))
        assert store.prune(0) == 4
        assert store.total_bytes() == 0

    def test_reput_into_full_store_evicts_only_older_entries(self, tmp_path):
        """A re-put key becomes the newest entry: eviction takes the
        oldest others and keeps it servable."""
        one = len(json.dumps(_payload(0, pad=10)))
        store = ResultStore(tmp_path, max_bytes=3 * one)
        for n in range(3):
            store.put(_key(n), _payload(n, pad=10))
        bigger = _payload(0, pad=20)
        store.put(_key(0), bigger)  # over the bound: 1 is now the oldest
        assert store.get(_key(0)) == bigger
        assert store.get(_key(1)) is None
        assert store.get(_key(2)) == _payload(2, pad=10)
        assert store.total_bytes() <= 3 * one

    def test_prune_counts_evictions(self, tmp_path):
        from repro.obs import trace

        store = ResultStore(tmp_path)
        for n in range(3):
            store.put(_key(n), _payload(n))
        with trace.capture() as rec:
            assert store.prune(len(json.dumps(_payload(2)))) == 2
        assert rec.metrics.counters["store.eviction"] == 2
        assert store.get(_key(2)) == _payload(2)

    def test_negative_bounds_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            ResultStore(tmp_path, max_bytes=-1)
        with pytest.raises(ValueError):
            ResultStore(tmp_path).prune(-5)

    def test_recency_survives_clock_going_backward(
        self, tmp_path, monkeypatch
    ):
        """LRU order comes from a monotonic tick, not the wall clock.

        An NTP step (or DST misconfiguration) must not make a
        just-touched entry look ancient and get it evicted.
        """
        import repro.service.store as store_mod

        one = len(json.dumps(_payload(0, pad=10)))
        store = ResultStore(tmp_path, max_bytes=3 * one)
        now = [1_000_000.0]
        monkeypatch.setattr(store_mod.time, "time", lambda: now[0])
        store.put(_key(0), _payload(0, pad=10))
        store.put(_key(1), _payload(1, pad=10))
        store.put(_key(2), _payload(2, pad=10))
        now[0] -= 3600.0  # the wall clock jumps an hour backwards
        assert store.get(_key(0)) is not None  # touch 0 under the old time
        store.put(_key(3), _payload(3, pad=10))  # must evict 1, not 0
        assert store.get(_key(0)) is not None
        assert store.get(_key(1)) is None

    def test_tick_reseeds_across_instances(self, tmp_path):
        """A fresh instance's touches outrank everything persisted."""
        one = len(json.dumps(_payload(0, pad=10)))
        store = ResultStore(tmp_path, max_bytes=3 * one)
        for n in range(3):
            store.put(_key(n), _payload(n, pad=10))
        fresh = ResultStore(tmp_path, max_bytes=3 * one)
        assert fresh.get(_key(0)) is not None  # touch in the new process
        fresh.put(_key(3), _payload(3, pad=10))  # evicts 1, not 0
        assert fresh.get(_key(0)) is not None
        assert fresh.get(_key(1)) is None


class TestPayloadCodec:
    def test_roundtrip_is_exact(self):
        circuit = random_dag_circuit(random.Random(7), n_gates=15)
        stim = WordStimulus({"i": list(circuit.inputs)})
        result = ActivityRun(circuit).run(
            stim.random(random.Random(3), 50)
        )
        back = decode_result(encode_result(result), circuit)
        assert back.cycles == result.cycles
        assert back.circuit_name == result.circuit_name
        assert {n: vars(a) for n, a in back.per_node.items()} == {
            n: vars(a) for n, a in result.per_node.items()
        }
        assert back.summary() == result.summary()

    def test_schema1_payload_still_decodes(self):
        """A store filled before the columnar payload keeps serving hits."""
        circuit = random_dag_circuit(random.Random(7), n_gates=15)
        stim = WordStimulus({"i": list(circuit.inputs)})
        result = ActivityRun(circuit).run(stim.random(random.Random(3), 50))
        # The schema-1 encoder: one name -> counts record per net.
        legacy = {
            "schema": 1,
            "circuit_name": result.circuit_name,
            "delay_description": result.delay_description,
            "cycles": result.cycles,
            "per_node": {
                result.node_names[net]: [
                    a.toggles, a.rises, a.useful, a.useless, a.cycles_active,
                ]
                for net, a in result.per_node.items()
            },
        }
        back = decode_result(legacy, circuit)
        assert back.per_node == result.per_node
        assert back.summary() == result.summary()
        assert payload_summary(legacy) == result.summary()
        assert decode_result(encode_result(result), circuit).per_node == (
            back.per_node
        )

    def test_payload_is_columnar(self):
        circuit = random_dag_circuit(random.Random(5), n_gates=8)
        stim = WordStimulus({"i": list(circuit.inputs)})
        result = ActivityRun(circuit).run(stim.random(random.Random(2), 20))
        payload = encode_result(result)
        assert payload["schema"] == 2
        assert payload["nets"] == [
            result.node_names[n] for n in result.per_node
        ]
        assert payload["toggles"] == [
            a.toggles for a in result.per_node.values()
        ]
        assert json.loads(json.dumps(payload)) == payload

    def test_payload_summary_matches_result_summary(self):
        circuit = random_dag_circuit(random.Random(11), n_gates=10)
        stim = WordStimulus({"i": list(circuit.inputs)})
        result = ActivityRun(circuit).run(stim.random(random.Random(5), 30))
        assert payload_summary(encode_result(result)) == result.summary()

    def test_decode_remaps_by_name(self):
        """Payloads decode against any same-named circuit build."""
        def build(extra_first):
            from repro.netlist.cells import CellKind
            from repro.netlist.circuit import Circuit

            c = Circuit("remap")
            a = c.add_input("a")
            if extra_first:  # shift net indices without changing names
                pad = c.new_net("pad")
            x = c.new_net("x")
            if not extra_first:
                pad = c.new_net("pad")
            c.gate(CellKind.NOT, a, output=x, name="g")
            c.gate(CellKind.BUF, x, output=pad, name="gp")
            c.mark_output(pad)
            return c

        c1, c2 = build(False), build(True)
        assert c1.fingerprint() == c2.fingerprint()
        assert c1.net("x") != c2.net("x")
        stim1 = WordStimulus({"a": [c1.net("a")]})
        result = ActivityRun(c1).run(stim1.random(random.Random(1), 20))
        moved = decode_result(encode_result(result), c2)
        assert moved.node(c2.net("x")).toggles == (
            result.node(c1.net("x")).toggles
        )


class TestCachedRunExactness:
    @settings(max_examples=10, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**16),
        stim_seed=st.integers(min_value=0, max_value=2**16),
        dsum=st.integers(min_value=1, max_value=3),
    )
    def test_hit_equals_recompute_bit_exactly(
        self, tmp_path_factory, seed, stim_seed, dsum
    ):
        """Property: a cache hit is indistinguishable from recomputation."""
        root = tmp_path_factory.mktemp("store")
        store = ResultStore(root)
        circuit = random_dag_circuit(
            random.Random(seed), n_gates=14, with_ffs=True
        )
        words = WordStimulus({"i": list(circuit.inputs)})
        spec = UniformStimulus(seed=stim_seed)
        delay = SumCarryDelay(dsum=dsum, dcarry=1)

        cold = cached_run(
            circuit, words, spec, 40, delay_model=delay, store=store
        )
        direct = ActivityRun(circuit, delay_model=delay, backend="auto").run(
            spec.vectors(words, 41)
        )
        warm = cached_run(
            circuit, words, spec, 40, delay_model=delay, store=store
        )
        assert store.hits >= 1
        for a, b in ((cold, direct), (warm, direct)):
            assert a.cycles == b.cycles
            assert {n: vars(x) for n, x in a.per_node.items()} == {
                n: vars(x) for n, x in b.per_node.items()
            }
            assert a.summary() == b.summary()

    def test_event_and_waveform_share_entries(self, tmp_path):
        """Glitch-exact engines (here event and lanes, the engine
        that replaced "waveform") address the same slot."""
        circuit = random_dag_circuit(random.Random(3), n_gates=12)
        words = WordStimulus({"i": list(circuit.inputs)})
        spec = UniformStimulus(seed=9)
        store = ResultStore(tmp_path)
        by_wave = cached_run(
            circuit, words, spec, 30, delay_model=UnitDelay(),
            backend="lanes", store=store,
        )
        by_event = cached_run(
            circuit, words, spec, 30, delay_model=UnitDelay(),
            backend="event", store=store,
        )
        assert store.hits == 1 and len(store) == 1
        assert by_event.summary() == by_wave.summary()

    def test_settled_class_is_separate(self, tmp_path):
        circuit = random_dag_circuit(random.Random(3), n_gates=12)
        words = WordStimulus({"i": list(circuit.inputs)})
        spec = UniformStimulus(seed=9)
        store = ResultStore(tmp_path)
        cached_run(
            circuit, words, spec, 30, delay_model=UnitDelay(), store=store
        )
        cached_run(circuit, words, spec, 30, backend="lanes",
                   delay_model=ZeroDelay(), store=store)
        assert len(store) == 2
        assert store.hits == 0

    #: ``run_key(rca4, 30 vectors, UniformStimulus(seed=1))`` of a lanes
    #: session in zero-delay mode, as stores filled by earlier builds
    #: (which spelled it ``backend="bitparallel"``) hold it.
    SETTLED_RCA4_DIGEST = (
        "f4956eadaa8da4b86d8395e503c7dfc368091a016caaa026454a9bf5c7dcf997"
    )

    def test_settled_key_unchanged(self, tmp_path):
        """``ZeroDelay()``, ``resolve_delay("zero")`` and ``analyze
        --delay zero`` all address the slot earlier builds filled."""
        from repro.circuits.catalog import build_named_circuit
        from repro.cli import main

        circuit, stim = build_named_circuit("rca4")
        for delay in (ZeroDelay(), resolve_delay("zero")):
            for backend in ("lanes", "auto"):
                key = run_key(
                    circuit, stim, UniformStimulus(seed=1), 30,
                    delay_model=delay, backend=backend,
                )
                assert key.result_class == SETTLED
                assert key.digest() == self.SETTLED_RCA4_DIGEST
        assert main([
            "analyze", "--circuit", "rca4", "--vectors", "30", "--seed", "1",
            "--backend", "lanes", "--delay", "zero", "--cache", str(tmp_path),
        ]) == 0
        assert [e["digest"] for e in ResultStore(tmp_path).entries()] == [
            self.SETTLED_RCA4_DIGEST
        ]

    def test_monitor_restricts_view_only(self, tmp_path):
        from repro.circuits.adders import build_rca_circuit

        circuit, ports = build_rca_circuit(6, with_cin=False)
        words = WordStimulus({"a": ports["a"], "b": ports["b"]})
        spec = UniformStimulus(seed=2)
        store = ResultStore(tmp_path)
        full = cached_run(circuit, words, spec, 60, store=store)
        sums_only = cached_run(
            circuit, words, spec, 60, store=store, monitor=ports["sums"]
        )
        assert store.hits == 1  # same entry served both views
        assert set(sums_only.per_node) <= set(ports["sums"])
        for n in sums_only.per_node:
            assert vars(sums_only.per_node[n]) == vars(full.per_node[n])

    def test_run_key_is_stable_across_builds(self):
        from repro.circuits.catalog import build_named_circuit

        c1, s1 = build_named_circuit("rca8")
        c2, s2 = build_named_circuit("rca8")
        spec = UniformStimulus(seed=5)
        k1 = run_key(c1, s1, spec, 100, delay_model=UnitDelay())
        k2 = run_key(c2, s2, spec, 100, delay_model=UnitDelay())
        assert k1 == k2 and k1.digest() == k2.digest()
        assert word_layout(c1, s1) == word_layout(c2, s2)


class TestConcurrentWriters:
    def test_writers_merge_instead_of_clobbering(self, tmp_path):
        """Two stores on one directory must not erase each other's
        entries when they rewrite the index."""
        a = ResultStore(tmp_path)
        a.put(_key(0), _payload(0))
        b = ResultStore(tmp_path)  # sees entry 0
        b.put(_key(1), _payload(1))  # disk: {0, 1}
        a.put(_key(2), _payload(2))  # a never saw 1; must keep it
        fresh = ResultStore(tmp_path)
        assert len(fresh) == 3
        for n in range(3):
            assert fresh.get(_key(n)) == _payload(n)

    def test_eviction_is_not_resurrected_by_merge(self, tmp_path):
        store = ResultStore(tmp_path)
        for n in range(4):
            store.put(_key(n), _payload(n))
        assert store.prune(0) == 4
        fresh = ResultStore(tmp_path)
        assert len(fresh) == 0

    def test_clear_covers_concurrent_entries(self, tmp_path):
        a = ResultStore(tmp_path)
        a.put(_key(0), _payload(0))
        b = ResultStore(tmp_path)
        b.put(_key(1), _payload(1))
        assert a.clear() == 2  # includes the entry a never loaded
        assert len(ResultStore(tmp_path)) == 0
        assert not list(a.objects.glob("*.json"))


    def test_open_spares_a_live_writers_temp_file(self, tmp_path, monkeypatch):
        """A store opened in another process while an object is being
        written must not sweep that write's temp file as stale."""
        import os
        import subprocess
        import sys
        import time

        import repro

        src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
        opener = []
        real_replace = os.replace

        def replace_after_an_open(tmp, path):
            if not opener:  # the object write; the index write follows
                opener.append(subprocess.Popen(
                    [sys.executable, "-c", (
                        "import sys; from repro.service.store import ResultStore; "
                        "print('ready', flush=True); ResultStore(sys.argv[1])"
                    ), str(tmp_path)],
                    stdout=subprocess.PIPE, text=True,
                    env={**os.environ, "PYTHONPATH": src},
                ))
                assert opener[0].stdout.readline() == "ready\n"
                time.sleep(0.5)  # ample time for an open to sweep
            real_replace(tmp, path)

        store = ResultStore(tmp_path)
        monkeypatch.setattr(os, "replace", replace_after_an_open)
        assert store.put(_key(), _payload()) is not None
        assert opener[0].wait(timeout=60) == 0
        opener[0].stdout.close()
        assert store.get(_key()) == _payload()


class TestFlushAndDeferred:
    def test_read_only_recency_persists_after_flush(self, tmp_path):
        """Warm read-only sessions must not degrade LRU to FIFO."""
        import json as _json

        one = len(_json.dumps(_payload(0, pad=10)))
        writer = ResultStore(tmp_path, max_bytes=3 * one)
        for n in range(3):
            writer.put(_key(n), _payload(n, pad=10))
        reader = ResultStore(tmp_path)  # read-only session touches 0
        assert reader.get(_key(0)) is not None
        reader.flush()
        bounded = ResultStore(tmp_path, max_bytes=3 * one)
        bounded.put(_key(3), _payload(3, pad=10))  # evicts 1, not 0
        assert bounded.get(_key(0)) is not None
        assert bounded.get(_key(1)) is None

    def test_flush_without_changes_is_noop(self, tmp_path):
        store = ResultStore(tmp_path)
        store.flush()
        assert not (tmp_path / ResultStore.INDEX).exists()

    def test_deferred_writes_index_once_at_exit(self, tmp_path, monkeypatch):
        store = ResultStore(tmp_path)
        writes = []
        original = store._write_index

        def counting():
            writes.append(1)
            original()

        monkeypatch.setattr(store, "_write_index", counting)
        with store.deferred():
            for n in range(5):
                store.put(_key(n), _payload(n))
        assert len(writes) == 1
        assert len(ResultStore(tmp_path)) == 5


class TestOpenRecovery:
    """The open-time recovery scan: every crash artifact is healed."""

    def test_stale_tmp_files_are_swept_on_open(self, tmp_path):
        store = ResultStore(tmp_path)
        store.put(_key(), _payload())
        (tmp_path / ".index.jsonl.abc123.tmp").write_text("partial")
        (store.objects / ".deadbeef.json.xyz.tmp").write_text("partial")
        fresh = ResultStore(tmp_path)
        assert not list(tmp_path.glob(".*.tmp"))
        assert not list(fresh.objects.glob(".*.tmp"))
        assert any("swept" in n for n in fresh.recovery_notes)
        assert fresh.get(_key()) == _payload()  # data untouched

    def test_missing_object_dropped_on_open(self, tmp_path):
        store = ResultStore(tmp_path)
        e0 = store.put(_key(0), _payload(0))
        store.put(_key(1), _payload(1))
        (store.objects / f"{e0['digest']}.json").unlink()
        fresh = ResultStore(tmp_path)
        assert len(fresh) == 1
        assert fresh.get(_key(0)) is None
        assert fresh.get(_key(1)) == _payload(1)
        assert any("missing" in n for n in fresh.recovery_notes)

    def test_unreadable_index_rebuilt_from_objects(self, tmp_path):
        store = ResultStore(tmp_path)
        store.put(_key(0), _payload(0))
        store.put(_key(1), _payload(1))
        # Clobber the index with undecodable binary garbage.
        (tmp_path / ResultStore.INDEX).write_bytes(
            b"\xff\xfe\x00garbage\x80\x81"
        )
        fresh = ResultStore(tmp_path)
        assert len(fresh) == 2
        # The object filename is the addressing digest, so rebuilt
        # entries (with no decomposed key) still serve hits.
        assert fresh.get(_key(0)) == _payload(0)
        assert fresh.get(_key(1)) == _payload(1)
        assert any("rebuilt" in n for n in fresh.recovery_notes)
        for entry in fresh.entries():
            assert entry["key"] is None
            assert entry["checksum"] is not None

    def test_rebuilt_index_is_persisted(self, tmp_path):
        store = ResultStore(tmp_path)
        store.put(_key(), _payload())
        (tmp_path / ResultStore.INDEX).write_bytes(b"\xff\x80junk")
        ResultStore(tmp_path)  # rebuilds and persists
        # The next open reads a clean index: no recovery needed.
        third = ResultStore(tmp_path)
        assert not third.recovery_notes
        assert third.get(_key()) == _payload()


class TestSelfHeal:
    """Index entry present, object damaged: healed on touch."""

    def test_get_heals_missing_object(self, tmp_path):
        store = ResultStore(tmp_path)
        entry = store.put(_key(), _payload())
        (store.objects / f"{entry['digest']}.json").unlink()
        assert store.get(_key()) is None  # miss, not an exception
        assert len(store) == 0  # entry dropped
        store.put(_key(), _payload())  # and re-cacheable
        assert store.get(_key()) == _payload()

    def test_stats_heals_missing_object(self, tmp_path):
        """The regression pair for get-side healing: `status` surfaces
        (stats) must also drop vanished objects, not report them."""
        store = ResultStore(tmp_path)
        e0 = store.put(_key(0), _payload(0))
        store.put(_key(1), _payload(1))
        (store.objects / f"{e0['digest']}.json").unlink()
        stats = store.stats()
        assert stats["entries"] == 1
        assert stats["total_bytes"] == len(json.dumps(_payload(1)))

    def test_get_heals_bitflipped_payload(self, tmp_path):
        """A single flipped digit keeps the JSON valid — only the
        recorded checksum can catch it."""
        store = ResultStore(tmp_path)
        entry = store.put(_key(), _payload())
        path = store.objects / f"{entry['digest']}.json"
        data = path.read_text()
        pos = data.index('"cycles": 100') + len('"cycles": 1')
        flipped = data[:pos] + "9" + data[pos + 1:]
        assert json.loads(flipped)  # still parses — that's the point
        path.write_text(flipped)
        assert store.get(_key()) is None
        assert len(store) == 0

    def test_get_heals_truncated_payload(self, tmp_path):
        store = ResultStore(tmp_path)
        entry = store.put(_key(), _payload())
        path = store.objects / f"{entry['digest']}.json"
        data = path.read_text()
        path.write_text(data[: len(data) // 2])
        assert store.get(_key()) is None
        assert len(store) == 0


    def test_get_drops_legacy_entry_with_wrong_size(self, tmp_path):
        """An entry written before checksums were recorded is checked
        by its size, on `get` as on `verify`."""
        store = ResultStore(tmp_path)
        for n in range(2):
            store.put(_key(n), _payload(n))
        index = tmp_path / ResultStore.INDEX
        entries = [json.loads(line) for line in index.read_text().splitlines()]
        for entry in entries:
            del entry["checksum"]
            if entry["digest"] == _key(1).digest():
                entry["size"] += 1
        index.write_text("".join(json.dumps(e) + "\n" for e in entries))
        legacy = ResultStore(tmp_path)
        [problem] = legacy.verify()["problems"]
        assert problem["kind"] == "size-mismatch"
        assert legacy.get(_key(0)) == _payload(0)  # right size: served
        assert legacy.get(_key(1)) is None
        assert _key(1) not in legacy
        assert not (legacy.objects / f"{_key(1).digest()}.json").exists()

    def test_get_heals_non_utf8_byte(self, tmp_path):
        """A flipped high bit leaves bytes that are no UTF-8: a miss
        (checksum mismatch), not a decode error."""
        store = ResultStore(tmp_path)
        entry = store.put(_key(), _payload())
        path = store.objects / f"{entry['digest']}.json"
        data = path.read_bytes()
        path.write_bytes(data[:5] + bytes([data[5] ^ 0x80]) + data[6:])
        [problem] = store.verify()["problems"]
        assert problem["kind"] == "checksum-mismatch"
        assert store.get(_key()) is None
        assert len(store) == 0


class TestVerifyRepair:
    def test_verify_clean_store(self, tmp_path):
        store = ResultStore(tmp_path)
        store.put(_key(0), _payload(0))
        store.put(_key(1), _payload(1))
        report = store.verify()
        assert report["entries"] == 2 and report["ok"] == 2
        assert report["problems"] == []

    def test_verify_reports_each_corruption_kind(self, tmp_path):
        store = ResultStore(tmp_path)
        entries = [store.put(_key(n), _payload(n)) for n in range(4)]
        # 0: truncated (torn write), 1: bit-flipped, 2: missing,
        # 3: left valid.
        p0 = store.objects / f"{entries[0]['digest']}.json"
        p0.write_text(p0.read_text()[:30])
        p1 = store.objects / f"{entries[1]['digest']}.json"
        d1 = p1.read_text()
        pos = d1.index("100")
        p1.write_text(d1[:pos] + "900"[0] + d1[pos + 1:])
        (store.objects / f"{entries[2]['digest']}.json").unlink()
        # Plus an orphan object and a stale tmp file.
        (store.objects / "feedfacecafe.json").write_text(
            json.dumps(_payload(9))
        )
        (tmp_path / ".index.jsonl.zzz.tmp").write_text("junk")

        report = store.verify()
        kinds = {p["digest"]: p["kind"] for p in report["problems"]}
        assert kinds[entries[0]["digest"]] == "checksum-mismatch"
        assert kinds[entries[1]["digest"]] == "checksum-mismatch"
        assert kinds[entries[2]["digest"]] == "missing-object"
        assert kinds["feedfacecafe"] == "orphan-object"
        assert any(k == "stale-tmp" for k in kinds.values())
        assert report["ok"] == 1  # only entry 3 is servable

    def test_repair_fixes_everything_keeps_valid(self, tmp_path):
        store = ResultStore(tmp_path)
        entries = [store.put(_key(n), _payload(n)) for n in range(3)]
        p0 = store.objects / f"{entries[0]['digest']}.json"
        p0.write_text(p0.read_text()[:25])  # torn
        orphan_payload = _payload(7)
        (store.objects / "0a1b2c3d4e5f.json").write_text(
            json.dumps(orphan_payload)
        )
        (store.objects / "badbadbadbad.json").write_text("{nope")
        (tmp_path / ".x.tmp").write_text("junk")

        fixed = store.repair()
        assert fixed["dropped"] == 1
        assert fixed["adopted"] == 1
        assert fixed["deleted"] == 1
        assert fixed["swept_tmp"] == 1
        assert store.verify()["problems"] == []
        # Valid entries survived and still serve.
        assert store.get(_key(1)) == _payload(1)
        assert store.get(_key(2)) == _payload(2)
        # The adopted orphan is addressable by its digest.
        adopted = [e for e in store.entries() if e["key"] is None]
        assert len(adopted) == 1
        assert adopted[0]["digest"] == "0a1b2c3d4e5f"
        # And the repair is persisted: a fresh open agrees.
        fresh = ResultStore(tmp_path)
        assert len(fresh) == 3
        assert fresh.verify()["problems"] == []

    def test_repair_on_clean_store_is_noop(self, tmp_path):
        store = ResultStore(tmp_path)
        store.put(_key(), _payload())
        fixed = store.repair()
        assert fixed == {
            "dropped": 0, "adopted": 0, "deleted": 0, "swept_tmp": 0,
        }
        assert store.get(_key()) == _payload()


class TestWriteFailureDegradation:
    def test_put_warns_and_returns_none_on_oserror(
        self, tmp_path, monkeypatch
    ):
        import repro.service.store as store_mod
        from repro.service.store import StoreWriteWarning

        store = ResultStore(tmp_path)

        def failing_write(path, data, durable=True):
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(store_mod, "_atomic_write", failing_write)
        with pytest.warns(StoreWriteWarning):
            assert store.put(_key(), _payload()) is None
        assert len(store) == 0

    def test_entry_records_checksum(self, tmp_path):
        store = ResultStore(tmp_path)
        entry = store.put(_key(), _payload())
        assert entry["checksum"]
        from repro.netlist.compiled import content_digest

        data = (store.objects / f"{entry['digest']}.json").read_text()
        assert content_digest(data) == entry["checksum"]
