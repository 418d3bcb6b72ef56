"""Persistent, content-addressed store for analysis results.

A :class:`ResultStore` maps a :class:`RunKey` — the canonical
fingerprints of (circuit, delay model, stimulus, vector count, result
class) — to a serialized :class:`~repro.core.activity.ActivityResult`.
Because every key component is a *content* hash (insertion-order
independent circuit structure, resolved per-cell delays, declarative
seed-stable stimulus), a hit is guaranteed to be **bit-identical** to
recomputation: same per-net counts, same aggregates, transition for
transition.

Design points:

* **result class, not backend name** — every engine's glitch-exact
  mode produces bit-identical aggregates, so all of them share the
  ``"glitch-exact"`` class and serve each other's cache entries;
  zero-delay sessions store under ``"settled"``.
* **per-net counts are keyed by net name** in the serialized payload,
  the same identity the fingerprints use, and are re-mapped onto the
  requesting circuit's net indices on retrieval.
* **atomic, durable writes** — object files and the JSON-lines index
  are written to a temporary file, fsynced, ``os.replace``d, and the
  parent directory is fsynced, so an accepted write survives both a
  crashed writer and a power loss.  Index writes *merge* with the
  on-disk state first (minus this store's own evictions), so several
  processes sharing one directory may race on recency but cannot
  erase each other's entries.
* **crash-safe by verification** — every object carries a content
  checksum in its index entry, verified on read; opening a store runs
  a recovery scan (stale ``.tmp`` files swept, torn index lines
  dropped, entries whose object file vanished healed, and the whole
  index re-derived from the object files when it is unreadable).
  :meth:`ResultStore.verify` / :meth:`ResultStore.repair` expose the
  deep scan as ``repro cache --dir DIR verify|repair``.
* **advisory locking** — index rewrites take an exclusive ``flock`` on
  ``<root>/.lock`` (POSIX; a no-op elsewhere), so concurrent writers
  sharing ``REPRO_CACHE_DIR`` serialize their read-merge-write
  critical sections instead of interleaving them.
* **LRU size bound** — ``max_bytes`` caps the total object payload;
  least-recently-*used* entries are evicted on insert.  Recency is
  updated in memory on every hit and persisted at the next mutation.

The store is a plain directory::

    <root>/index.jsonl        one JSON object per entry
    <root>/objects/<digest>.json
    <root>/jobs/<job_id>.json (written by the batch scheduler)
    <root>/.lock              advisory writer lock
"""

from __future__ import annotations

import json
import os
import tempfile
import time
from collections import OrderedDict
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Any, Dict, Iterable, Iterator, List, Optional

try:
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX platforms
    fcntl = None

from repro.core.activity import ActivityResult, summarize_counts
from repro.core.transitions import NodeActivity
from repro.netlist.circuit import Circuit
from repro.netlist.compiled import content_digest
from repro.obs import trace as obs

#: Result classes: engines within one class are mutually bit-identical.
GLITCH_EXACT = "glitch-exact"
SETTLED = "settled"
#: Analytic estimator results (:mod:`repro.estimate`): per-net float
#: rates, not simulated counts — never interchangeable with the
#: simulation classes above.
ESTIMATE = "estimate"
#: Design-space exploration outcomes (:mod:`repro.explore`): the full
#: candidate table and Pareto front of one search, keyed by (circuit,
#: space, workload, vector count, strategy).  Aggregate-level — the
#: per-candidate simulations are stored separately under
#: :data:`GLITCH_EXACT` and shared with every other consumer.
EXPLORE = "explore"


@dataclass(frozen=True)
class RunKey:
    """Content-addressed identity of one activity run.

    All string fields are canonical fingerprints
    (:meth:`~repro.netlist.circuit.Circuit.fingerprint`,
    :func:`~repro.netlist.compiled.delay_fingerprint`,
    :meth:`~repro.sim.vectors.StimulusSpec.fingerprint` with the word
    layout bound in); *n_vectors* counts the measured cycles (warm-up
    excluded); *result_class* is :data:`GLITCH_EXACT` or
    :data:`SETTLED`.
    """

    circuit_fp: str
    delay_fp: str
    stimulus_fp: str
    n_vectors: int
    result_class: str

    def digest(self) -> str:
        return content_digest((
            "runkey-v1",
            self.circuit_fp,
            self.delay_fp,
            self.stimulus_fp,
            self.n_vectors,
            self.result_class,
        ))


def encode_result(result: ActivityResult) -> Dict[str, Any]:
    """Serialize an :class:`ActivityResult` into a JSON-safe payload.

    Per-net records are keyed by net *name* — the stable identity the
    fingerprints use — so a payload can be decoded against any circuit
    with the same fingerprint regardless of net index assignment.
    """
    per_node = {}
    for net, act in result.per_node.items():
        name = result.node_names.get(net)
        if name is None:
            raise ValueError(
                f"cannot serialize result: net {net} has no recorded name"
            )
        per_node[name] = [
            act.toggles, act.rises, act.useful, act.useless,
            act.cycles_active,
        ]
    return {
        "schema": 1,
        "circuit_name": result.circuit_name,
        "delay_description": result.delay_description,
        "cycles": result.cycles,
        "per_node": per_node,
    }


def decode_result(
    payload: Dict[str, Any],
    circuit: Circuit,
    delay_description: str | None = None,
) -> ActivityResult:
    """Materialize a payload as an :class:`ActivityResult` for *circuit*.

    Net names are mapped back onto *circuit*'s indices; metadata
    (circuit name, node names and — when given — the delay
    description) comes from the requesting context, so the result is
    exactly what recomputation on *circuit* would have produced.
    """
    per_node: Dict[int, NodeActivity] = {}
    for name, counts in payload["per_node"].items():
        per_node[circuit.net(name)] = NodeActivity(*counts)
    return ActivityResult(
        circuit_name=circuit.name,
        delay_description=(
            payload["delay_description"]
            if delay_description is None else delay_description
        ),
        cycles=payload["cycles"],
        per_node=per_node,
        node_names={n.index: n.name for n in circuit.nets},
    )


def encode_estimate(result: "EstimateResult") -> Dict[str, Any]:
    """Serialize an :class:`~repro.estimate.workload.EstimateResult`.

    Like :func:`encode_result`, per-net records are keyed by net name
    so a payload decodes against any circuit with the same
    fingerprint.  Each record is ``[probability, activity, density]``;
    monitored nets are listed by name.
    """
    per_net = {}
    for net, p in result.probabilities.items():
        name = result.node_names.get(net)
        if name is None:
            raise ValueError(
                f"cannot serialize estimate: net {net} has no recorded name"
            )
        per_net[name] = [
            p,
            result.activities.get(net, 0.0),
            result.densities.get(net, 0.0),
        ]
    return {
        "schema": 1,
        "kind": "estimate",
        "circuit_name": result.circuit_name,
        "stimulus_description": result.stimulus_description,
        "input_probability": result.input_probability,
        "input_density": result.input_density,
        "per_net": per_net,
        "monitored": [result.node_names[n] for n in result.monitored],
    }


def decode_estimate(
    payload: Dict[str, Any], circuit: Circuit
) -> "EstimateResult":
    """Materialize an estimate payload against *circuit* (by net name)."""
    from repro.estimate.workload import EstimateResult

    probabilities: Dict[int, float] = {}
    activities: Dict[int, float] = {}
    densities: Dict[int, float] = {}
    for name, (p, act, dens) in payload["per_net"].items():
        net = circuit.net(name)
        probabilities[net] = p
        activities[net] = act
        densities[net] = dens
    return EstimateResult(
        circuit_name=circuit.name,
        stimulus_description=payload["stimulus_description"],
        input_probability=payload["input_probability"],
        input_density=payload["input_density"],
        probabilities=probabilities,
        activities=activities,
        densities=densities,
        monitored=tuple(circuit.net(name) for name in payload["monitored"]),
        node_names={n.index: n.name for n in circuit.nets},
    )


def payload_summary(payload: Dict[str, Any]) -> Dict[str, float]:
    """Headline aggregates straight from a payload (no circuit needed).

    Simulation payloads summarize their integer counts; estimate
    payloads report per-cycle rates under the same headline keys
    (``total`` / ``useful`` / ``useless`` / ``L/F``), so every surface
    that tabulates summaries renders both.
    """
    if payload.get("kind") == "explore":
        # Exploration payloads aggregate a whole search; the headline
        # "total" (the column every store surface tabulates) is the
        # number of candidates evaluated.
        return {
            "total": payload.get("n_candidates", 0),
            "candidates": payload.get("n_candidates", 0),
            "simulated": payload.get("n_simulated", 0),
            "front": len(payload.get("front", [])),
            "useful": payload.get("n_simulated", 0),
            "useless": 0,
            "L/F": 0.0,
            "rank_agreement": payload.get("rank_agreement", 0.0),
        }
    if payload.get("kind") == "estimate":
        from repro.estimate.workload import summarize_rates

        monitored = set(payload["monitored"])
        useful = total = 0.0
        for name, (_, act, dens) in payload["per_net"].items():
            if name in monitored:
                useful += act
                total += dens
        return summarize_rates(len(monitored), useful, total)
    toggles = rises = useful = useless = 0
    for counts in payload["per_node"].values():
        toggles += counts[0]
        rises += counts[1]
        useful += counts[2]
        useless += counts[3]
    return summarize_counts(
        payload["cycles"], toggles, rises, useful, useless
    )


class StoreWriteWarning(RuntimeWarning):
    """A store write failed and the entry was skipped (not fatal).

    The result that was being cached is still returned to the caller;
    only its persistence is lost.  Carries the failing path and the
    original error text.
    """


def _fsync_dir(path: Path) -> None:
    """Flush a directory entry (the rename) to stable storage."""
    try:
        fd = os.open(path, os.O_RDONLY | getattr(os, "O_DIRECTORY", 0))
    except OSError:  # pragma: no cover - platform-dependent
        return
    try:
        os.fsync(fd)
    except OSError:  # pragma: no cover - e.g. fsync on NFS dirs
        pass
    finally:
        os.close(fd)


def _atomic_write(path: Path, data: str, durable: bool = True) -> None:
    """Write *data* to *path* atomically and (by default) durably.

    Same-directory temp file + fsync + rename + parent-directory
    fsync: after this returns, the write survives a crash or power
    loss — a reader sees either the old content or all of *data*,
    never a torn mix.  ``durable=False`` skips the fsyncs for callers
    whose data is reproducible scratch.
    """
    from repro.service import faults

    faults.raise_if("store.write_oserror", key=path.name)
    fd, tmp = tempfile.mkstemp(
        dir=path.parent, prefix=f".{path.name}.", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(data)
            if durable:
                fh.flush()
                os.fsync(fh.fileno())
        os.replace(tmp, path)
        if durable:
            _fsync_dir(path.parent)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


class ResultStore:
    """On-disk LRU cache of activity results, addressed by :class:`RunKey`.

    Parameters
    ----------
    root:
        Store directory (created if missing).
    max_bytes:
        Optional bound on the summed object payload sizes; exceeded
        space is reclaimed by evicting least-recently-used entries at
        insert time.  ``None`` means unbounded.
    """

    INDEX = "index.jsonl"
    LOCK = ".lock"

    def __init__(self, root: str | os.PathLike, max_bytes: int | None = None):
        if max_bytes is not None and max_bytes < 0:
            raise ValueError("max_bytes must be >= 0")
        self.root = Path(root)
        self.objects = self.root / "objects"
        self.objects.mkdir(parents=True, exist_ok=True)
        self.jobs_dir = self.root / "jobs"
        self.max_bytes = max_bytes
        #: digest -> index entry dict, in LRU order (oldest first).
        self._index: "OrderedDict[str, Dict[str, Any]]" = OrderedDict()
        #: Digests this store removed (evicted / corrupt / cleared);
        #: kept out of the merge so a write cannot resurrect them.
        self._tombstones: set = set()
        #: In-memory state (recency updates, deferred puts) not yet
        #: persisted; see :meth:`flush` / :meth:`deferred`.
        self._dirty = False
        self._deferred = False
        #: Session counters (not persisted).
        self.hits = 0
        self.misses = 0
        #: Human-readable notes from the open-time recovery scan.
        self.recovery_notes: List[str] = []
        #: Monotonic LRU clock.  Recency is a per-store counter, not
        #: wall time: ``time.time()`` can step backwards under NTP
        #: adjustment and would then evict the hottest entry.  Seeded
        #: past every loaded entry so legacy wall-clock values (and
        #: mtime-derived rebuilds) stay older than any new touch.
        self._tick = 0
        with self._locked():
            self._recover_open()
        self._tick = max(
            self._tick,
            max(
                (e.get("last_used", 0) for e in self._index.values()),
                default=0,
            ),
        )

    def _touch(self) -> int:
        """Next LRU recency value (strictly increasing per store)."""
        self._tick += 1
        return self._tick

    # -- locking -------------------------------------------------------
    @contextmanager
    def _locked(self) -> Iterator[None]:
        """Exclusive advisory lock for index read-merge-write sections.

        Serializes concurrent writers sharing one directory so index
        rewrites (and recovery scans) cannot interleave.  Advisory
        only — readers that never rewrite the index are not blocked —
        and a no-op where ``fcntl`` is unavailable.
        """
        if fcntl is None:  # pragma: no cover - non-POSIX platforms
            yield
            return
        try:
            fh = open(self.root / self.LOCK, "a+")
        except OSError:  # pragma: no cover - unwritable root
            yield
            return
        try:
            fcntl.flock(fh, fcntl.LOCK_EX)
            try:
                yield
            finally:
                fcntl.flock(fh, fcntl.LOCK_UN)
        finally:
            fh.close()

    # -- recovery ------------------------------------------------------
    def _recover_open(self) -> None:
        """Bring the on-disk state back to a consistent view on open.

        1. Sweep stale ``.tmp`` files (leftovers of writers that died
           mid-:func:`_atomic_write`; the rename never happened, so
           they are invisible to readers and safe to delete).
        2. Load the index, skipping torn lines; when the index file
           itself is unreadable, re-derive it from the object files.
        3. Drop entries whose object file has vanished (a crashed
           eviction: index rewrite raced the unlink).
        """
        for note in self._sweep_tmp_files():
            self.recovery_notes.append(note)
        rebuilt = False
        try:
            entries = self._read_disk_index()
        except (OSError, UnicodeDecodeError) as exc:
            self.recovery_notes.append(
                f"index unreadable ({exc}); rebuilt from object files"
            )
            entries = self._rebuild_entries_from_objects()
            rebuilt = True
        for entry in entries:
            self._index[entry["digest"]] = entry
        missing = [
            digest for digest in self._index
            if not self._object_path(digest).exists()
        ]
        for digest in missing:
            del self._index[digest]
            self._tombstones.add(digest)
            self._dirty = True
            self.recovery_notes.append(
                f"dropped entry {digest[:12]} (object file missing)"
            )
        if rebuilt:
            self._dirty = True
            self._write_index_locked()

    def _sweep_tmp_files(self) -> List[str]:
        notes = []
        for directory in (self.root, self.objects):
            for tmp in directory.glob(".*.tmp"):
                try:
                    tmp.unlink()
                    notes.append(f"swept stale temp file {tmp.name}")
                except OSError:  # pragma: no cover - raced cleanup
                    pass
        return notes

    def _rebuild_entries_from_objects(self) -> List[Dict[str, Any]]:
        """Re-derive index entries by scanning ``objects/``.

        The object filename *is* the run-key digest, so rebuilt
        entries remain addressable by :meth:`get`; the decomposed key
        fields are unrecoverable and stored as ``None`` (display-only
        anyway).  Unparseable objects are skipped — :meth:`repair`
        deletes them.
        """
        entries: List[Dict[str, Any]] = []
        for path in sorted(self.objects.glob("*.json")):
            digest = path.stem
            try:
                data = path.read_text()
                payload = json.loads(data)
                summary = payload_summary(payload)
            except (OSError, json.JSONDecodeError, KeyError, TypeError):
                continue
            try:
                mtime = path.stat().st_mtime
            except OSError:  # pragma: no cover - raced unlink
                mtime = time.time()
            entries.append({
                "digest": digest,
                "key": None,
                "size": len(data),
                "checksum": content_digest(data),
                "summary": summary,
                "circuit_name": payload.get("circuit_name"),
                "delay_description": payload.get("delay_description"),
                "created": mtime,
                "last_used": mtime,
            })
        entries.sort(key=lambda e: e.get("last_used", 0.0))
        return entries

    # -- index persistence ---------------------------------------------
    def _index_path(self) -> Path:
        return self.root / self.INDEX

    def _read_disk_index(self) -> List[Dict[str, Any]]:
        path = self._index_path()
        if not path.exists():
            return []
        entries: List[Dict[str, Any]] = []
        with open(path) as fh:
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                try:
                    entry = json.loads(line)
                except json.JSONDecodeError:
                    continue  # torn trailing line from a dead writer
                if isinstance(entry, dict) and "digest" in entry:
                    entries.append(entry)
        entries.sort(key=lambda e: e.get("last_used", 0.0))
        return entries

    def _write_index(self) -> None:
        """Persist the index under the advisory writer lock."""
        with self._locked():
            self._write_index_locked()

    def _write_index_locked(self) -> None:
        """Persist the index, merging with concurrent writers' entries.

        Entries another process added since we loaded are folded in
        (our in-memory view wins per digest — it holds the freshest
        recency we know); digests this store removed stay removed.
        The caller must hold :meth:`_locked`.
        """
        merged: "OrderedDict[str, Dict[str, Any]]" = OrderedDict()
        try:
            disk_entries = self._read_disk_index()
        except (OSError, UnicodeDecodeError):
            # The on-disk index is unreadable garbage; our in-memory
            # view is the best surviving state — overwrite it.
            disk_entries = []
        for entry in disk_entries:
            digest = entry["digest"]
            if digest not in self._tombstones and digest not in self._index:
                merged[digest] = entry
        merged.update(self._index)
        self._index = OrderedDict(sorted(
            merged.items(), key=lambda kv: kv[1].get("last_used", 0.0)
        ))
        # Concurrent writers may have advanced recency past our tick;
        # re-seed so our next touch still sorts newest.
        self._tick = max(
            self._tick,
            max(
                (e.get("last_used", 0) for e in self._index.values()),
                default=0,
            ),
        )
        lines = "".join(
            json.dumps(entry, sort_keys=True) + "\n"
            for entry in self._index.values()
        )
        try:
            _atomic_write(self._index_path(), lines)
        except OSError as exc:
            # A failing disk must not abort the batch that computed
            # the results: keep the in-memory state dirty so a later
            # flush retries, and tell the user persistence is at risk.
            obs.warn_event(
                StoreWriteWarning(
                    f"index write for {self.root} failed ({exc}); "
                    "entries remain in memory only"
                ),
            )
            return
        self._tombstones.clear()
        self._dirty = False

    def flush(self) -> None:
        """Persist pending in-memory state (hit recency, deferred puts).

        Read-only sessions never mutate, so without a flush their LRU
        touches would be lost and eviction would degrade toward
        insertion order; the CLI and scheduler flush once per command
        or batch.  No-op when nothing is pending.
        """
        if self._dirty:
            self._write_index()

    @contextmanager
    def deferred(self) -> Iterator["ResultStore"]:
        """Batch index persistence: one write at exit instead of per put.

        Object files are still written (atomically) inside the block,
        so a crash mid-batch loses at most index entries for objects
        that are already on disk — never stored bytes.
        """
        self._deferred = True
        try:
            yield self
        finally:
            self._deferred = False
            self.flush()

    def _object_path(self, digest: str) -> Path:
        return self.objects / f"{digest}.json"

    # -- core API ------------------------------------------------------
    def _read_object(self, entry: Dict[str, Any]) -> Optional[Dict[str, Any]]:
        """Read + verify one entry's object; ``None`` when corrupt.

        Detection layers: the file must be readable, its content must
        match the checksum recorded at write time (catches torn writes
        *and* silent bit flips — a flipped digit is still valid JSON),
        and it must parse.  Legacy entries without a checksum fall
        back to parse-only validation.
        """
        try:
            data = self._object_path(entry["digest"]).read_text()
        except OSError:
            return None
        checksum = entry.get("checksum")
        if checksum is not None and content_digest(data) != checksum:
            return None
        try:
            return json.loads(data)
        except json.JSONDecodeError:
            return None

    def _drop_entry(self, digest: str, unlink: bool = False) -> None:
        """Forget an entry (self-heal path); optionally remove its object."""
        self._index.pop(digest, None)
        self._tombstones.add(digest)
        self._dirty = True
        if unlink:
            try:
                os.unlink(self._object_path(digest))
            except OSError:
                pass

    def get(self, key: RunKey) -> Optional[Dict[str, Any]]:
        """The stored payload for *key*, or ``None`` on a miss.

        A hit refreshes the entry's LRU recency (persisted at the next
        mutation).  Entries whose object file is missing, torn,
        bit-flipped (checksum mismatch) or unparseable are treated as
        misses and dropped — the store self-heals on first touch.
        """
        digest = key.digest()
        entry = self._index.get(digest)
        if entry is None:
            self.misses += 1
            obs.inc("store.miss")
            return None
        rt0 = time.perf_counter()
        with obs.span("store.read", digest=digest[:12]):
            payload = self._read_object(entry)
        obs.hist("store.read_s", time.perf_counter() - rt0)
        if payload is None:
            ht0 = time.perf_counter()
            self._drop_entry(digest, unlink=True)
            obs.hist("store.self_heal_s", time.perf_counter() - ht0)
            obs.instant("store.self_heal", digest=digest[:12])
            obs.inc("store.self_heal")
            self.misses += 1
            obs.inc("store.miss")
            return None
        entry["last_used"] = self._touch()
        self._index.move_to_end(digest)
        self._dirty = True
        self.hits += 1
        obs.inc("store.hit")
        return payload

    def put(self, key: RunKey, payload: Dict[str, Any]) -> Optional[Dict[str, Any]]:
        """Store *payload* under *key*; returns the index entry.

        Overwrites any prior entry for the same key (idempotent), then
        evicts LRU entries until the size bound holds again.  A failed
        object write (``OSError``: disk full, permissions, injected
        fault) is *not* fatal — the caller keeps its computed result;
        a :class:`StoreWriteWarning` is emitted and ``None`` returned.
        """
        from repro.service import faults

        digest = key.digest()
        data = json.dumps(payload, sort_keys=True)
        checksum = content_digest(data)
        try:
            # corrupt_payload models storage corrupting the bytes
            # *after* the checksum was recorded — exactly the torn
            # write / bit flip the read-side verification must catch.
            wt0 = time.perf_counter()
            with obs.span("store.write", digest=digest[:12], bytes=len(data)):
                _atomic_write(
                    self._object_path(digest),
                    faults.corrupt_payload(data, key=digest),
                )
            obs.hist("store.write_s", time.perf_counter() - wt0)
        except OSError as exc:
            obs.warn_event(
                StoreWriteWarning(
                    f"store write for {digest[:12]} failed ({exc}); "
                    "result not cached"
                ),
                digest=digest[:12],
            )
            return None
        obs.inc("store.put")
        entry = {
            "digest": digest,
            "key": asdict(key),
            "size": len(data),
            "checksum": checksum,
            "summary": payload_summary(payload),
            "circuit_name": payload.get("circuit_name"),
            "delay_description": payload.get("delay_description"),
            "created": time.time(),
            "last_used": self._touch(),
        }
        self._index[digest] = entry
        self._index.move_to_end(digest)
        self._evict_to(self.max_bytes)
        self._dirty = True
        if not self._deferred:
            self._write_index()
        return entry

    def _evict_to(self, max_bytes: int | None) -> int:
        if max_bytes is None:
            return 0
        evicted = 0
        while len(self._index) > 1 and self.total_bytes() > max_bytes:
            digest, _ = self._index.popitem(last=False)
            self._tombstones.add(digest)
            try:
                os.unlink(self._object_path(digest))
            except OSError:
                pass
            evicted += 1
        if evicted:
            obs.inc("store.eviction", evicted)
        return evicted

    # -- maintenance / introspection -----------------------------------
    def total_bytes(self) -> int:
        return sum(e["size"] for e in self._index.values())

    def __len__(self) -> int:
        return len(self._index)

    def __contains__(self, key: RunKey) -> bool:
        return key.digest() in self._index

    def entries(self) -> Iterable[Dict[str, Any]]:
        """Index entries, least-recently-used first."""
        return list(self._index.values())

    def prune(self, max_bytes: int) -> int:
        """Evict LRU entries until at most *max_bytes* remain."""
        if max_bytes < 0:
            raise ValueError("max_bytes must be >= 0")
        evicted = 0
        while self._index and self.total_bytes() > max_bytes:
            digest, _ = self._index.popitem(last=False)
            self._tombstones.add(digest)
            try:
                os.unlink(self._object_path(digest))
            except OSError:
                pass
            evicted += 1
        self._write_index()
        return evicted

    def clear(self) -> int:
        """Drop every entry (ours and any concurrent writer's)."""
        for entry in self._read_disk_index():
            self._index.setdefault(entry["digest"], entry)
        n = len(self._index)
        for digest in list(self._index):
            self._tombstones.add(digest)
            try:
                os.unlink(self._object_path(digest))
            except OSError:
                pass
        self._index.clear()
        self._write_index()
        return n

    def _sweep_missing_objects(self) -> int:
        """Drop entries whose object file vanished (raced eviction)."""
        missing = [
            digest for digest in self._index
            if not self._object_path(digest).exists()
        ]
        for digest in missing:
            self._drop_entry(digest)
        return len(missing)

    def stats(self) -> Dict[str, Any]:
        """Aggregate store statistics plus this session's hit counters.

        Self-heals first: entries whose object file has vanished (an
        eviction race in another process, manual deletion) are dropped
        so the reported entry/byte counts describe servable state —
        the same healing :meth:`get` performs on first touch.
        """
        self._sweep_missing_objects()
        return {
            "root": str(self.root),
            "entries": len(self._index),
            "total_bytes": self.total_bytes(),
            "max_bytes": self.max_bytes,
            "session_hits": self.hits,
            "session_misses": self.misses,
        }

    # -- verification / repair ------------------------------------------
    def verify(self) -> Dict[str, Any]:
        """Deep-scan the store; report every problem, change nothing.

        Checks each index entry's object file (existence, recorded
        checksum, JSON parseability, size agreement) and reports
        orphan objects (object file without an index entry — a writer
        died between the object write and the index write) and stale
        temp files.  Returns ``{"entries", "ok", "problems": [...]}``
        where each problem is ``{"digest", "kind", "detail"}`` with
        ``kind`` in ``missing-object`` / ``checksum-mismatch`` /
        ``unparseable`` / ``size-mismatch`` / ``orphan-object`` /
        ``stale-tmp``.
        """
        problems: List[Dict[str, str]] = []
        for digest, entry in self._index.items():
            path = self._object_path(digest)
            try:
                data = path.read_text()
            except OSError as exc:
                problems.append({
                    "digest": digest, "kind": "missing-object",
                    "detail": str(exc),
                })
                continue
            checksum = entry.get("checksum")
            if checksum is not None and content_digest(data) != checksum:
                problems.append({
                    "digest": digest, "kind": "checksum-mismatch",
                    "detail": (
                        f"stored {len(data)} bytes do not match the "
                        "checksum recorded at write time"
                    ),
                })
                continue
            try:
                json.loads(data)
            except json.JSONDecodeError as exc:
                problems.append({
                    "digest": digest, "kind": "unparseable",
                    "detail": str(exc),
                })
                continue
            if checksum is None and len(data) != entry.get("size"):
                # Legacy entry (no checksum): the size is the only
                # corruption signal available.
                problems.append({
                    "digest": digest, "kind": "size-mismatch",
                    "detail": (
                        f"{len(data)} bytes on disk, index says "
                        f"{entry.get('size')}"
                    ),
                })
        indexed = set(self._index)
        for path in sorted(self.objects.glob("*.json")):
            if path.stem not in indexed:
                problems.append({
                    "digest": path.stem, "kind": "orphan-object",
                    "detail": "object file has no index entry",
                })
        for directory in (self.root, self.objects):
            for tmp in directory.glob(".*.tmp"):
                problems.append({
                    "digest": tmp.name, "kind": "stale-tmp",
                    "detail": "leftover temp file from a dead writer",
                })
        return {
            "entries": len(self._index),
            "ok": len(self._index) - sum(
                1 for p in problems
                if p["kind"] not in ("orphan-object", "stale-tmp")
            ),
            "problems": problems,
        }

    def repair(self) -> Dict[str, int]:
        """Fix everything :meth:`verify` reports; keep valid entries.

        Corrupt entries (missing/torn/bit-flipped/unparseable objects)
        are dropped — their next request recomputes and re-caches.
        Parseable orphan objects are *adopted* back into the index
        (their filename is the addressing digest, so they become
        servable again); unparseable orphans and stale temp files are
        deleted.  Uncorrupted entries are untouched and remain
        servable.  Returns action counts.
        """
        with self._locked():
            dropped = adopted = deleted = swept = 0
            for problem in self.verify()["problems"]:
                kind = problem["kind"]
                digest = problem["digest"]
                if kind in (
                    "missing-object", "checksum-mismatch",
                    "unparseable", "size-mismatch",
                ):
                    self._drop_entry(digest, unlink=True)
                    dropped += 1
                elif kind == "orphan-object":
                    path = self._object_path(digest)
                    try:
                        data = path.read_text()
                        payload = json.loads(data)
                        summary = payload_summary(payload)
                    except (
                        OSError, json.JSONDecodeError, KeyError, TypeError,
                    ):
                        try:
                            path.unlink()
                            deleted += 1
                        except OSError:
                            pass
                        continue
                    try:
                        mtime = path.stat().st_mtime
                    except OSError:  # pragma: no cover - raced unlink
                        mtime = time.time()
                    self._index[digest] = {
                        "digest": digest,
                        "key": None,
                        "size": len(data),
                        "checksum": content_digest(data),
                        "summary": summary,
                        "circuit_name": payload.get("circuit_name"),
                        "delay_description": payload.get(
                            "delay_description"
                        ),
                        "created": mtime,
                        "last_used": mtime,
                    }
                    self._tombstones.discard(digest)
                    self._dirty = True
                    adopted += 1
            swept += len(self._sweep_tmp_files())
            self._dirty = True
            self._write_index_locked()
        return {
            "dropped": dropped,
            "adopted": adopted,
            "deleted": deleted,
            "swept_tmp": swept,
        }
