"""The benchmark's workloads: commands, generated inputs and output checks.

Each workload is a set of ``repro`` CLI commands run in fresh
processes.  One timed *iteration* is a cold pass, timed as ``wall_s``;
for ``analyze-farm16`` it is followed by a warm pass served from the
store the cold pass filled, timed as ``warm_s``.  An untimed *prime*
pass first warms ``__pycache__`` and the OS page cache.

The workload seed never reaches the program directly: it derives the
``--seed`` values (or the sweep's seed axis) the commands receive.

Every pass is checked.  A pass with a non-zero exit, output that
differs from the reference recorded for the seed, or output that
differs from the first cold pass of the run counts as failed; so does
a warm pass that was not served from the store.  A ``submit`` pass
counts one operation per sweep point.
"""

from __future__ import annotations

import json
import os
import random
import re
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Set

REFERENCES = os.path.join(os.path.dirname(os.path.abspath(__file__)), "references.json")

COLD, WARM, PRIME = "cold", "warm", "prime"

SWEEP_CIRCUITS = ("rca16", "array8", "array16", "wallace16")
SWEEP_SEEDS = 8
SWEEP_VECTORS = 2000
SWEEP_JOBS = 2
SWEEP_POINTS = len(SWEEP_CIRCUITS) * SWEEP_SEEDS * 2


def derive_seeds(workload: str, seed: int, n: int) -> List[int]:
    """*n* distinct program seeds generated from the workload seed."""
    rng = random.Random(f"e2ebench:{workload}:{seed}")
    return rng.sample(range(1, 2**31 - 1), n)


@dataclass
class Pass:
    """One command of a workload: its role and its ``repro.cli`` arguments."""

    role: str
    args: List[str]


#: Failure key meaning "every operation of the pass failed".
ALL = "*"


@dataclass
class Check:
    """Outcome of checking one pass.

    Each problem names the operation it fails (a sweep point's label,
    or ``"pass"`` for single-operation passes), so an operation that
    fails several checks counts once.
    """

    attempted: int
    problems: List[str] = field(default_factory=list)
    keys: Set[str] = field(default_factory=set)

    def fail(self, problem: str, key: str = "pass") -> None:
        self.problems.append(problem)
        self.keys.add(key)

    @property
    def failed(self) -> int:
        if ALL in self.keys:
            return self.attempted
        return min(self.attempted, len(self.keys))


def _table_rows(lines: List[str], start: int) -> List[List[str]]:
    """Cells of a ``format_table`` body whose title is ``lines[start]``."""
    rows = []
    i = start + 4  # title, ====, header, ----
    while i < len(lines) and "|" in lines[i]:
        rows.append([cell.strip() for cell in lines[i].split("|")])
        i += 1
    return rows


class Workload:
    name = ""
    #: CLI subcommand whose ``--help`` measures set-up time.
    subcommand = ""

    def program_args(self, seed: int) -> List[str]:
        raise NotImplementedError

    def passes(self, seed: int, store: str) -> List[Pass]:
        """One timed iteration; *store* is a fresh, empty directory."""
        raise NotImplementedError

    def prime(self, seed: int, store: str) -> Pass:
        """The untimed pass that warms caches: a cold pass into *store*."""
        return Pass(PRIME, self.passes(seed, store)[0].args)

    def ops(self) -> int:
        """Operations one pass performs."""
        return 1

    def parse(self, stdout: str) -> Optional[Dict[str, Any]]:
        """The checked part of a pass's output, or ``None`` if absent."""
        raise NotImplementedError

    def reference_of(self, parsed: Dict[str, Any]) -> Any:
        """What the reference file records for one cold pass."""
        raise NotImplementedError

    def compare(self, check: Check, got: Any, want: Any, what: str) -> None:
        if got != want:
            check.fail(f"{what}: output differs")

    def check(
        self,
        role: str,
        returncode: int,
        parsed: Optional[Dict[str, Any]],
        reference: Any,
        first_cold: Optional[Dict[str, Any]],
        cold: Optional[Dict[str, Any]],
    ) -> Check:
        """Check one pass against the reference and earlier passes.

        *reference* is the recorded output for this seed (``None`` when
        the seed has none), *first_cold* the run's first cold pass and
        *cold* the cold pass of the same iteration (for a warm pass).
        """
        check = Check(self.ops())
        if parsed is None:
            check.fail(f"{role}: no parsable output (exit {returncode})", ALL)
            return check
        self.check_exit(check, role, returncode, parsed)
        self.check_served(check, role, parsed)
        got = self.reference_of(parsed)
        if reference is not None:
            self.compare(check, got, reference, f"{role} vs reference")
        if first_cold is not None:
            self.compare(check, got, self.reference_of(first_cold), f"{role} vs first cold pass")
        if role == WARM and cold is not None:
            self.check_warm_equals_cold(check, parsed, cold)
        return check

    def check_exit(
        self, check: Check, role: str, returncode: int, parsed: Dict[str, Any]
    ) -> None:
        if returncode != 0:
            check.fail(f"{role}: exit {returncode}")

    def check_served(self, check: Check, role: str, parsed: Dict[str, Any]) -> None:
        """Fail a pass whose result came from the wrong place."""

    def check_warm_equals_cold(
        self, check: Check, warm: Dict[str, Any], cold: Dict[str, Any]
    ) -> None:
        self.compare(check, self.reference_of(warm), self.reference_of(cold), "warm vs cold")

    def extra_metrics(self, parsed_by_role: Dict[str, List[Dict[str, Any]]]) -> Dict[str, float]:
        """Per-layer counts the program prints itself (traced run)."""
        return {}


class AnalyzeFarm16(Workload):
    name = "analyze-farm16"
    subcommand = "analyze"

    def program_args(self, seed: int) -> List[str]:
        (program_seed,) = derive_seeds(self.name, seed, 1)
        return [
            "analyze", "--circuit", "farm16", "--backend", "auto",
            "--seed", str(program_seed),
        ]

    def passes(self, seed, store):
        args = self.program_args(seed) + ["--cache", store]
        return [Pass(COLD, args), Pass(WARM, args)]

    def parse(self, stdout):
        lines = stdout.splitlines()
        banner = next((ln for ln in lines if ln.startswith("[cache] ")), None)
        start = next(
            (i for i, ln in enumerate(lines) if "random vectors" in ln), None
        )
        if banner is None or start is None:
            return None
        rows = _table_rows(lines, start)
        if not rows:
            return None
        return {
            "source": banner.split()[1].rstrip(":"),
            "table": "\n".join(lines[start:start + 4 + len(rows)]),
            "rows": {r[0]: r[1] for r in rows},
        }

    def reference_of(self, parsed):
        return parsed["rows"]

    def check_served(self, check, role, parsed):
        want = "cache" if role == WARM else "simulated"
        if parsed["source"] != want:
            check.fail(f"{role}: expected a '{want}' run, got '{parsed['source']}'")

    def check_warm_equals_cold(self, check, warm, cold):
        if warm["table"] != cold["table"]:
            check.fail("warm table bytes differ from the cold pass")


class ExploreArray16(Workload):
    name = "explore-array16"
    subcommand = "explore"

    def program_args(self, seed: int) -> List[str]:
        (program_seed,) = derive_seeds(self.name, seed, 1)
        return [
            "explore", "--circuit", "array16", "--max-depth", "3",
            "--seed", str(program_seed),
        ]

    def passes(self, seed, store):
        return [Pass(COLD, self.program_args(seed))]  # in-process, no store

    def parse(self, stdout):
        lines = stdout.splitlines()
        start = next(
            (i for i, ln in enumerate(lines) if ln.startswith("Pareto front")), None
        )
        title = re.search(
            r"(\d+) unique candidate\(s\) \((\d+) chains\), (\d+) simulated", stdout
        )
        if start is None or title is None:
            return None
        front = [row[:5] for row in _table_rows(lines, start)]
        if not front:
            return None
        reuse = re.search(r"delta reuse: (\d+)%", stdout)
        return {
            "front": front,
            "candidates": int(title.group(1)),
            "simulated": int(title.group(3)),
            "delta_reuse_frac": int(reuse.group(1)) / 100.0 if reuse else 0.0,
        }

    def reference_of(self, parsed):
        return parsed["front"]

    def extra_metrics(self, parsed_by_role):
        cold = parsed_by_role.get(COLD) or [{}]
        return {
            "explore.candidates": float(cold[0].get("candidates", 0)),
            "explore.simulated": float(cold[0].get("simulated", 0)),
            "explore.delta_reuse_frac": float(cold[0].get("delta_reuse_frac", 0.0)),
        }


class SweepCatalog(Workload):
    name = "sweep-catalog"
    subcommand = "submit"

    def program_args(self, seed: int) -> List[str]:
        seeds = derive_seeds(self.name, seed, SWEEP_SEEDS)
        return [
            "submit", "--jobs", str(SWEEP_JOBS), "--vectors", str(SWEEP_VECTORS),
            "--sweep", "circuit=" + ",".join(SWEEP_CIRCUITS),
            "--sweep", "seed=" + ",".join(str(s) for s in seeds),
            "--sweep", "estimate=0,1",
        ]

    def passes(self, seed, store):
        return [Pass(COLD, self.program_args(seed) + ["--cache", store])]

    def ops(self):
        return SWEEP_POINTS

    def parse(self, stdout):
        lines = stdout.splitlines()
        start = next(
            (i for i, ln in enumerate(lines) if re.match(r"job-\S+: \d+ hit", ln)), None
        )
        if start is None:
            return None
        points = {}
        for row in _table_rows(lines, start):
            if len(row) >= 5:
                points[row[0]] = {"source": row[1], "counts": row[2:5]}
        return {"points": points} if points else None

    def reference_of(self, parsed):
        return {label: p["counts"] for label, p in parsed["points"].items()}

    def compare(self, check, got, want, what):
        for label in sorted(set(got) | set(want)):
            if got.get(label) != want.get(label):
                check.fail(f"{what}: point {label!r} differs", label)

    def check_exit(self, check, role, returncode, parsed):
        # submit exits 1 when points were quarantined; those points
        # fail one by one in check_served.
        quarantined = any(
            p["source"] == "failed" for p in parsed["points"].values()
        )
        if returncode != 0 and not quarantined:
            check.fail(f"{role}: exit {returncode}")

    def check_served(self, check, role, parsed):
        # Every point of a pass into an empty store must be computed.
        points = parsed["points"]
        for missing in range(SWEEP_POINTS - len(points)):
            check.fail(f"{role}: point missing", f"missing-{missing}")
        for label, point in points.items():
            if point["source"] != "computed":
                check.fail(f"{role}: point {label!r} is {point['source']}", label)

    def extra_metrics(self, parsed_by_role):
        failed = sum(
            1
            for parsed in parsed_by_role.get(COLD, [])
            for point in parsed["points"].values()
            if point["source"] == "failed"
        )
        return {"service.failed_points": float(failed)}


WORKLOADS: Dict[str, Workload] = {
    w.name: w for w in (AnalyzeFarm16(), ExploreArray16(), SweepCatalog())
}


def load_references(path: str = REFERENCES) -> Dict[str, Any]:
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        return {}


def reference_for(refs: Dict[str, Any], workload: str, seed: int) -> Any:
    return refs.get(workload, {}).get(str(seed))
