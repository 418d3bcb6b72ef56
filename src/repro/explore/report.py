"""Rendering of exploration outcomes for the CLI and experiment drivers."""

from __future__ import annotations

from typing import List

from repro.core.report import format_table
from repro.explore.search import Candidate, ExploreResult


def _cost_cells(candidate: Candidate) -> List:
    est = candidate.estimate
    exact = candidate.exact
    return [
        "-" if est is None else round(est.power_mw, 3),
        "-" if exact is None else round(exact.power_mw, 3),
        "-" if exact is None else round(exact.area_mm2, 3),
        candidate.latency,
        "-" if exact is None else exact.period,
    ]


def format_candidates(result: ExploreResult) -> str:
    """The full candidate table: estimates, exact costs, front flags."""
    rows = []
    for c in sorted(
        result.candidates,
        key=lambda c: (c.exact is None, getattr(c.exact, "power_mw", 0.0)),
    ):
        status = "front" if c.on_front else (
            "simulated" if c.exact is not None else (
                "infeasible" if not c.feasible else "pruned"
            )
        )
        rows.append([c.label, *_cost_cells(c), status])
    return format_table(
        ["candidate", "est_mW", "sim_mW", "area_mm2", "latency",
         "period", "status"],
        rows,
        title=(
            f"{result.circuit_name}: {result.strategy} search, "
            f"{len(result.candidates)} unique candidate(s) "
            f"({result.n_enumerated} chains), "
            f"{result.n_simulated} simulated"
        ),
    )


def format_front(result: ExploreResult) -> str:
    """The discovered Pareto front with activity detail."""
    rows = []
    for c in result.front():
        activity = c.activity or {}
        rows.append([
            c.label,
            round(c.exact.power_mw, 3),
            round(c.exact.area_mm2, 3),
            c.exact.period,
            c.latency,
            activity.get("useful", "-"),
            activity.get("useless", "-"),
            activity.get("L/F", "-"),
        ])
    agreement = (
        "n/a" if result.rank_agreement is None else result.rank_agreement
    )
    return format_table(
        ["point", "power_mW", "area_mm2", "period", "latency", "useful",
         "useless", "L/F"],
        rows,
        title=(
            f"Pareto front — power x area x critical path "
            f"(estimate-vs-sim rank agreement {agreement})"
        ),
    )


def format_explore(result: ExploreResult) -> str:
    """Candidate table plus front, ready to print."""
    return "\n\n".join([format_candidates(result), format_front(result)])
