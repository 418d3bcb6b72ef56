"""Search drivers: exhaustive sweep and estimate-guided greedy/beam search.

Every driver works on the same candidate representation — a chain of
:class:`~repro.explore.specs.TransformSpec`\\ s applied to the base
circuit, deduplicated by circuit fingerprint (``balance+balance`` and
``balance`` collapse to one candidate; the merged labels are kept for
reporting).  The difference is *which candidates pay for glitch-exact
simulation*:

* :func:`explore` with ``strategy="exhaustive"`` simulates every
  unique feasible candidate — the oracle, affordable for small spaces;
* ``strategy="beam"`` (or ``"greedy"``, beam width 1) expands the
  chain space guided by the fused analytic cost estimate
  (:func:`repro.explore.cost.estimated_cost`), prunes candidates that
  are clearly estimate-dominated
  (:func:`repro.explore.pareto.dominated_with_margin` — the exact
  structural objectives must be no better and the estimated power
  must be worse by a safety margin), and runs glitch-exact simulation
  only on the surviving frontier.

Every unique candidate is built once, from scratch: its transform
output is estimated by :func:`~repro.explore.cost.estimated_cost`.
Transform applications are memoized per parent circuit object
(:data:`_TRANSFORM_MEMO`).  Candidate simulations fan out through the
batch machinery (:func:`repro.service.jobs.run_circuit_tasks`): with a
result store they resume warm — re-running an exploration, or running
a larger one that shares candidates with a previous run, does zero
duplicate simulation work.  The estimate-vs-sim power rank agreement
of every run is recorded so users can audit when estimate pruning is
trustworthy (see the README's estimation-gap guidance).
"""

from __future__ import annotations

import time
import weakref
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Tuple

from repro.explore.cost import (
    CostContext,
    CostVector,
    estimated_cost,
    rank_agreement,
    simulated_cost,
)
from repro.explore.pareto import dominated_with_margin, pareto_front
from repro.explore.specs import (
    Chain,
    ExploreSpace,
    TransformSpec,
    default_space,
    describe_chain,
)
from repro.netlist.circuit import Circuit
from repro.netlist.compiled import content_digest, delay_fingerprint
from repro.obs import trace as obs
from repro.service.jobs import CircuitTask, resolve_delay, run_circuit_tasks
from repro.service.store import EXPLORE, ResultStore, RunKey, decode_result
from repro.sim.delays import DelayModel
from repro.sim.vectors import StimulusSpec, UniformStimulus

STRATEGIES = ("exhaustive", "beam", "greedy")

#: Transform-application memo, keyed per parent :class:`Circuit`
#: *object* (same weak-keyed idiom as the retiming-graph memo in
#: :mod:`repro.explore.specs`).  A repeated exploration of the same
#: netlist — a service sweep, an interactive session widening the
#: beam, the committed throughput benchmark — re-applies the exact
#: same ``(parent, spec)`` moves, and the transform passes (retiming's
#: LP in particular) dominate expansion cost.  Because the cached child
#: is itself the parent object of the next depth, the whole chain tree
#: becomes memo-stable after one pass.  Entries die with the parent
#: circuit; the per-circuit slot is keyed by ``Circuit.version`` so a
#: mutated netlist can never reuse stale results.
_TRANSFORM_MEMO: "weakref.WeakKeyDictionary[Circuit, Dict[tuple, tuple]]" = (
    weakref.WeakKeyDictionary()
)


def _applied(
    parent: Circuit, spec: TransformSpec, delay_model: DelayModel
) -> Tuple[Circuit, Dict[str, Any]]:
    """Memoized ``spec.apply(parent, delay_model)``."""
    per = _TRANSFORM_MEMO.setdefault(parent, {})
    key = (parent.version, delay_model.cache_token(), spec)
    hit = per.get(key)
    if hit is None:
        for stale in [k for k in per if k[0] != parent.version]:
            del per[stale]
        hit = per[key] = spec.apply(parent, delay_model)
    return hit


@dataclass
class Candidate:
    """One unique design point: a transform chain and its evaluations."""

    chain: Chain
    label: str
    fingerprint: str
    latency: int
    circuit: Optional[Circuit] = None  # transient; absent after decode
    merged: List[str] = field(default_factory=list)
    estimate: Optional[CostVector] = None
    exact: Optional[CostVector] = None
    activity: Optional[Dict[str, Any]] = None
    feasible: bool = True
    on_front: bool = False

    def to_dict(self) -> Dict[str, Any]:
        return {
            "chain": [t.to_dict() for t in self.chain],
            "label": self.label,
            "fingerprint": self.fingerprint,
            "latency": self.latency,
            "merged": list(self.merged),
            "estimate": None if self.estimate is None else self.estimate.to_dict(),
            "exact": None if self.exact is None else self.exact.to_dict(),
            "activity": self.activity,
            "feasible": self.feasible,
            "on_front": self.on_front,
        }

    @staticmethod
    def from_dict(doc: Mapping[str, Any]) -> "Candidate":
        return Candidate(
            chain=tuple(TransformSpec.from_dict(t) for t in doc["chain"]),
            label=doc["label"],
            fingerprint=doc["fingerprint"],
            latency=int(doc["latency"]),
            merged=list(doc.get("merged", [])),
            estimate=(
                None if doc.get("estimate") is None
                else CostVector.from_dict(doc["estimate"])
            ),
            exact=(
                None if doc.get("exact") is None
                else CostVector.from_dict(doc["exact"])
            ),
            activity=doc.get("activity"),
            feasible=bool(doc.get("feasible", True)),
            on_front=bool(doc.get("on_front", False)),
        )


@dataclass
class ExploreResult:
    """Outcome of one design-space exploration."""

    circuit_name: str
    strategy: str
    beam_width: int
    space: ExploreSpace
    stimulus_description: str
    n_vectors: int
    frequency: float
    candidates: List[Candidate]
    n_enumerated: int
    n_simulated: int
    rank_agreement: Optional[float]

    def front(self) -> List[Candidate]:
        """The discovered Pareto front, cheapest-power first."""
        points = [c for c in self.candidates if c.on_front]
        return sorted(points, key=lambda c: c.exact.power_mw)

    def candidate(self, label: str) -> Candidate:
        """Look up a candidate by its (or a merged) chain label."""
        for c in self.candidates:
            if c.label == label or label in c.merged:
                return c
        raise KeyError(f"no candidate labelled {label!r}")

    def summary(self) -> Dict[str, Any]:
        return {
            "candidates": len(self.candidates),
            "enumerated": self.n_enumerated,
            "simulated": self.n_simulated,
            "front": len([c for c in self.candidates if c.on_front]),
            "rank_agreement": self.rank_agreement,
        }

    def to_payload(self) -> Dict[str, Any]:
        return {
            "schema": 1,
            "kind": "explore",
            "circuit_name": self.circuit_name,
            "strategy": self.strategy,
            "beam_width": self.beam_width,
            "space": self.space.to_dict(),
            "stimulus_description": self.stimulus_description,
            "n_vectors": self.n_vectors,
            "frequency": self.frequency,
            "candidates": [c.to_dict() for c in self.candidates],
            "front": [c.label for c in self.candidates if c.on_front],
            "n_candidates": len(self.candidates),
            "n_enumerated": self.n_enumerated,
            "n_simulated": self.n_simulated,
            "rank_agreement": self.rank_agreement,
        }

    @staticmethod
    def from_payload(payload: Mapping[str, Any]) -> "ExploreResult":
        """Decode :meth:`to_payload` output.

        Keys this version does not read, such as the reuse statistics
        older stored payloads carry, are ignored.
        """
        return ExploreResult(
            circuit_name=payload["circuit_name"],
            strategy=payload["strategy"],
            beam_width=int(payload["beam_width"]),
            space=ExploreSpace.from_dict(payload["space"]),
            stimulus_description=payload["stimulus_description"],
            n_vectors=int(payload["n_vectors"]),
            frequency=float(payload["frequency"]),
            candidates=[
                Candidate.from_dict(c) for c in payload["candidates"]
            ],
            n_enumerated=int(payload["n_enumerated"]),
            n_simulated=int(payload["n_simulated"]),
            rank_agreement=payload.get("rank_agreement"),
        )


def explore_key(
    circuit: Circuit,
    space: ExploreSpace,
    stimulus: StimulusSpec,
    n_vectors: int,
    strategy: str,
    beam_width: int,
    context: CostContext,
    power_margin: float,
) -> RunKey:
    """Content-addressed identity of a whole exploration run.

    Hashes everything that determines the outcome: the base circuit,
    the delay regime, the space (transforms, depth, constraints), the
    workload, the search strategy and its pruning parameters, and the
    cost regime (frequency + default-model parameters).  Only valid
    for the default cost models — :func:`explore` checks
    :attr:`CostContext.cacheable` and skips the whole-result cache for
    custom model instances (the per-candidate simulation cache is
    still exact there).
    """
    delay_model = resolve_delay(space.delay)
    return RunKey(
        circuit_fp=circuit.fingerprint(),
        delay_fp=delay_fingerprint(circuit, delay_model),
        stimulus_fp=content_digest((
            "explore-v1",
            space.fingerprint(),
            stimulus.fingerprint(),
            strategy,
            beam_width,
            power_margin,
            context.fingerprint_fields(),
        )),
        n_vectors=n_vectors,
        result_class=EXPLORE,
    )


def _make_candidate(
    chain: Chain,
    circuit: Circuit,
    latency: int,
    space: ExploreSpace,
    delay_model: DelayModel,
    stimulus: StimulusSpec,
    context: CostContext,
) -> Candidate:
    label = describe_chain(chain)
    ct0 = time.perf_counter()
    with obs.span("explore.candidate", label=label):
        est = estimated_cost(
            circuit, delay_model, stimulus, context, latency
        )
    obs.hist("explore.candidate_s", time.perf_counter() - ct0)
    obs.inc("explore.candidates")
    feasible = True
    if space.max_area_mm2 is not None and est.area_mm2 > space.max_area_mm2:
        feasible = False
    if space.max_latency is not None and latency > space.max_latency:
        feasible = False
    return Candidate(
        chain=chain,
        label=label,
        fingerprint=circuit.fingerprint(),
        latency=latency,
        circuit=circuit,
        estimate=est,
        feasible=feasible,
    )


def _expand_candidates(
    circuit: Circuit,
    space: ExploreSpace,
    delay_model: DelayModel,
    stimulus: StimulusSpec,
    context: CostContext,
    beam_width: Optional[int],
) -> tuple[List[Candidate], int]:
    """Grow the candidate set chain by chain, deduplicating by fingerprint.

    With ``beam_width=None`` every unique candidate is expanded
    (exhaustive enumeration); otherwise only the *beam_width*
    estimate-cheapest new candidates of each depth are expanded
    further, which bounds the estimator work on large spaces.  A chain
    whose circuit fingerprints to a known candidate is merged into it
    (charged to ``explore.pruned``) and costs no estimator work; every
    new candidate is built once, from scratch, by :func:`_make_candidate`.
    Returns ``(candidates, n_enumerated)`` where *n_enumerated* counts
    chain applications before deduplication.
    """
    root = _make_candidate(
        (), circuit, 0, space, delay_model, stimulus, context
    )
    by_fp: Dict[str, Candidate] = {root.fingerprint: root}
    candidates = [root]
    frontier = [root]
    n_enumerated = 1
    for _ in range(space.max_depth):
        fresh: List[Candidate] = []
        for parent in frontier:
            for spec in space.transforms:
                n_enumerated += 1
                new_circuit, info = _applied(
                    parent.circuit, spec, delay_model
                )
                latency = parent.latency + info.get("latency", 0)
                label = describe_chain(parent.chain + (spec,))
                fp = new_circuit.fingerprint()
                known = by_fp.get(fp)
                if known is not None:
                    if label != known.label and label not in known.merged:
                        known.merged.append(label)
                    obs.inc("explore.pruned")
                    obs.instant(
                        "explore.prune", label=label,
                        decision="deduplicated",
                    )
                    continue
                cand = _make_candidate(
                    parent.chain + (spec,), new_circuit, latency,
                    space, delay_model, stimulus, context,
                )
                by_fp[fp] = cand
                candidates.append(cand)
                fresh.append(cand)
        if beam_width is not None:
            fresh.sort(key=lambda c: c.estimate.power_mw)
            frontier = fresh[:beam_width]
        else:
            frontier = fresh
    return candidates, n_enumerated


def explore(
    circuit: Circuit,
    space: ExploreSpace | None = None,
    strategy: str = "beam",
    beam_width: int = 4,
    n_vectors: int = 120,
    stimulus: StimulusSpec | None = None,
    context: CostContext | None = None,
    power_margin: float = 0.05,
    store: ResultStore | None = None,
    processes: int | None = None,
) -> ExploreResult:
    """Search the transform space of *circuit* for minimum glitch power.

    Ranks candidates with the fused analytic estimators and runs
    glitch-exact simulation on every candidate (``exhaustive``) or
    only on the estimate-surviving frontier (``beam`` / ``greedy``),
    then extracts the Pareto front over (power, area, latency) from
    the simulated costs.  Chains that yield an already-seen circuit
    (same fingerprint) merge into its candidate, and transform results
    are memoized per parent circuit object, so a second call on the
    same *circuit* applies no transform.  With *store*, candidate
    simulations resume warm through the content-addressed cache and
    the whole exploration result is itself cached under the
    :data:`~repro.service.store.EXPLORE` result class — an identical
    re-run returns without estimating or simulating anything.
    """
    if strategy not in STRATEGIES:
        raise ValueError(
            f"unknown strategy {strategy!r}; choose from {STRATEGIES}"
        )
    if beam_width < 1:
        raise ValueError("beam_width must be >= 1")
    space = space or default_space()
    stimulus = stimulus or UniformStimulus()
    context = context or CostContext()
    delay_model = resolve_delay(space.delay)
    if delay_model is None:
        raise ValueError(
            "explore needs a glitch-capable delay regime; "
            "'zero' has no useless transitions to reduce"
        )
    width = 1 if strategy == "greedy" else beam_width

    # The whole-result cache is only sound for the default cost models
    # (a custom tech/clock/area instance can change behaviour without
    # changing any hashed field); candidate *simulations* below still
    # cache either way — they do not depend on the cost models.
    key = None
    if store is not None and context.cacheable:
        key = explore_key(
            circuit, space, stimulus, n_vectors, strategy, width,
            context, power_margin,
        )
        payload = store.get(key)
        if payload is not None:
            return ExploreResult.from_payload(payload)

    with obs.span(
        "explore.expand", circuit=circuit.name, strategy=strategy
    ):
        candidates, n_enumerated = _expand_candidates(
            circuit, space, delay_model, stimulus, context,
            None if strategy == "exhaustive" else width,
        )

    feasible = [c for c in candidates if c.feasible]
    if strategy == "exhaustive":
        to_simulate = list(feasible)
    else:
        est_costs = [c.estimate for c in feasible]
        to_simulate = []
        for c in feasible:
            pruned = dominated_with_margin(
                c.estimate, est_costs, power_margin
            )
            obs.instant(
                "explore.prune", label=c.label,
                decision="pruned" if pruned else "kept",
            )
            if pruned:
                obs.inc("explore.pruned")
            else:
                to_simulate.append(c)

    tasks = [
        CircuitTask.from_circuit(
            c.circuit, space.delay, stimulus, n_vectors, label=c.label
        )
        for c in to_simulate
    ]
    with obs.span(
        "explore.simulate", circuit=circuit.name, points=len(tasks)
    ):
        payloads = run_circuit_tasks(tasks, store=store, processes=processes)
        for cand, payload in zip(to_simulate, payloads):
            activity = decode_result(payload, cand.circuit)
            cand.exact = simulated_cost(
                cand.circuit, activity, delay_model, context, cand.latency
            )
            cand.activity = activity.summary()

    for cand in pareto_front(to_simulate, lambda c: c.exact):
        cand.on_front = True

    simulated = [c for c in candidates if c.exact is not None]
    agreement = None
    if len(simulated) >= 2:
        agreement = rank_agreement(
            [c.estimate.power_mw for c in simulated],
            [c.exact.power_mw for c in simulated],
        )

    result = ExploreResult(
        circuit_name=circuit.name,
        strategy=strategy,
        beam_width=width,
        space=space,
        stimulus_description=stimulus.describe(),
        n_vectors=n_vectors,
        frequency=context.frequency,
        candidates=candidates,
        n_enumerated=n_enumerated,
        n_simulated=len(to_simulate),
        rank_agreement=agreement,
    )
    if store is not None:
        if key is not None:
            store.put(key, result.to_payload())
        store.flush()
    return result
