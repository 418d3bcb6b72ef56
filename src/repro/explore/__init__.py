"""Design-space exploration: estimate-guided search for glitch reduction.

The seventh architecture layer.  The paper's conclusion names two
levers against glitch power — "balancing delay paths and/or by
introducing flipflops" — and the earlier layers provide each piece in
isolation: the transforms (:mod:`repro.opt`, :mod:`repro.retime`), a
glitch-exact oracle (:mod:`repro.sim`), cheap analytic estimates
(:mod:`repro.estimate`), and a content-addressed result service
(:mod:`repro.service`).  This package closes the loop into an
automated optimizer:

* :mod:`repro.explore.specs` — the declarative, hashable
  :class:`TransformSpec` catalog and :class:`ExploreSpace` (transform
  chains × depth × delay regime × area/latency constraints);
* :mod:`repro.explore.cost` — the multi-objective cost model: power
  (analytic fused estimate or glitch-exact simulation), area, latency,
  critical path;
* :mod:`repro.explore.pareto` — Pareto-front extraction over
  (power × area × latency);
* :mod:`repro.explore.search` — the drivers: exhaustive sweep and
  estimate-guided greedy/beam search, with candidate simulations
  fanned out and cached through the service layer and the
  estimate-vs-sim rank agreement recorded;
* :mod:`repro.explore.report` — CLI/driver table rendering.

Exposed on the CLI as ``repro explore`` and reproduced across the
circuit catalog by :mod:`repro.experiments.explore_frontier`.
"""

from repro import _lazy_exports

__getattr__, __dir__, __all__ = _lazy_exports(globals(), {
    ".cost": (
        "CostContext",
        "CostVector",
        "estimated_cost",
        "rank_agreement",
        "simulated_cost",
        "transition_instants",
    ),
    ".pareto": ("dominated_with_margin", "pareto_front"),
    ".report": ("format_candidates", "format_explore", "format_front"),
    ".search": ("Candidate", "ExploreResult", "explore", "explore_key"),
    ".specs": (
        "TRANSFORMS",
        "Chain",
        "ExploreSpace",
        "TransformSpec",
        "apply_chain",
        "default_space",
        "describe_chain",
    ),
})
