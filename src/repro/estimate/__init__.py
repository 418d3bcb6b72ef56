"""Probabilistic activity estimation (extension beyond the paper).

The paper measures activity by simulation; contemporaneous work (Najm's
transition density, cited lineage of the paper's refs [2-4]) estimates
it by propagating probabilities through the netlist.  This package
implements both classic estimators so the simulator can be
cross-checked and the ablation experiment can quantify where
probabilistic estimates break down (reconvergent fanout, glitches):

* :mod:`repro.estimate.probability` — exact-under-independence signal
  probabilities and zero-delay (useful-transition) switching activity;
* :mod:`repro.estimate.density` — Najm-style transition densities via
  Boolean-difference sensitisation, an upper-bound proxy that *does*
  grow with glitch activity;
* :mod:`repro.estimate.passes` — the per-kind rules both run, as one
  loop per pass over the compiled IR's topological order;
* :mod:`repro.estimate.workload` — stimulus-aware input statistics
  derived from the declarative :class:`~repro.sim.vectors.StimulusSpec`
  registry, bundled into one :class:`EstimateResult` per (circuit,
  workload) — the unit the service layer caches;
* :mod:`repro.estimate.reference` — the original dict-walking
  implementations, kept as the oracle the loop passes are
  property-tested against (1e-12 agreement).
"""

from repro.estimate.probability import (
    signal_probabilities,
    switching_activity,
)
from repro.estimate.density import transition_densities
from repro.estimate.workload import (
    EstimateResult,
    estimate_workload,
    input_statistics,
    net_class,
)

__all__ = [
    "signal_probabilities",
    "switching_activity",
    "transition_densities",
    "EstimateResult",
    "estimate_workload",
    "input_statistics",
    "net_class",
]
