"""Declarative transform catalog: the axes of the design space.

A :class:`TransformSpec` is a frozen, hashable description of one
parameterized netlist transform — the same declarative idiom the
service layer uses for stimuli (:class:`~repro.sim.vectors.StimulusSpec`)
— so a search candidate is just a *chain* (tuple) of specs and the
whole space is content-addressable.  The registry (:data:`TRANSFORMS`
/ :meth:`TransformSpec.apply`) wraps the existing optimisation passes:

* ``balance`` — buffer-insertion path balancing
  (:func:`repro.opt.balance.balance_paths`): provably glitch-free at
  the cost of buffer area and switching;
* ``retime`` — pipelining via seeded registers + Leiserson–Saxe
  minimum-period retiming
  (:func:`repro.retime.pipeline.pipeline_circuit`), parameterized by
  the number of extra stages (``stages=0`` is plain min-period
  retiming);
* ``cleanup`` — constant propagation + dead-cell elimination
  (:func:`repro.opt.transform.propagate_constants`), which keeps
  optimised variants honest and collapses constant-fed structures;
* ``strip_buffers`` — buffer removal
  (:func:`repro.opt.transform.strip_buffers`), the inverse of
  ``balance`` (available for spaces that explore un-balancing).

An :class:`ExploreSpace` bundles the available transforms, the chain
depth, the delay-model choice, and the area/latency constraints the
search must respect.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from typing import Any, Callable, Dict, Mapping, Tuple

from repro.netlist.circuit import Circuit
from repro.netlist.compiled import content_digest
from repro.opt.balance import balance_paths
from repro.opt.transform import propagate_constants, strip_buffers
from repro.retime.graph import RetimingGraph
from repro.retime.pipeline import pipeline_circuit
from repro.sim.delays import DelayModel

#: A candidate is a chain of transforms applied left to right; the
#: empty chain is the unmodified circuit.
Chain = Tuple["TransformSpec", ...]

#: Retiming-graph memo: building ``RetimingGraph.from_circuit`` is the
#: dominant cost of expanding several ``retime(stages=k)`` candidates
#: from one parent, so graphs are shared per (circuit, delay regime).
#: Keyed by ``Circuit.version`` inside the per-circuit slot so a
#: mutated netlist never reuses a stale graph.
_GRAPH_MEMO: "weakref.WeakKeyDictionary[Circuit, Dict[Tuple[int, str], RetimingGraph]]" = (
    weakref.WeakKeyDictionary()
)


def _shared_graph(circuit: Circuit, delay_model: DelayModel) -> RetimingGraph:
    per_delay = _GRAPH_MEMO.setdefault(circuit, {})
    key = (circuit.version, delay_model.describe())
    graph = per_delay.get(key)
    if graph is None:
        for stale in [k for k in per_delay if k[0] != circuit.version]:
            del per_delay[stale]
        graph = per_delay[key] = RetimingGraph.from_circuit(
            circuit, delay_model
        )
    return graph


def _apply_balance(
    circuit: Circuit, delay_model: DelayModel
) -> Tuple[Circuit, Dict[str, Any]]:
    balanced, stats = balance_paths(circuit, delay_model)
    return balanced, {"buffers_inserted": stats.buffers_inserted}


def _apply_retime(
    circuit: Circuit, delay_model: DelayModel, stages: int = 1
) -> Tuple[Circuit, Dict[str, Any]]:
    if not isinstance(stages, int) or stages < 0:
        raise ValueError(f"retime stages must be an int >= 0, got {stages!r}")
    result = pipeline_circuit(
        circuit, stages, delay_model=delay_model,
        graph=_shared_graph(circuit, delay_model),
    )
    return result.circuit, {
        "period": result.period,
        "flipflops": result.flipflops,
        "latency": stages,
    }


def _apply_cleanup(
    circuit: Circuit, delay_model: DelayModel
) -> Tuple[Circuit, Dict[str, Any]]:
    cleaned = propagate_constants(circuit)
    return cleaned, {"cells_removed": len(circuit.cells) - len(cleaned.cells)}


def _apply_strip_buffers(
    circuit: Circuit, delay_model: DelayModel
) -> Tuple[Circuit, Dict[str, Any]]:
    stripped = strip_buffers(circuit)
    return stripped, {"cells_removed": len(circuit.cells) - len(stripped.cells)}


#: Transform kind -> apply function ``(circuit, delay_model, **params)
#: -> (new_circuit, info)``.  Register new transforms here to make
#: them reachable from specs, spaces and the CLI.
TRANSFORMS: Dict[str, Callable[..., Tuple[Circuit, Dict[str, Any]]]] = {
    "balance": _apply_balance,
    "retime": _apply_retime,
    "cleanup": _apply_cleanup,
    "strip_buffers": _apply_strip_buffers,
}


@dataclass(frozen=True)
class TransformSpec:
    """One parameterized transform: a registry kind plus frozen params."""

    kind: str
    params: Tuple[Tuple[str, Any], ...] = ()

    def __post_init__(self) -> None:
        if self.kind not in TRANSFORMS:
            raise ValueError(
                f"unknown transform kind {self.kind!r}; "
                f"choose from {sorted(TRANSFORMS)}"
            )
        object.__setattr__(
            self, "params", tuple(sorted(tuple(p) for p in self.params))
        )

    @staticmethod
    def make(kind: str, **params: Any) -> "TransformSpec":
        return TransformSpec(kind, tuple(sorted(params.items())))

    def apply(
        self, circuit: Circuit, delay_model: DelayModel
    ) -> Tuple[Circuit, Dict[str, Any]]:
        """Apply this transform, returning ``(new_circuit, info)``.

        The input circuit is never mutated (all wrapped passes rebuild).
        *info* carries transform-specific metadata — notably
        ``latency`` for transforms that add pipeline stages.
        """
        return TRANSFORMS[self.kind](circuit, delay_model, **dict(self.params))

    def describe(self) -> str:
        if not self.params:
            return self.kind
        inner = ",".join(f"{k}={v}" for k, v in self.params)
        return f"{self.kind}({inner})"

    def to_dict(self) -> Dict[str, Any]:
        return {"kind": self.kind, "params": dict(self.params)}

    @staticmethod
    def from_dict(doc: Mapping[str, Any]) -> "TransformSpec":
        return TransformSpec.make(doc["kind"], **doc.get("params", {}))


def describe_chain(chain: Chain) -> str:
    """Human label of a candidate chain (``"original"`` for empty)."""
    if not chain:
        return "original"
    return "+".join(t.describe() for t in chain)


def apply_chain(
    circuit: Circuit, chain: Chain, delay_model: DelayModel
) -> Tuple[Circuit, Dict[str, Any]]:
    """Apply *chain* left to right; info dicts merge (latency sums)."""
    merged: Dict[str, Any] = {"latency": 0}
    current = circuit
    for spec in chain:
        current, info = spec.apply(current, delay_model)
        latency = info.pop("latency", 0)
        merged.update(info)
        merged["latency"] += latency
    return current, merged


@dataclass(frozen=True)
class ExploreSpace:
    """The searchable space: transforms × chain depth × constraints.

    *transforms* are the atomic moves; candidates are all chains up to
    *max_depth* (the empty chain — the original circuit — is always a
    candidate).  *delay* names the delay regime
    (:data:`repro.service.jobs.DELAY_MODELS`) every candidate is
    padded for and evaluated under.  *max_area_mm2* / *max_latency*
    are hard constraints: violating candidates are still recorded but
    excluded from the Pareto front.
    """

    transforms: Tuple[TransformSpec, ...]
    max_depth: int = 2
    delay: str = "unit"
    max_area_mm2: float | None = None
    max_latency: int | None = None

    def __post_init__(self) -> None:
        if self.max_depth < 1:
            raise ValueError("max_depth must be >= 1")
        if not self.transforms:
            raise ValueError("the space needs at least one transform")

    def fingerprint(self) -> str:
        return content_digest(("explore-space-v1", self.to_dict()))

    def to_dict(self) -> Dict[str, Any]:
        return {
            "transforms": [t.to_dict() for t in self.transforms],
            "max_depth": self.max_depth,
            "delay": self.delay,
            "max_area_mm2": self.max_area_mm2,
            "max_latency": self.max_latency,
        }

    @staticmethod
    def from_dict(doc: Mapping[str, Any]) -> "ExploreSpace":
        return ExploreSpace(
            transforms=tuple(
                TransformSpec.from_dict(t) for t in doc["transforms"]
            ),
            max_depth=int(doc.get("max_depth", 2)),
            delay=doc.get("delay", "unit"),
            max_area_mm2=doc.get("max_area_mm2"),
            max_latency=doc.get("max_latency"),
        )


def default_space(
    delay: str = "unit",
    max_stages: int = 2,
    max_depth: int = 2,
    max_area_mm2: float | None = None,
    max_latency: int | None = None,
) -> ExploreSpace:
    """The standard glitch-reduction space: the paper's two levers.

    Balancing, pipelining depths ``1..max_stages``, and constant /
    dead-cell cleanup, combinable up to *max_depth* transforms deep.
    """
    transforms = [TransformSpec.make("balance")]
    transforms += [
        TransformSpec.make("retime", stages=k)
        for k in range(1, max_stages + 1)
    ]
    transforms.append(TransformSpec.make("cleanup"))
    return ExploreSpace(
        transforms=tuple(transforms),
        max_depth=max_depth,
        delay=delay,
        max_area_mm2=max_area_mm2,
        max_latency=max_latency,
    )
