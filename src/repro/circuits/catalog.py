"""Named circuit catalog: string name -> (circuit, word stimulus).

One registry shared by every front end — the CLI, the service job
scheduler, and the benchmarks — so a declarative job spec can carry a
plain string (``"array16"``) that any worker process resolves to the
identical netlist.  Names:

* ``rcaN`` — N-bit ripple-carry adder;
* ``arrayN`` / ``wallaceN`` — NxN array / Wallace-tree multiplier;
* ``farmN`` — a ≥100k-cell farm of NxN array-multiplier tiles sharing
  one rotated input-word pair (the backend stress workload);
* ``detector`` — the Section 4.2 direction-detector processing unit.
"""

from __future__ import annotations

from functools import partial
from typing import Tuple

from repro.circuits.adders import build_rca_circuit
from repro.circuits.direction_detector import build_direction_detector
from repro.circuits.farm import build_multiplier_farm
from repro.circuits.multipliers import build_multiplier_circuit
from repro.netlist.circuit import Circuit
from repro.sim.vectors import WordStimulus


def _sized(build, words: str):
    """A sized family: ``build(n)``, with a word stimulus over its *words*."""
    def family(n: int) -> Tuple[Circuit, WordStimulus]:
        circuit, ports = build(n)
        return circuit, WordStimulus({w: ports[w] for w in words})
    return family


def _detector() -> Tuple[Circuit, WordStimulus]:
    from repro.experiments.detector import detector_stimulus

    circuit, ports = build_direction_detector()
    return circuit, detector_stimulus(ports)


#: Name family -> builder.  A family ending in ``N`` is sized: its
#: names are the prefix and a width 1..64 (``rca16``), which the
#: builder takes; any other family is one exact name.
CATALOG = {
    "rcaN": _sized(partial(build_rca_circuit, with_cin=False), "ab"),
    "arrayN": _sized(partial(build_multiplier_circuit, architecture="array"), "xy"),
    "wallaceN": _sized(partial(build_multiplier_circuit, architecture="wallace"), "xy"),
    "farmN": _sized(build_multiplier_farm, "xy"),
    "detector": _detector,
}


def _parse_size(name: str, prefix: str) -> int:
    try:
        n = int(name[len(prefix):])
    except ValueError:
        raise ValueError(f"bad circuit name {name!r}: expected {prefix}<bits>")
    if not 1 <= n <= 64:
        raise ValueError(f"width {n} out of range 1..64")
    return n


def _builder(name: str):
    """The call that builds *name*; raises ``ValueError`` for a bad name."""
    for family, build in CATALOG.items():
        if family.endswith("N") and name.startswith(family[:-1]):
            return partial(build, _parse_size(name, family[:-1]))
        if name == family:
            return build
    raise ValueError(
        f"unknown circuit {name!r}; "
        "try rca16, array8, wallace8, farm16, detector"
    )


def validate_name(name: str) -> str:
    """Check *name* is a known catalog entry without building it.

    Cheap enough to run per sweep point at job-expansion time, so a
    bad circuit axis fails before anything simulates.  Returns the
    name; raises ``ValueError`` like :func:`build_named_circuit`.
    """
    _builder(name)
    return name


def build_named_circuit(name: str) -> Tuple[Circuit, WordStimulus]:
    """Construct a circuit by catalog name; returns it with its stimulus."""
    return _builder(name)()
