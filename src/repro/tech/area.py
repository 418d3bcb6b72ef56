"""Layout-area model.

Estimates die area as the sum of cell areas divided by a row
utilisation factor — the standard first-order standard-cell model.
Used to reproduce the area column of the paper's Table 3 (0.73 mm^2 at
48 FFs growing to 1.23 mm^2 at 350 FFs: area grows roughly linearly
with inserted pipeline flipflops).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.netlist.circuit import Circuit
from repro.tech.library import TechnologyLibrary


@dataclass(frozen=True)
class AreaModel:
    """Area estimation with a utilisation factor and routing overhead."""

    utilisation: float = 0.65  # fraction of placed area that is cells
    overhead_mm2: float = 0.05  # pads / clock driver / periphery

    def circuit_area_mm2(
        self, circuit: Circuit, tech: TechnologyLibrary
    ) -> float:
        """Estimated die area of *circuit* in mm^2."""
        if not 0 < self.utilisation <= 1:
            raise ValueError("utilisation must be in (0, 1]")
        cell_um2 = sum(tech.electrical(k).area_um2 for k in circuit.cell_kinds)
        return self.overhead_mm2 + cell_um2 / self.utilisation / 1e6
