"""Electrical parameters of the cell library.

Capacitances follow the classic static-CMOS accounting: the load a cell
output must charge is its own drain (output) capacitance, plus the gate
(input-pin) capacitance of every fanout pin, plus estimated wiring.
Dynamic energy per power-consuming (0->1) transition is
``C_load * Vdd^2`` (paper eq. 1 integrated over one transition).

Flipflop power follows the paper's footnote 1: the average dynamic
power of a single flipflop with 50% input transition activity is
pre-characterised (here: a constant energy per clock cycle) and
multiplied by the flipflop count.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List

from repro.netlist.cells import CellKind
from repro.netlist.circuit import Circuit


@dataclass(frozen=True)
class CellElectrical:
    """Per-kind electrical data (farads, square micrometres)."""

    input_cap: float  # gate capacitance per input pin [F]
    output_cap: float  # drain/self capacitance per output [F]
    area_um2: float  # layout area [um^2]


_FF = 1e-15  # one femtofarad

#: Default 0.8 um / 5 V library.  Values are representative for the
#: era (tens of fF per pin) and calibrated so that the Table 3
#: reproduction lands in the paper's mW range at 5 MHz.
DEFAULT_CELLS: Dict[CellKind, CellElectrical] = {
    CellKind.CONST0: CellElectrical(0.0, 10 * _FF, 50.0),
    CellKind.CONST1: CellElectrical(0.0, 10 * _FF, 50.0),
    CellKind.BUF: CellElectrical(25 * _FF, 35 * _FF, 400.0),
    CellKind.NOT: CellElectrical(20 * _FF, 30 * _FF, 300.0),
    CellKind.AND: CellElectrical(25 * _FF, 40 * _FF, 600.0),
    CellKind.OR: CellElectrical(25 * _FF, 40 * _FF, 600.0),
    CellKind.NAND: CellElectrical(22 * _FF, 35 * _FF, 500.0),
    CellKind.NOR: CellElectrical(22 * _FF, 35 * _FF, 500.0),
    CellKind.XOR: CellElectrical(35 * _FF, 50 * _FF, 900.0),
    CellKind.XNOR: CellElectrical(35 * _FF, 50 * _FF, 900.0),
    CellKind.MUX2: CellElectrical(30 * _FF, 45 * _FF, 800.0),
    CellKind.HA: CellElectrical(40 * _FF, 55 * _FF, 1500.0),
    CellKind.FA: CellElectrical(45 * _FF, 65 * _FF, 2600.0),
    CellKind.DFF: CellElectrical(30 * _FF, 45 * _FF, 1650.0),
}


@dataclass
class TechnologyLibrary:
    """A process + cell-library model.

    Attributes
    ----------
    vdd:
        Supply voltage [V].
    wire_cap_per_fanout:
        Estimated wiring capacitance added per fanout connection [F].
    ff_energy_per_cycle:
        Average internal + clock-pin-local energy one DFF dissipates per
        clock cycle at 50% input transition activity [J] (paper
        footnote 1 pre-characterisation).
    cells:
        Per-kind :class:`CellElectrical` records.
    """

    name: str = "generic-0.8um-5V"
    vdd: float = 5.0
    wire_cap_per_fanout: float = 15 * _FF
    ff_energy_per_cycle: float = 3.75e-12
    cells: Dict[CellKind, CellElectrical] = field(
        default_factory=lambda: dict(DEFAULT_CELLS)
    )

    def scaled(self, voltage: float | None = None, cap_scale: float = 1.0) -> "TechnologyLibrary":
        """A derived library at a different voltage / capacitance scale.

        Useful for voltage-scaling ablations: energy scales with
        ``Vdd^2`` automatically through the power equations; *cap_scale*
        shrinks all capacitances (e.g. a finer process).
        """
        cells = {
            k: CellElectrical(
                c.input_cap * cap_scale, c.output_cap * cap_scale, c.area_um2
            )
            for k, c in self.cells.items()
        }
        return replace(
            self,
            vdd=voltage if voltage is not None else self.vdd,
            wire_cap_per_fanout=self.wire_cap_per_fanout * cap_scale,
            cells=cells,
        )

    # ------------------------------------------------------------------
    def electrical(self, kind: CellKind) -> CellElectrical:
        try:
            return self.cells[kind]
        except KeyError:
            raise KeyError(f"library {self.name!r} has no cell kind {kind}") from None

    def net_loads(self, circuit: Circuit) -> List[float]:
        """Per net, the total load its driver charges on a rise [F]."""
        kinds = circuit.cell_kinds
        start, readers = circuit.fanout_csr()
        loads = []
        for net, driver in enumerate(circuit.net_driver):
            cap = 0.0
            if driver >= 0:
                cap += self.electrical(kinds[driver]).output_cap
            for ci in readers[start[net]:start[net + 1]]:
                # A cell may read the same net on several pins; the fanout
                # keeps duplicates, so each pin contributes once here.
                cap += self.electrical(kinds[ci]).input_cap
                cap += self.wire_cap_per_fanout
            loads.append(cap)
        return loads

    def ff_average_power(self, frequency: float) -> float:
        """Average power of one flipflop at 50% input activity [W]."""
        return self.ff_energy_per_cycle * frequency
