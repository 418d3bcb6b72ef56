"""A ≥100k-cell stress workload: a farm of array-multiplier tiles.

The paper's circuits top out at a few thousand cells; the simulation
backends are engineered to scale far beyond that, and this module
builds the workload that proves it.  :func:`build_multiplier_farm`
tiles :func:`~repro.circuits.multipliers.array_multiplier` instances
until a requested cell count is reached, all fed from **one shared
pair of input words**: tile *t* multiplies the x word rotated by *t*
bit positions against the y word rotated by ``2 t``.  Sharing (and
rotating) the operands keeps the primary-input count at ``2 n_bits``
regardless of farm size — the per-cycle stimulus stays cheap while
every tile still computes a distinct product, so the glitch profile
does not collapse into copies of identical activity.

Each tile is the deep, delay-unbalanced carry-save array measured in
Table 1, which makes the farm glitch-rich by construction — the right
stress case for the glitch-exact engines rather than a trivially
settled one.
"""

from __future__ import annotations

from math import ceil
from operator import itemgetter
from typing import Callable, List, Tuple

from repro import _nogc
from repro.circuits.multipliers import array_multiplier
from repro.netlist.circuit import Circuit

#: Cells in one n=16 array tile (n*n AND matrix plus the carry-save
#: rows and final ripple adder); used only for the docstring math.
ARRAY16_TILE_CELLS = 496


def _gather(nets: Tuple[int, ...]) -> Callable[[List[int]], Tuple[int, ...]]:
    """A function mapping a net map *m* to ``tuple(m[n] for n in nets)``."""
    if len(nets) > 1:
        return itemgetter(*nets)
    return lambda m: tuple([m[n] for n in nets])


def _rotated(word: List[int], k: int) -> List[int]:
    """The net word rotated left by *k* positions (lsb-first layout)."""
    k %= len(word)
    return word[k:] + word[:k]


def build_multiplier_farm(
    n_bits: int = 16,
    min_cells: int = 100_000,
    name: str | None = None,
) -> Tuple[Circuit, dict]:
    """A farm of ``n_bits x n_bits`` array multipliers, ≥ *min_cells* cells.

    Returns ``(circuit, ports)`` where ports holds the shared ``x`` /
    ``y`` input words and the list of per-tile ``products``.  The tile
    count is the smallest that reaches *min_cells* (one tile minimum),
    so ``build_multiplier_farm(16, 100_000)`` yields a ~100k-cell
    netlist with just 32 primary inputs.
    """
    if n_bits < 1:
        raise ValueError("n_bits must be >= 1")
    if min_cells < 1:
        raise ValueError("min_cells must be >= 1")
    circuit = Circuit(name or f"farm{n_bits}")
    x = circuit.add_input_word("x", n_bits)
    y = circuit.add_input_word("y", n_bits)
    product = array_multiplier(circuit, x, y, prefix="t0")
    circuit.mark_output_word(product, "p0")
    tiles = max(1, ceil(min_cells / len(circuit.cell_kinds)))
    products = [product] + _stamp_tiles(circuit, x, y, product, tiles)
    for t in range(1, tiles):
        circuit.mark_output_word(products[t], f"p{t}")
    return circuit, {"x": x, "y": y, "products": products}


@_nogc
def _stamp_tiles(
    circuit: Circuit, x: List[int], y: List[int], product: List[int], tiles: int
) -> List[List[int]]:
    """Add tiles 1 .. *tiles* - 1 as copies of tile 0; returns their products.

    Tile 0 (product word *product*) is every cell so far, and every net
    after the inputs, all of them anonymous; so tile *t* is tile 0 with
    its input nets rotated, its own nets shifted by *t* tiles and the
    ``t0`` cell-name prefix read ``t{t}``: the cells and names a
    per-cell build would make, in its order.  One
    :meth:`~Circuit.add_nets` and one :meth:`~Circuit.add_cells` call
    add them all; the name table files each net under the int object
    its pins hold.
    """
    first = len(x) + len(y)
    tile_nets = len(circuit.net_names) - first
    kinds = circuit.cell_kinds[:]
    gather_in = [_gather(nets) for nets in circuit.cell_inputs]
    gather_out = [_gather(nets) for nets in circuit.cell_outputs]
    suffixes = [name[2:] for name in circuit.cell_names]
    stamped = list(range(first + tile_nets, first + tiles * tile_nets))
    circuit.add_nets([None] * len(stamped), stamped)
    pins: List[tuple] = []
    outs: List[tuple] = []
    names: List[str] = []
    products = []
    for t in range(1, tiles):
        own = (t - 1) * tile_nets
        remap = _rotated(x, t) + _rotated(y, 2 * t) + stamped[own:own + tile_nets]
        pins += [gather(remap) for gather in gather_in]
        outs += [gather(remap) for gather in gather_out]
        names += [f"t{t}{suffix}" for suffix in suffixes]
        products.append([remap[n] for n in product])
    circuit.add_cells(kinds * (tiles - 1), pins, outs, names)
    return products
