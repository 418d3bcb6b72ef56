"""Delay models mapping (cell, output position) -> integer delta-time delay.

The paper's experiments use three delay regimes, all expressible here:

* **unit delay per full-adder stage** (Section 3, Table 1):
  :class:`UnitDelay` — every cell output switches one delta after its
  latest input change;
* **dsum = 2·dcarry** (Table 2): :class:`SumCarryDelay` — the sum
  output of FA/HA cells is slower than the carry output, reflecting the
  real two-XOR sum path vs. the AND-OR carry path;
* per-kind or fanout-dependent delays (:class:`PerKindDelay`,
  :class:`LoadDelay`) for ablations.

The delay model is the only source of delays: a netlist holds none.
A per-instance delay is a model too: subclass one and override
:meth:`DelayModel.delay`, which is then asked about every cell, and
:meth:`DelayModel.cache_token`, which keys the compiled snapshot.

Delays must be >= 1 for combinational cells: a zero intra-cycle delay
would merge cause and effect into one delta slot and hide glitches.
:class:`ZeroDelay` is the one exception, and the one spelling of the
settled mode: the lanes and vector engines then count settled-value
changes, which are the useful transitions alone, and the event-driven
engine rejects it.  :data:`DELAY_MODELS` names the regimes the CLI and
declarative jobs may ask for.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Mapping, Tuple

from repro.netlist.cells import OUTPUT_COUNT, Cell, CellKind

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.netlist.circuit import Circuit


class DelayModel:
    """Base class: integer delay of *cell*'s output at *position*."""

    def delay(self, cell: Cell, position: int) -> int:
        raise NotImplementedError

    def cell_delays(self, circuit: "Circuit") -> List[Tuple[int, ...]]:
        """Per cell of *circuit*, the delay of each output (0 for a flipflop).

        This generic rule asks :meth:`delay` about every cell output,
        with one :class:`Cell` view per cell.  The built-in models answer
        from the flat lists instead, and fall back to it when a subclass
        overrides :meth:`delay`, which may read anything on the cell.
        """
        DFF, delay = CellKind.DFF, self.delay
        return [
            (0,) if cell.kind is DFF
            else tuple([delay(cell, pos) for pos in range(len(cell.outputs))])
            for cell in circuit.cells
        ]

    def describe(self) -> str:
        """Human-readable name used in experiment reports."""
        return type(self).__name__

    def cache_token(self) -> tuple:
        """Hashable key identifying this model's delay function.

        Used by :func:`repro.netlist.compiled.compile_circuit` to
        memoize compiled circuits per delay model.  The default —
        ``(class, describe())`` — is correct for every model whose
        delays are fully determined by its description; models with
        hidden per-instance state must override (see
        :class:`LoadDelay`).
        """
        return (type(self).__qualname__, self.describe())


class KindDelay(DelayModel):
    """A model whose delay depends only on the cell kind and output position.

    Subclasses define :meth:`kind_delay`; a compile asks it once per
    kind, and every cell of that kind shares the one delay tuple.
    """

    def kind_delay(self, kind: CellKind, position: int) -> int:
        raise NotImplementedError

    def delay(self, cell: Cell, position: int) -> int:
        return self.kind_delay(cell.kind, position)

    def cell_delays(self, circuit: "Circuit") -> List[Tuple[int, ...]]:
        if type(self).delay is not KindDelay.delay:
            return super().cell_delays(circuit)
        table = {
            kind: (0,) if kind is CellKind.DFF else tuple(
                self.kind_delay(kind, pos) for pos in range(OUTPUT_COUNT[kind])
            )
            for kind in set(circuit.cell_kinds)
        }
        return list(map(table.__getitem__, circuit.cell_kinds))


class UnitDelay(KindDelay):
    """Every combinational cell output has delay 1 (the paper's default)."""

    def kind_delay(self, kind: CellKind, position: int) -> int:
        return 1

    def describe(self) -> str:
        return "unit delay"


class ZeroDelay(KindDelay):
    """All outputs switch in the same delta: the settled mode.

    The batch engines run it as settled evaluation, counting useful
    transitions only; the event-driven engine has no such mode.
    """

    def kind_delay(self, kind: CellKind, position: int) -> int:
        return 0

    def describe(self) -> str:
        return "zero delay"


class PerKindDelay(KindDelay):
    """Delays looked up per cell kind, with a default.

    ``PerKindDelay({CellKind.XOR: 2}, default=1)`` models XOR gates
    twice as slow as everything else.  For two-output kinds the same
    delay applies to both outputs; use :class:`SumCarryDelay` to split
    them.
    """

    def __init__(self, table: Mapping[CellKind, int], default: int = 1):
        for kind, d in table.items():
            if d < 0:
                raise ValueError(f"negative delay for {kind}")
        if default < 0:
            raise ValueError(f"negative default delay {default}")
        self._table = dict(table)
        self._default = default

    def kind_delay(self, kind: CellKind, position: int) -> int:
        return self._table.get(kind, self._default)

    def describe(self) -> str:
        parts = ", ".join(
            f"{k.value}={d}" for k, d in sorted(self._table.items(), key=lambda kv: kv[0].value)
        )
        return f"per-kind delay ({parts}; default {self._default})"


class SumCarryDelay(KindDelay):
    """FA/HA cells with distinct sum and carry delays; others fixed.

    ``SumCarryDelay(dsum=2, dcarry=1)`` reproduces the paper's Table 2
    refinement: "the delay of the sum calculation in a full adder is
    about twice as large as the delay of the carry calculation".
    """

    def __init__(self, dsum: int = 2, dcarry: int = 1, other: int = 1):
        if min(dsum, dcarry, other) < 1:
            raise ValueError("combinational delays must be >= 1")
        self.dsum = dsum
        self.dcarry = dcarry
        self.other = other

    def kind_delay(self, kind: CellKind, position: int) -> int:
        if kind in (CellKind.FA, CellKind.HA):
            return self.dsum if position == 0 else self.dcarry
        return self.other

    def describe(self) -> str:
        return f"dsum={self.dsum}, dcarry={self.dcarry} (others {self.other})"


class LoadDelay(DelayModel):
    """Fanout-dependent delay: heavily loaded outputs switch later.

    ``delay = base + extra_per_load * (fanout - 1)`` (integer units),
    clamped to at least 1.  This first-order RC picture adds the
    load-induced skew real layouts have on top of logic depth — an
    ablation between the paper's pure unit-delay model and extracted
    timing.  Bound to one circuit at construction because fanout is a
    netlist property.
    """

    def __init__(self, circuit, base: int = 1, extra_per_load: int = 1,
                 loads_per_unit: int = 3):
        if base < 1:
            raise ValueError("base delay must be >= 1")
        if loads_per_unit < 1:
            raise ValueError("loads_per_unit must be >= 1")
        self._base = base
        self._extra = extra_per_load
        self._per = loads_per_unit
        start = circuit.fanout_csr()[0]
        self._fanout = [b - a for a, b in zip(start, start[1:])]
        self._circuit_name = circuit.name

    def delay(self, cell: Cell, position: int) -> int:
        return self._net_delay(cell.outputs[position])

    def _net_delay(self, net: int) -> int:
        fanout = self._fanout[net] if net < len(self._fanout) else 1
        extra = self._extra * (max(fanout, 1) - 1) // self._per
        return max(1, self._base + extra)

    def cell_delays(self, circuit: "Circuit") -> List[Tuple[int, ...]]:
        if type(self).delay is not LoadDelay.delay:
            return super().cell_delays(circuit)
        net_delay = self._net_delay
        return [
            (0,) if kind is CellKind.DFF else tuple([net_delay(n) for n in outs])
            for kind, outs in zip(circuit.cell_kinds, circuit.cell_outputs)
        ]

    def describe(self) -> str:
        return (
            f"load-dependent delay on {self._circuit_name!r} "
            f"(base {self._base}, +{self._extra}/{self._per} loads)"
        )

    def cache_token(self) -> tuple:
        # Delays depend on the bound circuit's fanout map, which the
        # description does not fully capture — key on instance identity.
        return (type(self).__qualname__, self.describe(), id(self))


#: Delay regimes by name, for ``--delay`` and declarative jobs.
DELAY_MODELS = {
    "unit": UnitDelay,
    "sumcarry": lambda: SumCarryDelay(dsum=2, dcarry=1),
    "zero": ZeroDelay,
}


def resolve_delay(name: str) -> DelayModel:
    """The delay model :data:`DELAY_MODELS` files under *name*."""
    factory = DELAY_MODELS.get(name)
    if factory is None:
        raise ValueError(
            f"unknown delay model {name!r}; choose from {sorted(DELAY_MODELS)}"
        )
    return factory()
