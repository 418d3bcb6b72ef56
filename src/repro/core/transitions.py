"""Useful/useless transition classification by parity evaluation.

Paper, Section 3.3 — the two properties that define the classification:

1. if a node toggles an **odd** number of times within one clock cycle,
   exactly one of those transitions is *useful* (the settled value
   changed) and the remaining ``k - 1`` are *useless*;
2. if it toggles an **even** number of times, **all** ``k`` transitions
   are *useless* (the settled value is unchanged).

Two consecutive useless transitions constitute a **glitch**, so a cycle
contributes ``useless // 2`` full glitches on a node.

These rules only need the per-cycle toggle *count* per node — which is
exactly what the simulator's :class:`~repro.sim.engine.CycleTrace`
records — so classification is exact, not sampled.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, NamedTuple, Sequence, Tuple


def classify_toggle_count(count: int) -> Tuple[int, int]:
    """Split a per-cycle toggle count into ``(useful, useless)``.

    >>> classify_toggle_count(0)
    (0, 0)
    >>> classify_toggle_count(1)
    (1, 0)
    >>> classify_toggle_count(2)
    (0, 2)
    >>> classify_toggle_count(5)
    (1, 4)
    """
    if count < 0:
        raise ValueError("toggle count cannot be negative")
    if count % 2:
        return 1, count - 1
    return 0, count


def glitch_count(useless: int) -> int:
    """Number of full glitches given a useless-transition count.

    The paper defines a glitch as two consecutive useless transitions;
    an odd residue (possible on odd toggle counts) is half a glitch and
    is truncated.
    """
    if useless < 0:
        raise ValueError("useless count cannot be negative")
    return useless // 2


@dataclass
class NodeActivity:
    """Accumulated activity of one circuit node over many cycles.

    Attributes
    ----------
    toggles:
        Total number of signal transitions.
    rises:
        Total 0->1 (power-consuming) transitions; the dynamic power
        model charges the node's load capacitance once per rise.
    useful:
        Transitions classified useful by per-cycle parity.
    useless:
        Transitions classified useless (glitch activity).
    cycles_active:
        Number of cycles in which the node toggled at least once.
    """

    toggles: int = 0
    rises: int = 0
    useful: int = 0
    useless: int = 0
    cycles_active: int = 0

    def add_cycle(self, toggles: int, rises: int) -> None:
        """Fold one cycle's counts for this node into the totals."""
        if toggles == 0:
            return
        useful, useless = classify_toggle_count(toggles)
        self.toggles += toggles
        self.rises += rises
        self.useful += useful
        self.useless += useless
        self.cycles_active += 1

    @property
    def glitches(self) -> int:
        """Total full glitches (pairs of useless transitions)."""
        return glitch_count(self.useless)

    def merge(self, other: "NodeActivity") -> None:
        """Accumulate *other* into this record (for sharded runs)."""
        self.toggles += other.toggles
        self.rises += other.rises
        self.useful += other.useful
        self.useless += other.useless
        self.cycles_active += other.cycles_active

    def __add__(self, other: "NodeActivity") -> "NodeActivity":
        out = NodeActivity(
            self.toggles, self.rises, self.useful, self.useless,
            self.cycles_active,
        )
        out.merge(other)
        return out


class CountColumns(NamedTuple):
    """Per-net activity counts as columns, one entry per net in each.

    ``nets`` ascends, and each count column (the :class:`NodeActivity`
    fields, in order) holds one count per net as a plain ``int``.
    Every engine emits its counts in this canonical form, listing
    exactly the nets that toggled, so two runs' columns are equal
    exactly when their per-net records are.
    """

    nets: List[int]
    toggles: List[int]
    rises: List[int]
    useful: List[int]
    useless: List[int]
    cycles_active: List[int]

    @classmethod
    def empty(cls) -> "CountColumns":
        return cls([], [], [], [], [], [])

    @classmethod
    def from_arrays(cls, arrays: Sequence[Sequence[int]]) -> "CountColumns":
        """The toggling nets of five per-net count arrays (indexed by net)."""
        nets = [net for net, toggles in enumerate(arrays[0]) if toggles]
        return cls(nets, *([column[n] for n in nets] for column in arrays))

    @classmethod
    def from_records(cls, per_node: Mapping[int, NodeActivity]) -> "CountColumns":
        """*per_node*'s records as columns, every record kept."""
        nets = sorted(per_node)
        acts = [per_node[n] for n in nets]
        return cls(nets, *([getattr(a, f) for a in acts] for f in cls._fields[1:]))

    def records(self) -> Dict[int, NodeActivity]:
        """One fresh :class:`NodeActivity` per net, in ``nets`` order."""
        return dict(zip(self.nets, map(NodeActivity, *self[1:])))

    def plus(self, *others: "CountColumns") -> "CountColumns":
        """The per-net sums of these counts and *others*', over the
        union of their nets, in one pass (none of them is changed)."""
        parts = (self, *others)
        nets = sorted(set().union(*(counts.nets for counts in parts)))
        row_of = {net: row for row, net in enumerate(nets)}
        columns = [[0] * len(nets) for _ in self[1:]]
        for counts in parts:
            rows = [row_of[net] for net in counts.nets]
            for column, values in zip(columns, counts[1:]):
                for row, value in zip(rows, values):
                    column[row] += value
        return CountColumns(nets, *columns)
