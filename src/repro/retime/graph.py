"""Retiming-graph extraction.

The Leiserson–Saxe model views a synchronous circuit as a directed
multigraph ``G = (V, E, d, w)``: vertices are combinational cells with
propagation delay ``d(v)``, edges are signal paths carrying ``w(e)``
registers, and a zero-delay *host* vertex closes the graph through the
primary inputs and outputs.  A retiming ``r: V -> Z`` (with
``r(host) = 0``) relocates registers: the retimed edge weight is
``w_r(e) = w(e) + r(dst) - r(src)``, which must stay non-negative.

:class:`RetimingGraph` extracts this model from a
:class:`~repro.netlist.circuit.Circuit` by collapsing DFF chains on
every cell-input and primary-output path into edge weights, remembering
enough provenance (source net, destination pin) for
:func:`repro.retime.apply.apply_retiming` to rebuild a netlist.

The graph is lowered once onto flat int arrays over dense vertex
*slots*: the two host halves sit at slots 0 and 1 and cell
``vertices[i]`` at slot ``i + 2`` (:data:`HOST_SLOT`,
:data:`HOST_OUT_SLOT`, :data:`CELL_SLOT`).  Edge ``e`` runs from slot
``src[e]`` to slot ``dst[e]`` with ``weight[e]`` registers, and the
out-edges of slot ``v`` are ``out_edge[out_start[v]:out_start[v + 1]]``
(CSR).  Edges run in (vertex, pin) order, then one per primary output
in port order, which :func:`~repro.retime.apply.apply_retiming` walks.
Lags travel as per-slot lists inside the package; the public API keeps
lag dicts keyed by cell index plus :data:`HOST` / :data:`HOST_OUT`.
"""

from __future__ import annotations

import copy
from itertools import accumulate
from typing import Dict, List, Mapping

from repro.netlist.cells import CellKind
from repro.netlist.circuit import Circuit
from repro.netlist.compiled import resolve_delays
from repro.sim.delays import DelayModel, UnitDelay

#: Vertex ids of the host (I/O) vertices; real vertices are cell indices.
#: The host is split into a source side (primary inputs) and a sink side
#: (primary outputs) so that purely combinational circuits do not form a
#: spurious zero-register cycle through the environment.  Both halves
#: are pinned at lag 0, so input-to-output latency is preserved exactly
#: by any legal retiming.
HOST = -1  # source side: drives the primary inputs
HOST_OUT = -2  # sink side: consumes the primary outputs

#: Array slots of the two host halves; cell ``vertices[i]`` sits at
#: slot ``CELL_SLOT + i``.
HOST_SLOT, HOST_OUT_SLOT, CELL_SLOT = 0, 1, 2


class RetimingGraph:
    """The extracted graph plus vertex delays, as flat per-slot arrays.

    Edge ``e`` carries ``weight[e]`` D-flipflops collapsed from the
    original path; ``src_net[e]`` is the original net that carries the
    signal at the source side (a combinational cell output or a
    primary input), and ``dst_pin[e]`` is the input-pin position on
    the destination cell, or the primary-output index when the
    destination is the host.
    """

    def __init__(
        self, circuit: Circuit, vertices: List[int], delay: Dict[int, int]
    ) -> None:
        self.circuit = circuit
        self.vertices = vertices
        self.delay = delay
        by_slot = [HOST, HOST_OUT] + list(vertices)
        #: Vertex id -> slot.
        self.slot = {v: s for s, v in enumerate(by_slot)}
        self.slot_delay = [delay[v] for v in by_slot]
        #: Edge arrays, filled by :meth:`from_circuit`.
        self.src: List[int] = []
        self.dst: List[int] = []
        self.weight: List[int] = []
        self.src_net: List[int] = []
        self.dst_pin: List[int] = []

    # ------------------------------------------------------------------
    @classmethod
    def from_circuit(
        cls, circuit: Circuit, delay_model: DelayModel | None = None
    ) -> "RetimingGraph":
        """Extract the retiming graph of *circuit*.

        Vertex delay is the maximum per-output delay of the cell under
        *delay_model* (default unit delay).  Every DFF must lie on a
        path between combinational cells / ports; cyclic FF-only loops
        are rejected.
        """
        kinds, inputs = circuit.cell_kinds, circuit.cell_inputs
        DFF = CellKind.DFF
        vertices = [ci for ci, kind in enumerate(kinds) if kind is not DFF]
        delays = resolve_delays(circuit, delay_model or UnitDelay())
        delay: Dict[int, int] = {HOST: 0}
        for ci in vertices:
            delay[ci] = max(delays[ci])
        delay[HOST_OUT] = 0
        graph = cls(circuit, vertices, delay)
        slot = graph.slot

        input_set = set(circuit.inputs)
        driver = circuit.net_driver

        def connect(net: int, dst: int, pin: int) -> None:
            """Add the edge into slot *dst*, pin *pin*: walk back from
            *net* through DFF drivers to its source vertex."""
            weight, seen = 0, set()
            while (ci := driver[net]) >= 0 and kinds[ci] is DFF:
                if ci in seen:
                    raise ValueError(
                        "flipflop-only cycle detected at "
                        f"{circuit.cell_names[ci]!r}; retiming graph undefined"
                    )
                seen.add(ci)
                weight += 1
                net = inputs[ci][0]
            if ci < 0 and net not in input_set:
                raise ValueError(
                    f"net {circuit.net_name(net)!r} is undriven and "
                    "not a primary input"
                )
            graph.src.append(slot[ci] if ci >= 0 else HOST_SLOT)
            graph.dst.append(dst)
            graph.weight.append(weight)
            graph.src_net.append(net)
            graph.dst_pin.append(pin)

        for ci in vertices:
            for pin, net in enumerate(inputs[ci]):
                connect(net, slot[ci], pin)
        for pin, net in enumerate(circuit.outputs):
            connect(net, HOST_OUT_SLOT, pin)
        # CSR out-adjacency: edge ids grouped by source slot.
        counts = [0] * (len(slot) + 1)
        for s in graph.src:
            counts[s + 1] += 1
        graph.out_start = list(accumulate(counts))
        graph.out_edge = sorted(range(len(graph.src)), key=graph.src.__getitem__)
        return graph

    # ------------------------------------------------------------------
    def with_output_stages(self, stages: int) -> "RetimingGraph":
        """A copy with *stages* extra registers on every edge into the host.

        This seeds pipelining: the FEAS retiming then pulls the seeded
        registers backwards into the combinational fabric to meet the
        target period (paper Section 5's "introducing flipflops using
        retiming and pipelining").  The copy shares every array but the
        weight list.
        """
        if stages < 0:
            raise ValueError("stage count cannot be negative")
        staged = copy.copy(self)
        staged.weight = [
            w + stages if d == HOST_OUT_SLOT else w
            for w, d in zip(self.weight, self.dst)
        ]
        return staged

    # ------------------------------------------------------------------
    def lags(self, r: Mapping[int, int]) -> List[int]:
        """Per-slot lag list of the lag dict *r* (absent vertices lag 0)."""
        get = r.get
        return [get(HOST, 0), get(HOST_OUT, 0), *[get(v, 0) for v in self.vertices]]

    def lag_dict(self, lags: List[int]) -> Dict[int, int]:
        """The public lag dict of a per-slot lag list."""
        r = dict(zip(self.vertices, lags[CELL_SLOT:]))
        r[HOST] = lags[HOST_SLOT]
        r[HOST_OUT] = lags[HOST_OUT_SLOT]
        return r

    def retimed_weights(self, lags: List[int]) -> List[int]:
        """``w_r(e) = w(e) + r(dst) - r(src)`` for every edge, in edge order."""
        return [
            w + lags[d] - lags[s]
            for w, s, d in zip(self.weight, self.src, self.dst)
        ]

    def is_legal(self, r: Mapping[int, int]) -> bool:
        """True iff host lags are 0 and every retimed weight is non-negative."""
        return self.legal_weights(r) is not None

    def legal_weights(self, r: Mapping[int, int]) -> List[int] | None:
        """The retimed weights of *r*, or ``None`` if *r* is illegal."""
        if r.get(HOST, 0) != 0 or r.get(HOST_OUT, 0) != 0:
            return None
        weights = self.retimed_weights(self.lags(r))
        return weights if min(weights, default=0) >= 0 else None

    def count_flipflops(self, r: Mapping[int, int] | None = None) -> int:
        """Flipflop count after retiming *r*, with chain sharing.

        Flipflops on connections that share a driving net are merged
        into a single chain tapped at different depths (what
        :func:`~repro.retime.apply.apply_retiming` builds), so each
        distinct source net costs ``max`` — not ``sum`` — of its
        connection weights.
        """
        depth_by_net: Dict[int, int] = {}
        for net, w in zip(
            self.src_net, self.retimed_weights(self.lags(r or {}))
        ):
            if w < 0:
                raise ValueError("illegal retiming: negative edge weight")
            if w > depth_by_net.get(net, 0):
                depth_by_net[net] = w
        return sum(depth_by_net.values())
