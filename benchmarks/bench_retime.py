"""Infrastructure benchmark — Leiserson–Saxe minimum-period retiming.

Times :func:`repro.retime.leiserson_saxe.minimum_period` on one of the
retiming graphs ``explore --circuit array16`` pipelines: the
path-balanced 16x16 array multiplier
(:func:`repro.opt.balance.balance_paths`) seeded with one output stage,
2401 vertices and 3153 edges.  Graph extraction happens once, outside
the timed region, so the median is the binary search alone: one cold
FEAS per probe, each FEAS a handful of arrival passes over the graph's
flat arrays.

``benchmarks/run_benchmarks.py`` folds the median into
``BENCH_sim.json`` as ``retime-minperiod/balance-array16``, so ``repro
bench report --diff`` gates a retiming regression in CI like any
simulator or estimator workload.
"""

import pytest

from repro.circuits.multipliers import build_multiplier_circuit
from repro.opt.balance import balance_paths
from repro.retime.graph import RetimingGraph
from repro.retime.leiserson_saxe import minimum_period

#: Shape of the timed graph; run_benchmarks.py quotes it in the row.
N_VERTICES = 2401
N_EDGES = 3153
#: Minimum period of the timed graph under unit delay.
PERIOD = 16


@pytest.fixture(scope="module")
def balanced_array16_graph():
    circuit, _ = build_multiplier_circuit(16, "array")
    balanced, _ = balance_paths(circuit)
    return RetimingGraph.from_circuit(balanced).with_output_stages(1)


def test_retime_minperiod_balance_array16(benchmark, balanced_array16_graph):
    g = balanced_array16_graph
    assert (len(g.vertices), len(g.connections)) == (N_VERTICES, N_EDGES)
    period, r = benchmark(minimum_period, g)
    assert period == PERIOD
    assert g.is_legal(r)
