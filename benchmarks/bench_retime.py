"""Infrastructure benchmark — Leiserson–Saxe retiming.

Two rows, both on the graphs ``explore --circuit array16`` pipelines:

* ``retime-minperiod/balance-array16`` times
  :func:`repro.retime.leiserson_saxe.minimum_period` on the
  path-balanced 16x16 array multiplier
  (:func:`repro.opt.balance.balance_paths`) seeded with one output
  stage, 2401 vertices and 3153 edges.  Graph extraction happens once,
  outside the timed region, so the median is one topological pass for
  the path bound plus the FEAS probe at that bound (a few arrival
  passes over the graph's flat arrays); the bound is the minimum here,
  so no binary search runs.
* ``retime-pipeline/array16`` times a cold
  :func:`repro.retime.pipeline.pipeline_circuit` of the 16x16 array
  multiplier with two output stages: graph extraction, the minimum
  period and the rebuild of the retimed netlist
  (:func:`repro.retime.apply.apply_retiming`).

``benchmarks/run_benchmarks.py`` folds the medians into
``BENCH_sim.json``, so ``repro bench report --diff`` gates a retiming
regression in CI like any simulator or estimator workload.
"""

import pytest

from repro.circuits.multipliers import build_multiplier_circuit
from repro.opt.balance import balance_paths
from repro.retime.graph import RetimingGraph
from repro.retime.leiserson_saxe import minimum_period
from repro.retime.pipeline import pipeline_circuit

#: Shape of the timed graph; run_benchmarks.py quotes it in the row.
N_VERTICES = 2401
N_EDGES = 3153
#: Minimum period of the timed graph under unit delay.
PERIOD = 16
#: Output stages, period and flipflops of the pipelined array16 row.
PIPELINE_STAGES = 2
PIPELINE_PERIOD = 11
PIPELINE_FLIPFLOPS = 162


@pytest.fixture(scope="module")
def array16():
    circuit, _ = build_multiplier_circuit(16, "array")
    return circuit


@pytest.fixture(scope="module")
def balanced_array16_graph(array16):
    balanced, _ = balance_paths(array16)
    return RetimingGraph.from_circuit(balanced).with_output_stages(1)


def test_retime_minperiod_balance_array16(benchmark, balanced_array16_graph):
    g = balanced_array16_graph
    assert (len(g.vertices), len(g.src)) == (N_VERTICES, N_EDGES)
    period, r = benchmark(minimum_period, g)
    assert period == PERIOD
    assert g.is_legal(r)


def test_retime_pipeline_array16(benchmark, array16):
    result = benchmark(pipeline_circuit, array16, PIPELINE_STAGES)
    assert (result.period, result.flipflops) == (PIPELINE_PERIOD, PIPELINE_FLIPFLOPS)
