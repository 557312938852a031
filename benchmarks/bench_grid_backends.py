"""Grid execution backends: serial vs processes on a 64-cell grid.

Each cell is a small custom-topology engine run (pure CPU, deterministic),
so the processes backend shows real multi-core speedup.  The benchmark
also asserts that every backend produces identical results — the
ordering-independent collection path and the per-process workload memo
must not change outcomes.

Scores are normalized with the same calibration loop as
``benchmarks/baseline.py`` (see ``benchmarks/calibration.py``): every
benchmark records ``cells_per_second`` and machine-independent
``normalized_cells_per_second`` in its ``extra_info``, so numbers from
different machines — and from the committed ``BENCH_engine.json`` — are
directly comparable.
"""

from __future__ import annotations

import pytest

from calibration import calibration_ops_per_second, normalized_score

from repro.scenarios import (
    EdgeDef,
    FailureSpec,
    GridSession,
    OperatorDef,
    Scenario,
    TopologyRecipe,
    expand_grid,
)

#: 8 budgets x 4 checkpoint intervals x 2 seeds = 64 distinct cells.
AXES = {
    "budget": [0, 1, 2, 3, 4, 5, 6, 7],
    "engine.checkpoint_interval": [2.0, 4.0, 6.0, 8.0],
    "seed": [0, 1],
}


def base_scenario() -> Scenario:
    recipe = TopologyRecipe(
        operators=(
            OperatorDef("S", 4, kind="source"),
            OperatorDef("A", 4, selectivity=0.5),
            OperatorDef("B", 2, selectivity=0.5),
            OperatorDef("C", 1, selectivity=0.5),
        ),
        edges=(
            EdgeDef("S", "A", "one-to-one"),
            EdgeDef("A", "B", "merge"),
            EdgeDef("B", "C", "merge"),
        ),
    )
    return Scenario(
        name="bench", workload="custom", topology=recipe,
        workload_params={"source_rate": 40.0, "window_seconds": 5.0},
        planner="greedy", engine={"checkpoint_interval": 4.0},
        failures=(FailureSpec("single-task", at=8.0, params={"operator": "A"}),),
        duration=16.0,
    )


def run_with(backend: str) -> list:
    grid = expand_grid(base_scenario(), AXES)
    assert len(grid) == 64
    report = GridSession(backend).run(grid)
    assert report.total == 64 and report.errors == 0
    return [r.to_dict() for r in report.results()]


@pytest.fixture(scope="module")
def calibration() -> float:
    return calibration_ops_per_second()


@pytest.fixture(scope="module")
def serial_baseline() -> list:
    return run_with("serial")


@pytest.mark.parametrize("backend", ["serial", "processes"])
def test_grid_backend_throughput(benchmark, backend, serial_baseline,
                                 calibration):
    results = benchmark.pedantic(run_with, args=(backend,),
                                 rounds=1, iterations=1)
    assert results == serial_baseline, (
        f"{backend} backend must match the serial results exactly"
    )
    cells_per_second = 64 / benchmark.stats.stats.min
    benchmark.extra_info["cells_per_second"] = round(cells_per_second, 3)
    benchmark.extra_info["calibration_ops_per_second"] = round(calibration, 1)
    benchmark.extra_info["normalized_cells_per_second"] = normalized_score(
        cells_per_second, calibration)
