#!/usr/bin/env python
"""Perf-baseline harness: measure the engine data plane, gate regressions.

Runs the three headline benchmarks and distils them into a small JSON
document (``BENCH_engine.json`` at the repo root):

* ``engine_throughput`` — the Fig. 6 workload at ``tuple_scale=16`` for 30
  simulated seconds (the same run as ``bench_engine_throughput.py``),
  reporting simulated-seconds-per-wall-second, events/second and peak RSS;
* ``grid_serial`` — an 8-cell scenario grid through the serial execution
  backend, reporting cells/second;
* ``grid_fig14`` — a Fig. 14-style random-topology grid cell: generated
  Sec. VI-C topologies (the ``zipf`` workload) swept over planners and
  replication fractions with correlated failures injected, reporting
  cells/second.  This is the tracked number for the random-topology sweep
  path that produces the paper's headline figures.

Because absolute wall-clock numbers are machine-dependent, every score is
also *normalized* by a fixed pure-Python calibration loop measured in the
same process (``benchmarks/calibration.py``, shared with
``bench_grid_backends.py``); the regression gate compares normalized
scores, so a slower CI runner does not trip it.

Usage::

    PYTHONPATH=src python benchmarks/baseline.py             # measure + print
    PYTHONPATH=src python benchmarks/baseline.py --write     # refresh BENCH_engine.json
    PYTHONPATH=src python benchmarks/baseline.py --check     # gate vs committed baseline
    PYTHONPATH=src python benchmarks/baseline.py --check --max-regression 0.25 \
        --output fresh.json                                  # what CI runs

``--check`` exits non-zero when any benchmark's normalized score fell more
than ``--max-regression`` (default 25%) below the committed baseline, and
prints a per-benchmark ratio table either way.
"""

from __future__ import annotations

import argparse
import json
import platform
import resource
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
if not any(Path(p).name == "src" for p in sys.path):
    sys.path.insert(0, str(REPO_ROOT / "src"))

from calibration import calibration_ops_per_second, normalized_score  # noqa: E402

from repro.engine import EngineConfig, StreamEngine  # noqa: E402
from repro.workloads.bundles import fig6_bundle  # noqa: E402
from repro.scenarios import Scenario, expand_grid, run_scenarios  # noqa: E402

DEFAULT_BASELINE = REPO_ROOT / "BENCH_engine.json"

#: Benchmark name -> key of its headline (higher-is-better) score.
HEADLINE = {
    "engine_throughput": "sim_seconds_per_wall_second",
    "grid_serial": "cells_per_second",
    "grid_fig14": "cells_per_second",
}

_GRID_BASE = {
    "name": "bench/grid",
    "workload": "custom",
    "topology": {
        "operators": [
            {"name": "S", "parallelism": 2, "kind": "source"},
            {"name": "A", "parallelism": 2, "selectivity": 0.5},
            {"name": "B", "parallelism": 1, "selectivity": 0.5},
        ],
        "edges": [
            {"upstream": "S", "downstream": "A", "pattern": "one-to-one"},
            {"upstream": "A", "downstream": "B", "pattern": "merge"},
        ],
    },
    "workload_params": {"source_rate": 40.0, "window_seconds": 6.0},
    "planner": "greedy",
    "engine": {"checkpoint_interval": 5.0, "heartbeat_interval": 2.0},
    "failures": [{"model": "single-task", "at": 8.0, "params": {"operator": "A"}}],
    "duration": 16.0,
}
_GRID_AXES = {"budget": [0, 1, 2, 3], "engine.checkpoint_interval": [4.0, 8.0]}


#: Fig. 14 cell: random Sec. VI-C topologies (zipf workload) x planners x
#: replication fractions, correlated failures injected — 12 cells over 3
#: distinct generated topologies, the shape of the paper's Fig. 14 sweep.
_FIG14_BASE = {
    "name": "bench/fig14",
    "workload": "zipf",
    "workload_params": {"seed": 0, "n_operators": [5, 7], "parallelism": [2, 5],
                        "zipf_s": 0.5, "base_rate": 200.0,
                        "window_seconds": 6.0, "tuple_scale": 8.0},
    "planner": "greedy",
    "engine": {"checkpoint_interval": 5.0, "heartbeat_interval": 2.0},
    "failures": [{"model": "correlated", "at": 8.0}],
    "duration": 14.0,
}
_FIG14_AXES = {
    "workload_params.seed": [0, 1, 2],
    "planner": ["greedy", "structure-aware"],
    "budget_fraction": [0.2, 0.6],
}


def _peak_rss_kb() -> int:
    return int(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)


def bench_engine_throughput(repeats: int) -> dict:
    """The Fig. 6 workload: 6 operators / 26 tasks, tuple_scale=16, 30 s."""
    simulated = 30.0

    def run_once() -> StreamEngine:
        bundle = fig6_bundle(1000.0, 10.0, tuple_scale=16.0)
        config = EngineConfig(checkpoint_interval=15.0, costs=bundle.costs)
        engine = StreamEngine(bundle.topology, bundle.make_logic(), config)
        engine.run(simulated)
        return engine

    run_once()  # warm up
    best_wall = float("inf")
    engine = None
    for _ in range(repeats):
        start = time.perf_counter()
        engine = run_once()
        best_wall = min(best_wall, time.perf_counter() - start)
    assert engine is not None
    metrics = engine.metrics
    return {
        "simulated_seconds": simulated,
        "wall_seconds": round(best_wall, 6),
        "sim_seconds_per_wall_second": round(simulated / best_wall, 3),
        "events_per_second": round(metrics.processed_events / best_wall, 1),
        "processed_events": metrics.processed_events,
        "batches_processed": metrics.batches_processed,
        "tuples_processed": metrics.tuples_processed,
        "peak_history_batches": metrics.peak_history_batches,
        "peak_rss_kb": _peak_rss_kb(),
    }


def _bench_grid(scenarios, repeats: int) -> dict:
    """Time a serial grid run of ``scenarios`` (best-of-``repeats``)."""

    def run_once() -> None:
        results = run_scenarios(scenarios, backend="serial")
        assert len(results) == len(scenarios)

    run_once()  # warm up
    best_wall = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        run_once()
        best_wall = min(best_wall, time.perf_counter() - start)
    return {
        "cells": len(scenarios),
        "wall_seconds": round(best_wall, 6),
        "cells_per_second": round(len(scenarios) / best_wall, 3),
        "peak_rss_kb": _peak_rss_kb(),
    }


def bench_grid_serial(repeats: int) -> dict:
    """An 8-cell scenario grid through the serial execution backend."""
    return _bench_grid(expand_grid(Scenario.from_dict(_GRID_BASE), _GRID_AXES),
                       repeats)


def bench_grid_fig14(repeats: int) -> dict:
    """The Fig. 14 random-topology sweep cell (12 cells, 3 topologies)."""
    return _bench_grid(expand_grid(Scenario.from_dict(_FIG14_BASE),
                                   _FIG14_AXES), repeats)


def measure(repeats: int) -> dict:
    """Run every benchmark and assemble the baseline document."""
    calibration = calibration_ops_per_second()
    report = {
        "schema": 1,
        "python": platform.python_version(),
        "machine": platform.machine(),
        "calibration_ops_per_second": round(calibration, 1),
        "benchmarks": {
            "engine_throughput": bench_engine_throughput(repeats),
            "grid_serial": bench_grid_serial(repeats),
            "grid_fig14": bench_grid_fig14(repeats),
        },
    }
    for name, bench in report["benchmarks"].items():
        score = bench[HEADLINE[name]]
        bench["normalized_score"] = normalized_score(score, calibration)
    return report


def compare(current: dict, baseline: dict, max_regression: float) -> list[str]:
    """Regression messages (empty when the gate passes)."""
    failures: list[str] = []
    print(f"{'benchmark':<20} {'baseline':>12} {'current':>12} {'ratio':>8}")
    for name in HEADLINE:
        base = baseline.get("benchmarks", {}).get(name)
        cur = current["benchmarks"].get(name)
        if base is None or "normalized_score" not in base:
            print(f"{name:<20} {'(absent)':>12} "
                  f"{cur['normalized_score']:>12.3f} {'n/a':>8}")
            continue
        ratio = cur["normalized_score"] / base["normalized_score"]
        print(f"{name:<20} {base['normalized_score']:>12.3f} "
              f"{cur['normalized_score']:>12.3f} {ratio:>7.2f}x")
        if ratio < 1.0 - max_regression:
            failures.append(
                f"{name}: normalized score fell to {ratio:.2f}x of the "
                f"baseline (gate: >= {1.0 - max_regression:.2f}x)"
            )
    speedup = current.get("speedup_vs_seed")
    if speedup is not None:
        print(f"speedup vs pre-fast-path seed: {speedup:.2f}x")
    for name, ratio in (current.get("speedup_vs_pr4") or {}).items():
        print(f"speedup vs PR 4 ({name}): {ratio:.2f}x")
    return failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--write", action="store_true",
                        help=f"write the measurement to {DEFAULT_BASELINE.name}")
    parser.add_argument("--check", action="store_true",
                        help="compare against the committed baseline and "
                             "fail on regression")
    parser.add_argument("--baseline", type=Path, default=DEFAULT_BASELINE,
                        help="baseline JSON to compare against / refresh")
    parser.add_argument("--output", type=Path, default=None,
                        help="also write the fresh measurement here "
                             "(e.g. a CI artifact)")
    parser.add_argument("--max-regression", type=float, default=0.25,
                        help="allowed fractional drop in normalized score "
                             "(default 0.25)")
    parser.add_argument("--repeats", type=int, default=3,
                        help="timing repetitions per benchmark (best-of)")
    args = parser.parse_args(argv)

    current = measure(max(1, args.repeats))

    baseline = None
    if args.baseline.exists():
        baseline = json.loads(args.baseline.read_text())
        # Carry the pre-optimization references forward so the committed
        # file keeps documenting the speedups on their original machines.
        seed = baseline.get("seed_reference")
        if seed:
            current["seed_reference"] = seed
            seed_norm = (seed["sim_seconds_per_wall_second"]
                         / seed["calibration_ops_per_second"] * 1e6)
            cur_norm = current["benchmarks"]["engine_throughput"][
                "normalized_score"]
            current["speedup_vs_seed"] = round(cur_norm / seed_norm, 2)
        # The PR 4 reference pins the pre-kernel-plane grid numbers; the
        # kernelized compute plane + prebuilt workers target >= 1.3x here.
        pr4 = baseline.get("pr4_reference")
        if pr4:
            current["pr4_reference"] = pr4
            speedups = {}
            for name, old_norm in pr4.get("normalized_scores", {}).items():
                bench = current["benchmarks"].get(name)
                if bench and old_norm:
                    speedups[name] = round(
                        bench["normalized_score"] / old_norm, 2)
            if speedups:
                current["speedup_vs_pr4"] = speedups

    if args.output is not None:
        args.output.write_text(json.dumps(current, indent=2) + "\n")
        print(f"wrote {args.output}")
    if args.write:
        args.baseline.write_text(json.dumps(current, indent=2) + "\n")
        print(f"wrote {args.baseline}")

    if args.check:
        if baseline is None:
            print(f"error: no baseline at {args.baseline}", file=sys.stderr)
            return 2
        failures = compare(current, baseline, args.max_regression)
        for failure in failures:
            print(f"REGRESSION: {failure}", file=sys.stderr)
        return 1 if failures else 0

    print(json.dumps(current, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
