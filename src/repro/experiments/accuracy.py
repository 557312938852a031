"""Tentative-output quality experiments: Fig. 12 and Fig. 13.

Both figures compare a plan's *predicted* quality (OF or IC under the
worst-case correlated failure) with the *measured* accuracy of tentative
outputs, obtained by actually running the query twice on the engine:

1. a failure-free run collects the accurate per-batch sink outputs;
2. a failure run kills every task outside the plan, keeps recovery disabled
   (the paper measures quality *during* the outage) and lets the forged
   punctuations drive tentative outputs at the sink.

Accuracy is the query-specific overlap function (Sec. VI-B) averaged over
the batches after the windows have fully turned over post-failure.

Fig. 12 plans with the structure-aware planner under the OF and IC
objectives; Fig. 13 compares the DP, SA and Greedy planners under OF.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass
from typing import Iterable, Sequence

from repro.core.completeness import worst_case_completeness
from repro.core.dp import DynamicProgrammingPlanner
from repro.core.fidelity import worst_case_fidelity
from repro.core.greedy import GreedyPlanner
from repro.core.plans import IC_OBJECTIVE, Planner, budget_from_fraction
from repro.core.structure_aware import StructureAwarePlanner
from repro.engine.config import EngineConfig
from repro.engine.engine import StreamEngine
from repro.engine.tuples import KeyedTuple
from repro.errors import ExperimentError
from repro.experiments.recovery import FigureResult
from repro.topology.operators import TaskId
from repro.workloads.bundles import QueryBundle, q1_bundle, q2_bundle

DEFAULT_FRACTIONS = (0.2, 0.4, 0.6, 0.8)


@dataclass(frozen=True)
class AccuracySettings:
    """Timing of one accuracy measurement."""

    fail_time: float = 75.0
    measure_from: float = 120.0
    duration: float = 180.0

    def __post_init__(self) -> None:
        if not self.fail_time < self.measure_from < self.duration:
            raise ExperimentError(
                "need fail_time < measure_from < duration, got "
                f"{self.fail_time} / {self.measure_from} / {self.duration}"
            )


def settings_for(bundle: QueryBundle, *, fail_time: float = 60.0,
                 measure_seconds: float = 40.0) -> AccuracySettings:
    """Measurement timing derived from the bundle's window length.

    Tentative quality is only meaningful once the operator windows have fully
    turned over after the failure — before that, sink state still contains
    pre-failure contributions from the dead tasks and the accuracy is
    inflated.  Measurement therefore starts at
    ``fail_time + window + 10`` and lasts ``measure_seconds``.
    """
    measure_from = fail_time + bundle.window_seconds + 10.0
    return AccuracySettings(
        fail_time=fail_time,
        measure_from=measure_from,
        duration=measure_from + measure_seconds,
    )


def _sink_outputs_by_batch(engine: StreamEngine, sink: TaskId
                           ) -> dict[int, tuple[KeyedTuple, ...]]:
    return {
        record.index: record.tuples
        for record in engine.metrics.sink_records
        if record.task == sink
    }


def run_baseline(bundle: QueryBundle, settings: AccuracySettings
                 ) -> dict[int, tuple[KeyedTuple, ...]]:
    """Failure-free run; returns accurate sink outputs by batch index."""
    config = EngineConfig(checkpoint_interval=None, costs=bundle.costs)
    engine = StreamEngine(bundle.topology, bundle.make_logic(), config)
    engine.run(settings.duration)
    if bundle.sink_task is None:
        raise ExperimentError(f"bundle {bundle.name} has no sink task")
    return _sink_outputs_by_batch(engine, bundle.sink_task)


def measured_accuracy(bundle: QueryBundle, plan: Iterable[TaskId],
                      baseline: dict[int, tuple[KeyedTuple, ...]],
                      settings: AccuracySettings = AccuracySettings()) -> float:
    """Mean tentative accuracy of ``plan`` under worst-case correlated failure."""
    if bundle.accuracy_fn is None or bundle.sink_task is None:
        raise ExperimentError(f"bundle {bundle.name} does not support accuracy runs")
    plan_set = frozenset(plan)
    config = EngineConfig(
        checkpoint_interval=None, tentative_outputs=True,
        recovery_enabled=False, costs=bundle.costs,
    )
    engine = StreamEngine(bundle.topology, bundle.make_logic(), config,
                          plan=plan_set)
    victims = [t for t in bundle.topology.tasks() if t not in plan_set]
    if victims:
        engine.schedule_task_failure(settings.fail_time, victims)
    engine.run(settings.duration)
    tentative = _sink_outputs_by_batch(engine, bundle.sink_task)

    measured = []
    for index, accurate in sorted(baseline.items()):
        batch_time = index + 1.0  # batch_interval is 1 s in all bundles
        # The last two batches may still be in flight when the run ends;
        # excluding them avoids counting scheduling artefacts as data loss.
        if not settings.measure_from <= batch_time <= settings.duration - 2.0:
            continue
        produced = tentative.get(index, ())
        measured.append(bundle.accuracy_fn(produced, accurate))
    if not measured:
        raise ExperimentError("no batches fell inside the measurement window")
    return statistics.fmean(measured)


def _bundle_for(query: str) -> QueryBundle:
    if query.lower() == "q1":
        return q1_bundle()
    if query.lower() == "q2":
        return q2_bundle()
    raise ExperimentError(f"unknown query {query!r} (expected 'q1' or 'q2')")


def fig12(query: str, fractions: Sequence[float] = DEFAULT_FRACTIONS,
          settings: AccuracySettings | None = None,
          bundle: QueryBundle | None = None) -> FigureResult:
    """Fig. 12: OF vs IC as predictors of tentative-output accuracy."""
    bundle = bundle or _bundle_for(query)
    settings = settings or settings_for(bundle)
    baseline = run_baseline(bundle, settings)
    of_planner = StructureAwarePlanner()
    ic_planner = StructureAwarePlanner(IC_OBJECTIVE)

    headers = ["fraction", "OF", "OF-SA-Accuracy", "IC", "IC-SA-Accuracy"]
    rows: list[list[object]] = []
    for fraction in fractions:
        budget = budget_from_fraction(bundle.topology, fraction)
        of_plan = of_planner.plan(bundle.topology, bundle.rates, budget)
        ic_plan = ic_planner.plan(bundle.topology, bundle.rates, budget)
        rows.append([
            fraction,
            worst_case_fidelity(bundle.topology, bundle.rates, of_plan.replicated),
            measured_accuracy(bundle, of_plan.replicated, baseline, settings),
            worst_case_completeness(bundle.topology, bundle.rates, ic_plan.replicated),
            measured_accuracy(bundle, ic_plan.replicated, baseline, settings),
        ])
    return FigureResult(
        f"Fig. 12 ({bundle.name}): metric value vs measured tentative accuracy",
        headers, rows,
        notes="plans by the SA planner optimising OF / IC respectively",
    )


def fig13(query: str, fractions: Sequence[float] = DEFAULT_FRACTIONS,
          settings: AccuracySettings | None = None,
          bundle: QueryBundle | None = None,
          planners: Sequence[Planner] | None = None) -> FigureResult:
    """Fig. 13: DP vs SA vs Greedy — plan OF and measured accuracy."""
    bundle = bundle or _bundle_for(query)
    settings = settings or settings_for(bundle)
    baseline = run_baseline(bundle, settings)
    if planners is None:
        planners = (DynamicProgrammingPlanner(), StructureAwarePlanner(),
                    GreedyPlanner())

    headers = ["fraction"]
    for planner in planners:
        headers.extend([f"{planner.name}-OF", f"{planner.name}-Accuracy"])
    rows: list[list[object]] = []
    for fraction in fractions:
        budget = budget_from_fraction(bundle.topology, fraction)
        row: list[object] = [fraction]
        for planner in planners:
            plan = planner.plan(bundle.topology, bundle.rates, budget)
            row.append(worst_case_fidelity(
                bundle.topology, bundle.rates, plan.replicated
            ))
            row.append(measured_accuracy(
                bundle, plan.replicated, baseline, settings
            ))
        rows.append(row)
    return FigureResult(
        f"Fig. 13 ({bundle.name}): planner comparison (OF and accuracy)",
        headers, rows,
        notes="worst-case correlated failure; recovery disabled during measurement",
    )
