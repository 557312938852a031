"""Tentative-output quality experiments: Fig. 12 and Fig. 13.

Both figures compare a plan's *predicted* quality (OF or IC under the
worst-case correlated failure) with the *measured* accuracy of tentative
outputs.  Each cell is one quality-axis scenario (:func:`quality_scenario`):
every task outside the plan — sources included — is killed, recovery stays
disabled (the paper measures quality *during* the outage), forged
punctuations drive tentative outputs at the sink, and the runner scores them
against a failure-free run of the same workload (simulated once per
workload, whatever the number of cells) with the query-specific overlap
function of Sec. VI-B, averaged over the batches after the windows have
fully turned over post-failure.

Fig. 12 plans with the structure-aware planner under the OF and IC
objectives; Fig. 13 compares the DP, SA and Greedy planners under OF.
"""

from __future__ import annotations

from typing import Any, Mapping, Sequence

from repro.errors import ExperimentError
from repro.experiments.recovery import Backend, FigureResult, output_quality, run_cells
from repro.scenarios import (
    FailureSpec,
    Scenario,
    ScenarioCache,
    make_planner,
    prebuilt_workload,
)

DEFAULT_FRACTIONS = (0.2, 0.4, 0.6, 0.8)

#: Query of the paper -> workload registry name.
QUERY_WORKLOADS = {"q1": "worldcup", "q2": "traffic"}

Params = Mapping[str, Any]


def _workload(query: str, workload_params: Params | None) -> Scenario:
    """The workload half of a ``query`` cell (``"q1"`` or ``"q2"``)."""
    try:
        workload = QUERY_WORKLOADS[query.lower()]
    except KeyError:
        raise ExperimentError(
            f"unknown query {query!r} (expected 'q1' or 'q2')") from None
    return Scenario(workload=workload, workload_params=dict(workload_params or {}))


def quality_scenario(query: str, workload_params: Params | None = None, *,
                     fraction: float, planner: str = "structure-aware",
                     objective: str = "OF", fail_time: float = 60.0,
                     measure_seconds: float = 40.0) -> Scenario:
    """One Fig. 12/13 cell: ``planner``'s plan under its worst-case outage.

    Tentative quality is only meaningful once the operator windows have fully
    turned over after the failure — before that, sink state still contains
    pre-failure contributions from the dead tasks and the accuracy is
    inflated.  Measurement therefore starts at ``fail_time + window + 10``
    and lasts ``measure_seconds``.
    """
    base = _workload(query, workload_params)
    window = prebuilt_workload(base)[0].window_seconds
    measure_from = fail_time + window + 10.0
    return base.with_overrides(
        name=f"{query}/{planner}-{objective}(fraction={fraction:g})",
        planner=planner, objective=objective, budget_fraction=fraction,
        engine={"checkpoint_interval": None, "tentative_outputs": True,
                "recovery_enabled": False},
        failures=(FailureSpec("unreplicated", at=fail_time,
                              params={"include_sources": True}),),
        quality={"measure_from": measure_from},
        duration=measure_from + measure_seconds,
    )


def _pivot(query: str, fractions: Sequence[float], workload_params: Params | None,
           columns: Sequence[tuple[str, str]], backend: Backend,
           cache: ScenarioCache | None) -> tuple[str, list[list[object]]]:
    """The query's display name and one ``[fraction, predicted, measured,
    ...]`` row per fraction, over (planner, objective) ``columns``."""
    results = run_cells({
        (fraction, column): quality_scenario(
            query, workload_params, fraction=fraction,
            planner=column[0], objective=column[1])
        for fraction in fractions for column in columns
    }, backend, cache)
    rows: list[list[object]] = []
    for fraction in fractions:
        rows.append([fraction])
        for column in columns:
            result = results[(fraction, column)]
            rows[-1] += [result.worst_case_fidelity,
                         output_quality(result.scenario.name, result)]
    return prebuilt_workload(_workload(query, workload_params))[0].name, rows


def fig12(query: str, fractions: Sequence[float] = DEFAULT_FRACTIONS,
          workload_params: Params | None = None, backend: Backend = None,
          cache: ScenarioCache | None = None) -> FigureResult:
    """Fig. 12: OF vs IC as predictors of tentative-output accuracy."""
    name, rows = _pivot(query, fractions, workload_params,
                        [("structure-aware", "OF"), ("structure-aware", "IC")],
                        backend, cache)
    return FigureResult(
        f"Fig. 12 ({name}): metric value vs measured tentative accuracy",
        ["fraction", "OF", "OF-SA-Accuracy", "IC", "IC-SA-Accuracy"], rows,
        notes="plans by the SA planner optimising OF / IC respectively",
    )


def fig13(query: str, fractions: Sequence[float] = DEFAULT_FRACTIONS,
          workload_params: Params | None = None,
          planners: Sequence[str] = ("dp", "structure-aware", "greedy"),
          backend: Backend = None,
          cache: ScenarioCache | None = None) -> FigureResult:
    """Fig. 13: DP vs SA vs Greedy — plan OF and measured accuracy.

    ``planners`` are planner-registry names; the structure-aware cells are
    the OF cells of Fig. 12, so a shared ``cache`` simulates them once.
    """
    name, rows = _pivot(query, fractions, workload_params,
                        [(planner, "OF") for planner in planners],
                        backend, cache)
    labels = [make_planner(planner).name for planner in planners]
    return FigureResult(
        f"Fig. 13 ({name}): planner comparison (OF and accuracy)",
        ["fraction"] + [f"{label}-{column}" for label in labels
                        for column in ("OF", "Accuracy")], rows,
        notes="worst-case correlated failure; recovery disabled during measurement",
    )
