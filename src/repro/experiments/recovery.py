"""Recovery-efficiency experiments: Fig. 7, Fig. 8 and Fig. 10.

Each cell of the paper's bar charts is one engine run on the Fig. 6 workload
with a given fault-tolerance technique:

* ``Active-<s>s`` — every synthetic task has a hot replica; ``<s>`` is the
  primary/replica output-sync (trim) interval;
* ``Checkpoint-<s>s`` — pure passive recovery from checkpoints taken every
  ``<s>`` seconds;
* ``Storm`` — no checkpoints; state is rebuilt by replaying source data for
  the unfinished window instances through the whole topology.

Fig. 7 injects a single-task failure (averaged over tasks at different
depths, as the paper does); Fig. 8 kills every node hosting a synthetic
task; Fig. 10 repeats the correlated failure under PPA plans replicating
all / half / none of the tasks.

Every figure of the package but Fig. 9 is a *grid plus a pivot*: it spells
its cells as a ``{key: Scenario}`` mapping (a technique is a registered
recovery scheme plus engine overrides, a failure a
:class:`~repro.scenarios.spec.FailureSpec`), hands the whole mapping to
:func:`run_cells` — one :func:`~repro.scenarios.grid.run_scenarios` batch,
so the figure fans out over any execution ``backend`` (``"processes"`` for
paper-scale runs) and reuses a content-addressed ``cache`` across re-runs —
and pivots the ``{key: ScenarioResult}`` it gets back into table rows.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass, field
from typing import Any, Collection, Hashable, Mapping, Optional, Sequence, Union

from repro.experiments.tables import format_table
from repro.scenarios import FailureSpec, Scenario, ScenarioResult, run_scenarios
from repro.scenarios.backends import ExecutionBackend
from repro.scenarios.cache import ScenarioCache
from repro.topology.operators import TaskId
from repro.workloads.bundles import QueryBundle

#: Default failure-injection time (window filled and every task checkpointed).
DEFAULT_FAIL_TIME = 45.0
#: Default run duration; recoveries finish during the post-run settle drain.
DEFAULT_DURATION = 60.0

#: Single-failure positions, one per topology depth (the paper averages over
#: failed-task locations because Storm's replay cost grows with depth).
DEFAULT_POSITIONS = (
    TaskId("O1", 0), TaskId("O2", 0), TaskId("O3", 0), TaskId("O4", 0),
)

#: What every figure accepts as ``backend=`` (see :func:`run_scenarios`).
Backend = Optional[Union[str, ExecutionBackend]]


def fig6_scenario(name: str, *, rate: float, window: float, tuple_scale: float,
                  failure: FailureSpec, duration: float = DEFAULT_DURATION,
                  **fields: Any) -> Scenario:
    """One cell on the Fig. 6 workload; ``fields`` are further Scenario fields."""
    return Scenario(
        name=name, workload="synthetic",
        workload_params={"rate_per_source": rate, "window_seconds": window,
                         "tuple_scale": tuple_scale},
        failures=(failure,), duration=duration, **fields,
    )


def run_cells(cells: Mapping[Hashable, Scenario], backend: Backend = None,
              cache: ScenarioCache | None = None
              ) -> dict[Hashable, ScenarioResult]:
    """Run a figure's ``{key: Scenario}`` grid as one batch; results by key."""
    results = run_scenarios(list(cells.values()), backend=backend, cache=cache)
    return dict(zip(cells, results))


def completed_latencies(label: str, result: ScenarioResult,
                        tasks: Collection[TaskId] | None = None) -> list[float]:
    """Latencies of the finished recoveries (of ``tasks`` only, when given)."""
    latencies = [r.latency for r in result.recoveries
                 if r.latency is not None and (tasks is None or r.task in tasks)]
    if not latencies:
        raise RuntimeError(f"{label}: recovery incomplete; extend the run")
    return latencies


def recovery_latency(label: str, result: ScenarioResult,
                     tasks: Collection[TaskId] | None = None) -> float:
    """Time until every failed task caught up (the correlated-failure view).

    With ``tasks`` — the replicated subtree of a PPA plan — the time until
    just those did, i.e. the moment tentative output can resume.
    """
    return max(completed_latencies(label, result, tasks))


def output_quality(label: str, result: ScenarioResult) -> float:
    """The cell's measured sink accuracy (its scenario must set ``quality``)."""
    if result.output_quality is None:
        raise RuntimeError(f"{label}: no output quality")
    return result.output_quality


@dataclass(frozen=True)
class Technique:
    """One fault-tolerance configuration (one bar colour in Fig. 7/8)."""

    label: str
    #: A :data:`~repro.engine.recovery.RECOVERY_SCHEMES` name.
    recovery: str
    #: Engine overrides (checkpoint / sync intervals).
    engine: dict[str, Any] = field(default_factory=dict)
    #: The plan the scheme's placement amounts to (``"all"`` under
    #: ``active-standby``), so results report the replicas that really ran.
    planner: str = "none"

    def scenario(self, *, window: float, rate: float, tuple_scale: float,
                 failure: FailureSpec,
                 duration: float = DEFAULT_DURATION) -> Scenario:
        """One Fig. 6-workload scenario running this technique."""
        return fig6_scenario(
            f"{self.label}(win={window:g},rate={rate:g})",
            rate=rate, window=window, tuple_scale=tuple_scale,
            failure=failure, duration=duration,
            planner=self.planner, recovery=self.recovery,
            engine={**self.engine,
                    "source_replay_window_batches": round(window)},
        )


DEFAULT_TECHNIQUES = (
    Technique("Active-5s", "active-standby",
              {"checkpoint_interval": None, "sync_interval": 5.0}, "all"),
    Technique("Active-30s", "active-standby",
              {"checkpoint_interval": None, "sync_interval": 30.0}, "all"),
    Technique("Checkpoint-5s", "checkpoint-replay", {"checkpoint_interval": 5.0}),
    Technique("Checkpoint-15s", "checkpoint-replay", {"checkpoint_interval": 15.0}),
    Technique("Checkpoint-30s", "checkpoint-replay", {"checkpoint_interval": 30.0}),
    Technique("Storm", "source-replay", {"checkpoint_interval": None}),
)


@dataclass
class FigureResult:
    """One reproduced figure: headers + rows + free-form notes."""

    figure: str
    headers: list[str]
    rows: list[list[object]]
    notes: str = ""

    def render(self, precision: int = 2) -> str:
        """The figure as an aligned text table plus notes."""
        table = format_table(self.headers, self.rows, precision=precision,
                             title=f"== {self.figure} ==")
        if self.notes:
            table += f"\n{self.notes}"
        return table


def _single_failure_cells(technique: Technique, *, window: float, rate: float,
                          positions: Sequence[TaskId], tuple_scale: float,
                          fail_time: float = DEFAULT_FAIL_TIME,
                          duration: float = DEFAULT_DURATION
                          ) -> dict[TaskId, Scenario]:
    """One single-task-failure scenario per failed-task position."""
    return {
        position: technique.scenario(
            window=window, rate=rate, tuple_scale=tuple_scale,
            duration=duration,
            failure=FailureSpec("single-task", at=fail_time,
                                params={"operator": position.operator,
                                        "index": position.index}))
        for position in positions
    }


def _mean_latency(technique: Technique,
                  results: Mapping[TaskId, ScenarioResult]) -> float:
    """Mean recovery latency over the failed-task positions of ``results``."""
    return statistics.fmean(
        latency for position, result in results.items()
        for latency in completed_latencies(
            f"{technique.label} at {position}", result))


def single_failure_latency(technique: Technique, *, window: float, rate: float,
                           positions: Sequence[TaskId] = DEFAULT_POSITIONS,
                           tuple_scale: float = 8.0,
                           fail_time: float = DEFAULT_FAIL_TIME,
                           duration: float = DEFAULT_DURATION,
                           backend: Backend = None,
                           cache: ScenarioCache | None = None) -> float:
    """Mean recovery latency over single-task failures at several depths."""
    cells = _single_failure_cells(
        technique, window=window, rate=rate, positions=positions,
        tuple_scale=tuple_scale, fail_time=fail_time, duration=duration)
    return _mean_latency(technique, run_cells(cells, backend, cache))


def correlated_failure_latency(technique: Technique, *, window: float,
                               rate: float, tuple_scale: float = 8.0,
                               fail_time: float = DEFAULT_FAIL_TIME,
                               duration: float = DEFAULT_DURATION,
                               backend: Backend = None,
                               cache: ScenarioCache | None = None) -> float:
    """Time to recover *all* synthetic tasks after a correlated failure."""
    label = technique.label
    scenario = technique.scenario(
        window=window, rate=rate, tuple_scale=tuple_scale,
        failure=FailureSpec("correlated", at=fail_time), duration=duration,
    )
    return recovery_latency(
        label, run_cells({label: scenario}, backend, cache)[label])


def fig7(windows: Sequence[float] = (10.0, 30.0),
         rates: Sequence[float] = (1000.0, 2000.0),
         techniques: Sequence[Technique] = DEFAULT_TECHNIQUES,
         positions: Sequence[TaskId] = DEFAULT_POSITIONS,
         tuple_scale: float = 8.0,
         backend: Backend = None,
         cache: ScenarioCache | None = None) -> FigureResult:
    """Fig. 7: recovery latency of single-node failure.

    One cell per (window × rate × technique × position); a table entry is
    the mean over the positions.
    """
    results = run_cells({
        (window, rate, technique.label, position): scenario
        for window in windows for rate in rates for technique in techniques
        for position, scenario in _single_failure_cells(
            technique, window=window, rate=rate, positions=positions,
            tuple_scale=tuple_scale).items()
    }, backend, cache)
    rows = [
        [f"{window:g}s", f"{rate:g}t/s"]
        + [_mean_latency(t, {position: results[(window, rate, t.label, position)]
                             for position in positions})
           for t in techniques]
        for window in windows for rate in rates
    ]
    return FigureResult(
        "Fig. 7: single-node failure recovery latency (s)",
        ["window", "rate"] + [t.label for t in techniques], rows,
        notes="mean over failed-task depths " + ", ".join(map(str, positions)),
    )


def fig8(windows: Sequence[float] = (10.0, 30.0),
         rates: Sequence[float] = (1000.0, 2000.0),
         techniques: Sequence[Technique] = DEFAULT_TECHNIQUES,
         tuple_scale: float = 8.0,
         backend: Backend = None,
         cache: ScenarioCache | None = None) -> FigureResult:
    """Fig. 8: recovery latency of a correlated failure (all 15 tasks).

    One cell per (window × rate × technique).
    """
    failure = FailureSpec("correlated", at=DEFAULT_FAIL_TIME)
    results = run_cells({
        (window, rate, technique.label): technique.scenario(
            window=window, rate=rate, tuple_scale=tuple_scale, failure=failure)
        for window in windows for rate in rates for technique in techniques
    }, backend, cache)
    rows = [
        [f"{window:g}s", f"{rate:g}t/s"]
        + [recovery_latency(t.label, results[(window, rate, t.label)])
           for t in techniques]
        for window in windows for rate in rates
    ]
    return FigureResult(
        "Fig. 8: correlated failure recovery latency (s)",
        ["window", "rate"] + [t.label for t in techniques], rows,
        notes="time until every synthetic task caught up (15 tasks killed)",
    )


#: The PPA-0.5 plan: the complete half of the aggregation tree.  The paper's
#: PPA-0.5 replicates half of the tasks; because only complete MC-trees
#: produce tentative output, the sensible half is a full subtree (8 of 15
#: tasks).
HALF_SUBTREE = frozenset(
    [TaskId("O4", 0), TaskId("O3", 0), TaskId("O2", 0), TaskId("O2", 1)]
    + [TaskId("O1", index) for index in range(4)]
)

#: Fig. 10 plan label -> (planner, planner_params).
PPA_PLANS: dict[str, tuple[str, dict[str, object]]] = {
    "PPA-1.0": ("all", {}),
    "PPA-0.5": ("fixed", {"tasks": [[t.operator, t.index]
                                    for t in sorted(HALF_SUBTREE)]}),
    "PPA-0": ("none", {}),
}


def half_subtree_plan(bundle: QueryBundle) -> frozenset[TaskId]:
    """:data:`HALF_SUBTREE` as tasks of ``bundle`` (a Fig. 6 bundle)."""
    return frozenset(t for t in bundle.synthetic_tasks if t in HALF_SUBTREE)


def ppa_scenario(label: str, *, rate: float, checkpoint_interval: float,
                 window: float, tuple_scale: float,
                 fail_time: float = DEFAULT_FAIL_TIME,
                 duration: float = DEFAULT_DURATION) -> Scenario:
    """One Fig. 10 cell: a correlated failure under the :data:`PPA_PLANS` plan."""
    planner, planner_params = PPA_PLANS[label]
    return fig6_scenario(
        f"fig10/{label}(rate={rate:g},ckpt={checkpoint_interval:g})",
        rate=rate, window=window, tuple_scale=tuple_scale,
        failure=FailureSpec("correlated", at=fail_time), duration=duration,
        planner=planner, planner_params=planner_params,
        engine={"checkpoint_interval": checkpoint_interval,
                "sync_interval": 5.0, "tentative_outputs": True},
    )


def fig10(rates: Sequence[float] = (1000.0, 2000.0),
          checkpoint_intervals: Sequence[float] = (5.0, 15.0, 30.0),
          window: float = 30.0, tuple_scale: float = 8.0,
          fail_time: float = DEFAULT_FAIL_TIME,
          duration: float = DEFAULT_DURATION,
          backend: Backend = None,
          cache: ScenarioCache | None = None) -> FigureResult:
    """Fig. 10: correlated-failure recovery latency under PPA plans.

    PPA-1.0 replicates all 15 synthetic tasks, PPA-0.5 half of them (one
    complete subtree), PPA-0 none; ``PPA-0.5-active`` is the recovery
    completion of just the actively replicated tasks within the PPA-0.5 run
    (the moment tentative output can resume).  One cell per
    (rate × interval × plan).
    """
    results = run_cells({
        (rate, interval, label): ppa_scenario(
            label, rate=rate, checkpoint_interval=interval, window=window,
            tuple_scale=tuple_scale, fail_time=fail_time, duration=duration)
        for rate in rates for interval in checkpoint_intervals
        for label in PPA_PLANS
    }, backend, cache)

    def latency(rate: float, interval: float, label: str,
                tasks: Collection[TaskId] | None = None) -> float:
        return recovery_latency(label, results[(rate, interval, label)], tasks)

    rows = [
        [f"{rate:g}t/s", f"{interval:g}s",
         latency(rate, interval, "PPA-1.0"),
         latency(rate, interval, "PPA-0.5", HALF_SUBTREE),
         latency(rate, interval, "PPA-0.5"),
         latency(rate, interval, "PPA-0")]
        for rate in rates for interval in checkpoint_intervals
    ]
    return FigureResult(
        f"Fig. 10: PPA recovery latency, correlated failure (window {window:g}s)",
        ["rate", "ckpt interval",
         "PPA-1.0", "PPA-0.5-active", "PPA-0.5", "PPA-0"], rows,
        notes="PPA-0.5-active = recovery completion of the replicated subtree",
    )


def scheme_sweep(schemes: Sequence[str] | None = None,
                 windows: Sequence[float] = (10.0, 30.0),
                 rates: Sequence[float] = (1000.0, 2000.0),
                 failure_models: Sequence[str] = ("correlated",
                                                  "rolling-restart",
                                                  "flapping",
                                                  "detection-jitter"),
                 budget_fraction: float = 0.5, tuple_scale: float = 8.0,
                 duration: float = DEFAULT_DURATION,
                 backend: Backend = None,
                 cache: ScenarioCache | None = None) -> FigureResult:
    """Recovery-scheme sweep: every registered scheme × failure model.

    The comparison the monolithic engine could not run: each cell executes
    the Fig. 6 workload under one :data:`RECOVERY_SCHEMES` entry (default:
    all of them, so schemes registered from outside the library join the
    sweep automatically) and one failure model.  Each (window, rate,
    failure) combination contributes two table rows: the time until every
    victim recovered (``latency``) and the mean sink-output accuracy
    against a failure-free baseline (``quality``, the paper's Fig. 12/13
    measure) — the axis that makes approximate recovery comparable to the
    exact schemes.  The PPA cell keeps its structure-aware half-budget
    plan; the pure schemes ignore the plan by design.
    """
    from repro.engine.recovery import RECOVERY_SCHEMES

    names = tuple(schemes) if schemes is not None else RECOVERY_SCHEMES.names()
    # Fail times scale with the run so a shortened sweep stays valid: the
    # correlated failure lands at 3/4 of the run (t=45 at the default 60 s),
    # the rolling restart starts at the midpoint with its 7 staggered kills
    # (O2-O4, 6 stagger steps) bounded to finish within the run, flapping
    # fits two kill/recover cycles after the midpoint, and detection-jitter
    # wraps the correlated failure with randomized detection delays.
    model_failures = {
        "correlated": FailureSpec("correlated", at=duration * 0.75),
        "rolling-restart": FailureSpec(
            "rolling-restart", at=duration / 2,
            params={"stagger": min(3.0, duration / 12),
                    "operators": ["O2", "O3", "O4"]}),
        "flapping": FailureSpec(
            "flapping", at=duration / 2,
            params={"cycles": 2, "down": min(4.0, duration / 15),
                    "up": min(6.0, duration / 10),
                    "operators": ["O2", "O3"]}),
        "detection-jitter": FailureSpec(
            "detection-jitter", at=duration * 0.75,
            params={"jitter": 2.0}),
    }

    cells: dict[tuple[float, float, str, str], Scenario] = {}
    for window in windows:
        for rate in rates:
            for model in failure_models:
                failure = model_failures.get(
                    model, FailureSpec(model, at=duration * 0.75))
                for scheme in names:
                    cells[(window, rate, model, scheme)] = fig6_scenario(
                        f"schemes/{scheme}({model},win={window:g},"
                        f"rate={rate:g})",
                        rate=rate, window=window, tuple_scale=tuple_scale,
                        failure=failure, duration=duration,
                        planner="structure-aware",
                        budget_fraction=budget_fraction,
                        engine={"checkpoint_interval": 15.0,
                                "sync_interval": 5.0,
                                "tentative_outputs": True,
                                "source_replay_window_batches": round(window)},
                        recovery=scheme,
                        quality={"measure_from": failure.at},
                    )
    results = run_cells(cells, backend, cache)

    rows: list[list[object]] = []
    for window in windows:
        for rate in rates:
            for model in failure_models:
                for metric, read in (("latency", recovery_latency),
                                     ("quality", output_quality)):
                    row: list[object] = [f"{window:g}s", f"{rate:g}t/s",
                                         model, metric]
                    row.extend(
                        read(f"scheme {scheme!r} under {model!r}",
                             results[(window, rate, model, scheme)])
                        for scheme in names)
                    rows.append(row)
    return FigureResult(
        "Scheme sweep: max recovery latency (s) and output quality "
        "per fault-tolerance scheme",
        ["window", "rate", "failure", "metric"] + list(names), rows,
        notes=f"structure-aware plan at budget fraction {budget_fraction:g}; "
              f"pure schemes ignore the plan; quality = mean sink accuracy "
              f"vs failure-free baseline from the first failure on",
    )
