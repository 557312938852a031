"""Execute one declarative scenario end-to-end into a structured result.

:func:`run_scenario` is the single façade the examples, the CLI, the figure
harness, grids, the sweep server and cluster workers all share: resolve the
workload, plan active replication, configure the engine, inject the
scheduled failures, run, and distil the metrics into a
:class:`ScenarioResult` (plan with provenance, fidelity prediction vs the
injected failure, recovery latencies, tentative-output counts).

There is one run path.  Every run takes its bundle, router and
:class:`WorkloadCaches` from the process-local workload memo
(:func:`repro.scenarios.prebuilt.prebuilt_workload`), so runs over one
workload build its topology and router tables, plan each (planner, budget),
generate each source batch and run the failure-free quality baseline once
per process, not once per run.  All of it is pure, so results are the same
bytes as a cold build.
"""

from __future__ import annotations

import dataclasses
import json
import statistics
from typing import Any

from repro.core.plans import (
    IC_OBJECTIVE,
    OF_OBJECTIVE,
    PlanObjective,
    ReplicationPlan,
    budget_from_fraction,
)
from repro.engine.config import CostModel, EngineConfig, PassiveStrategy
from repro.engine.engine import StreamEngine
from repro.engine.recovery import RECOVERY_SCHEMES, consumes_failure_domains
from repro.engine.routing import Router
from repro.errors import ScenarioError
from repro.scenarios import catalog, prebuilt
from repro.scenarios.failures import FailureWave, as_waves, failure_domains
from repro.scenarios.registry import FAILURE_MODELS
from repro.scenarios.results import RecoveryOutcome, ScenarioResult
from repro.scenarios.spec import FailureSpec, Scenario, _jsonify
from repro.topology.operators import TaskId
from repro.workloads.bundles import QueryBundle

#: Engine-dict keys that configure the engine constructor, not EngineConfig.
_ENGINE_EXTRA_KEYS = ("source_replay_window_batches",)


class WorkloadCaches:
    """Cross-run memoization scoped to one workload.

    Runs over one workload repeat four pure computations: planning (same
    planner/budget on the same topology and rates), the OF/IC objective
    values (same topology/rates/task sets), source batch generation (pure
    by the :class:`~repro.engine.logic.SourceFunction` contract) and the
    failure-free run the output-quality axis scores against.  One
    :class:`WorkloadCaches` instance per distinct workload lives in the
    :mod:`repro.scenarios.prebuilt` memo next to its bundle and router, and
    every :class:`ScenarioRunner` uses it, so a sweep pays for each distinct
    (planner, budget), each distinct failure set and each quality baseline
    once instead of once per cell.  Everything stored is frozen or
    append-only, so sharing across cells (and worker threads) cannot change
    results.
    """

    __slots__ = ("plans", "objective_values", "source_memos", "sink_baselines")

    def __init__(self) -> None:
        #: (planner, params, objective, budget) -> ReplicationPlan
        self.plans: dict[tuple, ReplicationPlan] = {}
        #: (kind, objective, frozen task set) -> float
        self.objective_values: dict[tuple, float] = {}
        #: TaskId -> shared MemoizedSource (see StreamEngine.source_memos).
        self.source_memos: dict[TaskId, Any] = {}
        #: (duration, batch_interval) -> failure-free sink outputs by batch
        #: index (the accurate reference of the output-quality axis).
        self.sink_baselines: dict[tuple, dict[int, tuple]] = {}


class ScenarioRunner:
    """Resolves a :class:`Scenario` against the registries and executes it.

    With ``profile=True`` the result carries the engine-throughput profile
    (events/second, simulated-seconds-per-wall-second, peak physical output
    history) in :attr:`ScenarioResult.profile`.

    The bundle, router and :class:`WorkloadCaches` come from the
    process-local workload memo (:mod:`repro.scenarios.prebuilt`), looked
    up once per runner: the first runner over a workload builds them, every
    later one reuses them.  Results are identical to a cold build.
    """

    def __init__(self, scenario: Scenario, *, profile: bool = False):
        self.scenario = scenario
        self.profile = profile
        self._workload: "tuple[QueryBundle, Router, WorkloadCaches] | None" = None

    def _memo(self) -> "tuple[QueryBundle, Router, WorkloadCaches]":
        """The memoized ``(bundle, router, caches)`` of the scenario."""
        if self._workload is None:
            self._workload = prebuilt.prebuilt_workload(self.scenario)
        return self._workload

    # ------------------------------------------------------------------
    # Resolution steps (each usable on its own for inspection/tests)
    # ------------------------------------------------------------------
    def objective(self) -> PlanObjective:
        """The planning objective the scenario selected."""
        return OF_OBJECTIVE if self.scenario.objective == "OF" else IC_OBJECTIVE

    def bundle(self) -> QueryBundle:
        """The scenario's query bundle (memoized; see :func:`build_bundle`)."""
        return self._memo()[0]

    def resolve_budget(self, bundle: QueryBundle) -> int:
        """The absolute replication budget for ``bundle``'s topology."""
        if self.scenario.budget is not None:
            return self.scenario.budget
        if self.scenario.budget_fraction is not None:
            return budget_from_fraction(bundle.topology, self.scenario.budget_fraction)
        return 0

    def plan(self, bundle: QueryBundle) -> ReplicationPlan:
        """Run the scenario's planner on the bundle's topology and rates.

        Identical (planner, params, objective, budget) requests over one
        workload reuse the frozen plan — planners are deterministic, so the
        memo is invisible in results.
        """
        caches = self._memo()[2]
        # The factory object is part of the key (not just the name) so a
        # re-registered planner never serves plans built by its predecessor.
        key = (catalog.PLANNERS.get(self.scenario.planner),
               json.dumps(_jsonify(dict(self.scenario.planner_params)),
                          sort_keys=True),
               self.scenario.objective, self.resolve_budget(bundle))
        plan = caches.plans.get(key)
        if plan is None:
            caches.plans[key] = plan = self._compute_plan(bundle)
        return plan

    def _compute_plan(self, bundle: QueryBundle) -> ReplicationPlan:
        planner = catalog.make_planner(
            self.scenario.planner, self.objective(), **self.scenario.planner_params
        )
        return planner.plan(bundle.topology, bundle.rates, self.resolve_budget(bundle))

    def _objective_value(self, kind: str, bundle: QueryBundle,
                         tasks: frozenset) -> float:
        """Memoized OF/IC evaluation (``kind`` is ``"plan"`` or ``"failed"``)."""
        values = self._memo()[2].objective_values
        key = (kind, self.scenario.objective, tasks)
        value = values.get(key)
        if value is None:
            objective = self.objective()
            if kind == "plan":
                value = objective.plan_value(bundle.topology, bundle.rates, tasks)
            else:
                value = objective.metric(bundle.topology, bundle.rates, tasks)
            values[key] = value
        return value

    def engine_config(self, bundle: QueryBundle) -> EngineConfig:
        """The engine configuration: scenario overrides on bundle defaults."""
        overrides = dict(self.scenario.engine)
        for key in _ENGINE_EXTRA_KEYS:
            overrides.pop(key, None)
        cost_overrides = overrides.pop("costs", None)
        costs = bundle.costs
        if cost_overrides is not None:
            try:
                costs = CostModel(**{**dataclasses.asdict(bundle.costs),
                                     **dict(cost_overrides)})
            except TypeError as exc:
                raise ScenarioError(f"engine costs: {exc}") from None
        strategy = overrides.pop("passive_strategy", None)
        if strategy is not None:
            try:
                overrides["passive_strategy"] = PassiveStrategy(strategy)
            except ValueError:
                choices = ", ".join(repr(s.value) for s in PassiveStrategy)
                raise ScenarioError(
                    f"unknown passive_strategy {strategy!r}; one of {choices}"
                ) from None
        scheme = overrides.get("recovery_scheme")
        if self.scenario.recovery:
            if scheme is not None and scheme != self.scenario.recovery:
                raise ScenarioError(
                    f"scenario sets recovery={self.scenario.recovery!r} but "
                    f"engine overrides say recovery_scheme={scheme!r}; "
                    f"pick one spelling"
                )
            scheme = self.scenario.recovery
            overrides["recovery_scheme"] = scheme
        if scheme is not None and scheme not in RECOVERY_SCHEMES:
            known = ", ".join(repr(n) for n in RECOVERY_SCHEMES.names())
            raise ScenarioError(
                f"unknown recovery scheme {scheme!r}; registered schemes: "
                f"{known}"
            )
        params = {**dict(overrides.pop("recovery_params", None) or {}),
                  **self.scenario.recovery_params}
        if (scheme is not None and "placement" not in params
                and consumes_failure_domains(scheme)):
            # Put the scheme's replicas on the blast-radius map the failure
            # model will actually kill.  Without one it gets no map, and
            # degrades to plan placement — the only sound answer when no
            # failure-domain map exists.
            params = {**failure_domains(self.scenario.failures), **params}
        if params:
            overrides["recovery_params"] = params
        try:
            return EngineConfig(costs=costs, **overrides)
        except TypeError as exc:
            raise ScenarioError(f"engine config: {exc}") from None

    def failure_waves(self, spec: FailureSpec, bundle: QueryBundle,
                      plan: ReplicationPlan) -> "tuple[FailureWave, ...]":
        """Resolve one failure spec into its (possibly staggered) schedule."""
        model = FAILURE_MODELS.get(spec.model)
        params = dict(spec.params)
        seed = params.pop("seed", self.scenario.seed)
        try:
            victims = model(bundle.topology, plan.replicated,
                            seed=int(seed), **params)
        except TypeError as exc:
            raise ScenarioError(f"failure model {spec.model!r}: {exc}") from None
        return as_waves(victims)

    def victims_of(self, spec: FailureSpec, bundle: QueryBundle,
                   plan: ReplicationPlan) -> tuple[TaskId, ...]:
        """Resolve one failure spec into its flat victim task set."""
        return tuple(
            task
            for wave in self.failure_waves(spec, bundle, plan)
            for task in wave.tasks
        )

    # ------------------------------------------------------------------
    def run(self) -> ScenarioResult:
        """Execute the scenario once and collect the structured result."""
        scenario = self.scenario
        bundle = self.bundle()
        _, router, caches = self._memo()
        plan = self.plan(bundle)
        config = self.engine_config(bundle)

        replay_window = scenario.engine.get("source_replay_window_batches")
        engine_kwargs: dict[str, Any] = {}
        if replay_window is not None:
            engine_kwargs["source_replay_window_batches"] = int(replay_window)
        engine = StreamEngine(bundle.topology, bundle.make_logic(), config,
                              plan=plan, router=router,
                              source_memos=caches.source_memos,
                              **engine_kwargs)

        all_victims: list[TaskId] = []
        seen: set[TaskId] = set()
        for spec in scenario.failures:
            if spec.at > scenario.duration:
                raise ScenarioError(
                    f"failure at t={spec.at:g}s is after the run ends "
                    f"(duration {scenario.duration:g}s)"
                )
            for wave in self.failure_waves(spec, bundle, plan):
                at = spec.at + wave.offset
                if at > scenario.duration:
                    raise ScenarioError(
                        f"failure model {spec.model!r} schedules a kill at "
                        f"t={at:g}s, after the run ends "
                        f"(duration {scenario.duration:g}s)"
                    )
                if wave.tasks:
                    engine.schedule_task_failure(
                        at, wave.tasks, detect_delay=wave.detect_delay
                    )
                if wave.restores:
                    engine.schedule_task_restore(at, wave.restores)
                for task in wave.tasks:
                    if task not in seen:
                        seen.add(task)
                        all_victims.append(task)

        engine.run(scenario.duration)

        worst_case = self._objective_value("plan", bundle, plan.replicated)
        failed_unreplicated = frozenset(all_victims) - plan.replicated
        failure_value = self._objective_value("failed", bundle,
                                              failed_unreplicated)

        metrics = engine.metrics
        return ScenarioResult(
            scenario=scenario,
            plan=plan,
            worst_case_fidelity=worst_case,
            failure_fidelity=failure_value,
            failed_tasks=tuple(all_victims),
            recoveries=tuple(
                RecoveryOutcome(r.task, r.mode.value, r.fail_time,
                                r.detect_time, r.recovered_time,
                                fidelity_bound=r.fidelity_bound,
                                fidelity_loss=r.fidelity_loss)
                for r in metrics.recoveries
            ),
            batches_processed=metrics.batches_processed,
            tuples_processed=metrics.tuples_processed,
            checkpoints_taken=metrics.checkpoints_taken,
            batches_forged=metrics.batches_forged,
            complete_sink_batches=len(metrics.sink_outputs(tentative=False)),
            tentative_sink_batches=len(metrics.sink_outputs(tentative=True)),
            output_quality=(self._measure_quality(bundle, config, engine)
                            if scenario.quality else None),
            profile=metrics.profile() if self.profile else None,
        )

    # ------------------------------------------------------------------
    def _measure_quality(self, bundle: QueryBundle, config: EngineConfig,
                         engine: "StreamEngine") -> float:
        """Mean sink accuracy of the failure run vs a failure-free baseline.

        The paper's Fig. 12/13 tentative-output-quality measure generalized
        to any recovery scheme: every sink batch inside the measurement
        window is compared against the same batch of a clean run with the
        bundle's accuracy function, and the scores are averaged.  Batches
        the failure run never produced score as fully lost.
        """
        scenario = self.scenario
        if bundle.sink_task is None or bundle.accuracy_fn is None:
            raise ScenarioError(
                f"workload {scenario.workload!r} does not support the "
                f"output-quality axis (no sink task / accuracy function)"
            )
        interval = config.batch_interval
        # Default window: from the first injected failure (the quality axis
        # measures degradation, so pre-failure batches would only dilute it)
        # to just before the end of the run (the last couple of batches may
        # still be in flight at shutdown).  Scenario.__post_init__ has
        # already checked that the configured bounds are numbers.
        measure_from = float(scenario.quality.get(
            "measure_from",
            min((spec.at for spec in scenario.failures), default=0.0),
        ))
        measure_until = float(scenario.quality.get(
            "measure_until", scenario.duration - 2.0 * interval,
        ))
        baseline = self._sink_baseline(bundle, config)
        produced = {
            record.index: record.tuples
            for record in engine.metrics.sink_records
            if record.task == bundle.sink_task
        }
        measured = []
        for index, accurate in sorted(baseline.items()):
            batch_time = (index + 1) * interval
            if measure_from <= batch_time <= measure_until:
                measured.append(
                    bundle.accuracy_fn(produced.get(index, ()), accurate)
                )
        if not measured:
            raise ScenarioError(
                f"no sink batches fall inside the quality window "
                f"[{measure_from:g}, {measure_until:g}]"
            )
        return statistics.fmean(measured)

    def _sink_baseline(self, bundle: QueryBundle, config: EngineConfig
                       ) -> dict[int, tuple]:
        """Accurate sink outputs of a failure-free run, memoized per workload.

        The clean engine shares the workload's router and source memos, so
        its source batches are the ones the failure runs already generated.
        """
        _, router, caches = self._memo()
        key = (self.scenario.duration, config.batch_interval)
        baseline = caches.sink_baselines.get(key)
        if baseline is None:
            clean = EngineConfig(batch_interval=config.batch_interval,
                                 checkpoint_interval=None, costs=bundle.costs)
            reference = StreamEngine(bundle.topology, bundle.make_logic(),
                                     clean, router=router,
                                     source_memos=caches.source_memos)
            reference.run(self.scenario.duration)
            baseline = caches.sink_baselines[key] = {
                record.index: record.tuples
                for record in reference.metrics.sink_records
                if record.task == bundle.sink_task
            }
        return baseline


def build_bundle(scenario: Scenario) -> QueryBundle:
    """Build the scenario's query bundle cold from the workload registry.

    The memo in :mod:`repro.scenarios.prebuilt` calls this once per
    distinct workload; runners use :meth:`ScenarioRunner.bundle`.
    """
    params = dict(scenario.workload_params)
    if scenario.topology is not None:
        if scenario.workload != "custom":
            raise ScenarioError(
                "a scenario with an explicit topology must use "
                f"workload='custom', got {scenario.workload!r}"
            )
        params.setdefault("recipe", scenario.topology)
    return catalog.make_bundle(scenario.workload, **params)


def run_scenario(scenario: Scenario, *, profile: bool = False) -> ScenarioResult:
    """Execute ``scenario`` end-to-end (the one-call façade).

    >>> from repro.scenarios import Scenario, FailureSpec, run_scenario
    >>> result = run_scenario(Scenario(
    ...     workload="synthetic",
    ...     workload_params={"rate_per_source": 200.0, "window_seconds": 5.0,
    ...                      "tuple_scale": 16.0},
    ...     planner="greedy", budget_fraction=0.5,
    ...     failures=(FailureSpec("single-task", at=10.0,
    ...                           params={"operator": "O2"}),),
    ...     duration=20.0,
    ... ))
    >>> 0.0 <= result.worst_case_fidelity <= 1.0 and result.all_recovered
    True
    """
    return ScenarioRunner(scenario, profile=profile).run()
