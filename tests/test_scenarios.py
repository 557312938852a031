"""Tests for the declarative scenario API: spec, registries, runner, grid."""

import functools
import json

import pytest

from repro.core.plans import ReplicationPlan
from repro.engine.config import EngineConfig
from repro.engine.engine import StreamEngine
from repro.engine.logic import LogicFactory
from repro.errors import ScenarioError
from repro.queries.synthetic import WindowedSelectivityOperator
from repro.scenarios import (
    FAILURE_MODELS,
    PLANNERS,
    WORKLOADS,
    EdgeDef,
    FailureSpec,
    OperatorDef,
    Scenario,
    ScenarioRunner,
    TopologyRecipe,
    expand_grid,
    generic_bundle,
    run_grid,
    run_scenario,
    run_scenarios,
)
from repro.topology import TaskId, uniform_source_rates
from repro.workloads.sources import UniformRateSource
from tests.golden.make_codec_golden import PATH as CODEC_GOLDEN_PATH
from tests.golden.make_codec_golden import codec_golden


def tiny_recipe() -> TopologyRecipe:
    """S(2) -> A(2) -> B(1), cheap enough for many engine runs per test."""
    return TopologyRecipe(
        operators=(
            OperatorDef("S", 2, kind="source"),
            OperatorDef("A", 2, selectivity=0.5),
            OperatorDef("B", 1, selectivity=0.5),
        ),
        edges=(
            EdgeDef("S", "A", "one-to-one"),
            EdgeDef("A", "B", "merge"),
        ),
    )


def tiny_scenario(**overrides) -> Scenario:
    defaults = dict(
        name="tiny",
        workload="custom",
        topology=tiny_recipe(),
        workload_params={"source_rate": 20.0, "window_seconds": 5.0},
        planner="greedy",
        budget=2,
        engine={"checkpoint_interval": 5.0},
        failures=(FailureSpec("single-task", at=8.0, params={"operator": "A"}),),
        duration=16.0,
    )
    defaults.update(overrides)
    return Scenario(**defaults)


class TestScenarioSerialization:
    def test_round_trip_identity(self):
        s = tiny_scenario()
        assert Scenario.from_dict(s.to_dict()) == s

    def test_round_trip_through_json_text(self):
        s = tiny_scenario()
        assert Scenario.from_json(json.dumps(s.to_dict())) == s
        assert Scenario.from_json(s.to_json()) == s

    def test_round_trip_defaults_only(self):
        s = Scenario()
        assert Scenario.from_dict(s.to_dict()) == s

    def test_round_trip_with_every_field(self):
        s = Scenario(
            name="full", workload="custom", topology=tiny_recipe(),
            workload_params={"source_rate": 10.0},
            planner="fixed", planner_params={"tasks": [["A", 0]]},
            objective="IC", budget=3,
            engine={"checkpoint_interval": None, "tentative_outputs": True,
                    "costs": {"restart_delay": 1.0}},
            failures=(FailureSpec("correlated", at=5.0),
                      FailureSpec("random-k", at=9.0, params={"k": 1, "seed": 3})),
            duration=12.0, seed=42,
        )
        assert Scenario.from_dict(s.to_dict()) == s

    def test_params_normalised_to_json_types(self):
        # Tuples in params become lists so equality survives JSON transport.
        s = Scenario(workload_params={"xs": (1, 2)})
        assert s.workload_params == {"xs": [1, 2]}
        assert Scenario.from_json(s.to_json()) == s

    def test_unknown_scenario_field_rejected(self):
        with pytest.raises(ScenarioError, match="unknown scenario field"):
            Scenario.from_dict({"planner": "dp", "bugdet": 3})

    def test_unknown_failure_field_rejected(self):
        with pytest.raises(ScenarioError, match="unknown failure field"):
            FailureSpec.from_dict({"model": "correlated", "when": 4.0})

    def test_budget_and_fraction_are_exclusive(self):
        with pytest.raises(ScenarioError, match="not both"):
            Scenario(budget=2, budget_fraction=0.5)

    def test_objective_validated(self):
        with pytest.raises(ScenarioError, match="objective"):
            Scenario(objective="accuracy")

    def test_non_serializable_param_rejected(self):
        with pytest.raises(ScenarioError, match="JSON-serializable"):
            Scenario(workload_params={"fn": object()})

    def test_explicit_topology_defaults_to_custom_workload(self):
        s = Scenario(topology=tiny_recipe())
        assert s.workload == "custom"

    def test_default_workload_is_synthetic_without_topology(self):
        assert Scenario().workload == "synthetic"

    def test_named_workload_with_topology_fails_loudly(self):
        # An explicitly named non-custom workload is never silently
        # rewritten; the contradiction is rejected at run time.
        s = Scenario(workload="synthetic", topology=tiny_recipe(),
                     planner="none", duration=5.0)
        assert s.workload == "synthetic"
        with pytest.raises(ScenarioError, match="workload='custom'"):
            run_scenario(s)

    def test_recipe_round_trip_and_build(self):
        recipe = tiny_recipe()
        rebuilt = TopologyRecipe.from_dict(recipe.to_dict())
        assert rebuilt == recipe
        topo = rebuilt.build()
        assert topo.num_tasks == 5
        assert TopologyRecipe.from_topology(topo).build().num_tasks == 5

    def test_recipe_rejects_bad_kind_and_pattern(self):
        with pytest.raises(ScenarioError, match="unknown kind"):
            TopologyRecipe((OperatorDef("S", 1, kind="sauce"),), ()).build()
        bad_edge = TopologyRecipe(
            (OperatorDef("S", 1, kind="source"), OperatorDef("A", 1)),
            (EdgeDef("S", "A", "diagonal"),),
        )
        with pytest.raises(ScenarioError, match="unknown pattern"):
            bad_edge.build()


class TestRegistries:
    def test_unknown_planner_lists_known_names(self):
        with pytest.raises(ScenarioError) as excinfo:
            run_scenario(tiny_scenario(planner="simulated-annealing"))
        message = str(excinfo.value)
        assert "unknown planner 'simulated-annealing'" in message
        assert "'structure-aware'" in message and "'dp'" in message

    def test_unknown_workload_lists_known_names(self):
        with pytest.raises(ScenarioError) as excinfo:
            run_scenario(Scenario(workload="wordcup"))
        message = str(excinfo.value)
        assert "unknown workload 'wordcup'" in message
        assert "'worldcup'" in message

    def test_unknown_failure_model_lists_known_names(self):
        scenario = tiny_scenario(failures=(FailureSpec("asteroid", at=1.0),))
        with pytest.raises(ScenarioError) as excinfo:
            run_scenario(scenario)
        message = str(excinfo.value)
        assert "unknown failure model 'asteroid'" in message
        assert "'correlated'" in message

    def test_required_names_are_registered(self):
        assert {"dp", "greedy", "structured", "full",
                "structure-aware", "none"} <= set(PLANNERS.names())
        assert {"worldcup", "traffic", "synthetic", "zipf"} <= set(WORKLOADS.names())
        assert {"single-task", "correlated", "random-k"} <= set(FAILURE_MODELS.names())

    def test_bad_workload_params_raise_scenario_error(self):
        # Every registered workload, including zipf/custom, reports parameter
        # mismatches as ScenarioError (which the CLI renders as a clean error).
        for workload in ("synthetic", "zipf"):
            with pytest.raises(ScenarioError, match=f"workload '{workload}'"):
                run_scenario(Scenario(workload=workload,
                                      workload_params={"warp_factor": 9}))

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ScenarioError, match="already registered"):
            PLANNERS.register("greedy")(object)

    def test_external_workload_plugs_in(self):
        @WORKLOADS.register("test-tiny")
        def _tiny_bundle(source_rate: float = 20.0):
            topo = tiny_recipe().build()
            return generic_bundle("test-tiny", topo,
                                  uniform_source_rates(topo, source_rate),
                                  window_seconds=5.0, tuple_scale=1.0)

        try:
            result = run_scenario(Scenario(workload="test-tiny",
                                           planner="none", duration=6.0))
            assert result.batches_processed > 0
        finally:
            WORKLOADS.unregister("test-tiny")
        assert "test-tiny" not in WORKLOADS


class TestFailureModels:
    TOPO = None

    def topology(self):
        if TestFailureModels.TOPO is None:
            TestFailureModels.TOPO = tiny_recipe().build()
        return TestFailureModels.TOPO

    def test_single_task(self):
        model = FAILURE_MODELS.get("single-task")
        assert model(self.topology(), frozenset(), seed=0,
                     operator="A", index=1) == (TaskId("A", 1),)

    def test_correlated_defaults_to_non_sources(self):
        model = FAILURE_MODELS.get("correlated")
        victims = model(self.topology(), frozenset(), seed=0)
        assert set(victims) == {TaskId("A", 0), TaskId("A", 1), TaskId("B", 0)}

    def test_correlated_operator_subset(self):
        model = FAILURE_MODELS.get("correlated")
        victims = model(self.topology(), frozenset(), seed=0, operators=["A"])
        assert set(victims) == {TaskId("A", 0), TaskId("A", 1)}

    def test_random_k_deterministic_in_seed(self):
        model = FAILURE_MODELS.get("random-k")
        first = model(self.topology(), frozenset(), seed=7, k=2)
        second = model(self.topology(), frozenset(), seed=7, k=2)
        assert first == second and len(first) == 2
        all_draws = {model(self.topology(), frozenset(), seed=s, k=2)
                     for s in range(8)}
        assert len(all_draws) > 1  # the seed actually matters

    def test_random_k_bounds_checked(self):
        model = FAILURE_MODELS.get("random-k")
        with pytest.raises(ScenarioError, match="random-k"):
            model(self.topology(), frozenset(), seed=0, k=99)

    def test_unreplicated_excludes_plan(self):
        model = FAILURE_MODELS.get("unreplicated")
        plan = frozenset({TaskId("A", 0), TaskId("B", 0)})
        assert set(model(self.topology(), plan, seed=0)) == {TaskId("A", 1)}

    def test_unreplicated_with_sources_is_everything_outside_the_plan(self):
        model = FAILURE_MODELS.get("unreplicated")
        topology = self.topology()
        plan = frozenset({TaskId("A", 0), TaskId("B", 0)})
        assert model(topology, plan, seed=0, include_sources=True) == tuple(
            t for t in topology.tasks() if t not in plan)

    @pytest.mark.parametrize("objective", ["OF", "IC"])
    @pytest.mark.parametrize("planner", ["greedy", "structure-aware", "dp"])
    def test_unreplicated_with_sources_is_the_predicted_worst_case(
            self, planner, objective):
        # The Fig. 12/13 outage: what the plan value assumes is what dies.
        result = run_scenario(Scenario(
            workload="worldcup",
            workload_params={"window_seconds": 5.0, "pages": 100,
                             "rate_per_source": 200.0},
            planner=planner, objective=objective, budget_fraction=0.4,
            engine={"checkpoint_interval": None, "recovery_enabled": False},
            failures=(FailureSpec("unreplicated", at=2.0,
                                  params={"include_sources": True}),),
            duration=4.0,
        ))
        assert set(result.failed_tasks).isdisjoint(result.plan.replicated)
        assert len(result.failed_tasks) + result.plan.usage == 21
        assert result.failure_fidelity == result.worst_case_fidelity

    def test_explicit_tasks_accepts_both_spellings(self):
        model = FAILURE_MODELS.get("tasks")
        victims = model(self.topology(), frozenset(), seed=0,
                        tasks=[["A", 0], "B[0]"])
        assert set(victims) == {TaskId("A", 0), TaskId("B", 0)}

    def test_explicit_tasks_rejects_unknown_task(self):
        model = FAILURE_MODELS.get("tasks")
        with pytest.raises(ScenarioError, match="unknown task"):
            model(self.topology(), frozenset(), seed=0, tasks=[["A", 9]])

    def test_explicit_tasks_rejects_non_integer_index(self):
        model = FAILURE_MODELS.get("tasks")
        for ref in (["A", "zero"], "A[zero]"):
            with pytest.raises(ScenarioError, match="malformed task reference"):
                model(self.topology(), frozenset(), seed=0, tasks=[ref])


class TestRunner:
    def test_runs_end_to_end_with_provenance(self):
        result = run_scenario(tiny_scenario())
        assert result.plan.planner == "Greedy"
        assert result.plan.budget == 2
        assert 0.0 <= result.worst_case_fidelity <= 1.0
        assert 0.0 <= result.failure_fidelity <= 1.0
        assert result.failed_tasks == (TaskId("A", 0),)
        assert result.all_recovered
        assert result.mean_recovery_latency is not None
        assert result.max_recovery_latency >= result.mean_recovery_latency

    def test_budget_fraction_resolves_against_topology(self):
        runner = ScenarioRunner(tiny_scenario(budget=None, budget_fraction=0.4))
        assert runner.resolve_budget(runner.bundle()) == 2  # 0.4 * 5 tasks

    def test_failure_after_duration_rejected(self):
        scenario = tiny_scenario(
            failures=(FailureSpec("correlated", at=100.0),), duration=16.0
        )
        with pytest.raises(ScenarioError, match="after the run ends"):
            run_scenario(scenario)

    def test_fixed_planner_replays_task_list(self):
        result = run_scenario(tiny_scenario(
            planner="fixed", planner_params={"tasks": [["A", 0], ["B", 0]]},
            budget=None,
        ))
        assert result.plan.replicated == frozenset({TaskId("A", 0), TaskId("B", 0)})

    def test_engine_overrides_reach_the_config(self):
        runner = ScenarioRunner(tiny_scenario(
            engine={"checkpoint_interval": None, "tentative_outputs": True,
                    "passive_strategy": "source-replay",
                    "costs": {"restart_delay": 0.5}},
        ))
        config = runner.engine_config(runner.bundle())
        assert config.checkpoint_interval is None
        assert config.tentative_outputs is True
        assert config.passive_strategy.value == "source-replay"
        assert config.costs.restart_delay == 0.5

    def test_bad_engine_key_raises_scenario_error(self):
        runner = ScenarioRunner(tiny_scenario(engine={"checkpoint_every": 5.0}))
        with pytest.raises(ScenarioError, match="engine config"):
            runner.engine_config(runner.bundle())

    def test_result_to_dict_is_json_serializable(self):
        result = run_scenario(tiny_scenario())
        text = json.dumps(result.to_dict())
        data = json.loads(text)
        assert data["scenario"]["name"] == "tiny"
        assert data["plan"]["planner"] == "Greedy"
        assert data["all_recovered"] is True

    def test_render_mentions_plan_and_failures(self):
        text = run_scenario(tiny_scenario()).render()
        assert "ScenarioResult" in text
        assert "Greedy" in text
        assert "tasks killed" in text


class TestEnginePlanArgument:
    def make_engine(self, plan):
        topo = tiny_recipe().build()
        logic = LogicFactory()
        logic.register_source("S", UniformRateSource(10.0))
        for name in ("A", "B"):
            logic.register_operator(
                name, lambda: WindowedSelectivityOperator(5.0, 0.5)
            )
        return StreamEngine(topo, logic, EngineConfig(), plan=plan)

    def test_accepts_replication_plan_directly(self):
        plan = ReplicationPlan(frozenset({TaskId("A", 0)}), planner="SA", budget=1)
        engine = self.make_engine(plan)
        assert engine.plan is plan
        assert engine.replicated == plan.replicated
        assert engine.metrics.plan is plan  # provenance rides on the metrics

    def test_still_accepts_bare_task_iterable(self):
        engine = self.make_engine([TaskId("A", 0)])
        assert engine.replicated == frozenset({TaskId("A", 0)})
        assert engine.metrics.plan == ReplicationPlan(frozenset({TaskId("A", 0)}))


class TestGrid:
    AXES = {
        "planner": ["none", "greedy", "structure-aware"],
        "budget": [1, 2],
        "engine.checkpoint_interval": [4.0, 8.0],
    }

    def test_expansion_is_deterministic_and_complete(self):
        base = tiny_scenario()
        first = expand_grid(base, self.AXES)
        second = expand_grid(base, self.AXES)
        assert first == second
        assert len(first) == 12
        assert len({s.name for s in first}) == 12  # distinct labels

    def test_dotted_axis_reaches_engine_dict(self):
        base = tiny_scenario()
        grid = expand_grid(base, {"engine.checkpoint_interval": [2.0]})
        assert grid[0].engine["checkpoint_interval"] == 2.0
        # the rest of the engine dict is preserved (nothing else in base's)
        assert set(grid[0].engine) == set(base.engine)

    def test_plain_and_dotted_override_of_same_field_compose(self):
        # The plain dict is the new base; dotted keys apply on top of it.
        s = tiny_scenario().with_overrides(
            engine={"tentative_outputs": True},
            **{"engine.checkpoint_interval": 5.0},
        )
        assert s.engine == {"tentative_outputs": True,
                            "checkpoint_interval": 5.0}

    def test_unknown_axis_rejected(self):
        with pytest.raises(ScenarioError, match="invalid scenario override"):
            expand_grid(tiny_scenario(), {"bugdet": [1]})

    def test_empty_axis_rejected(self):
        with pytest.raises(ScenarioError, match="empty"):
            expand_grid(tiny_scenario(), {"budget": []})

    def test_grid_deterministic_across_backends(self):
        base = tiny_scenario(duration=12.0)
        serial = run_grid(base, self.AXES)
        parallel = run_grid(base, self.AXES, backend="processes")
        assert len(serial) == len(parallel) == 12
        assert [r.to_dict() for r in serial] == [r.to_dict() for r in parallel]

    def test_run_grid_without_axes_runs_base(self):
        results = run_grid(tiny_scenario())
        assert len(results) == 1

    def test_run_scenarios_preserves_order(self):
        scenarios = [tiny_scenario(name=f"s{i}", budget=i) for i in (0, 1, 2)]
        results = run_scenarios(scenarios)
        assert [r.scenario.name for r in results] == ["s0", "s1", "s2"]


CODEC_GOLDEN = json.loads(CODEC_GOLDEN_PATH.read_text())


@functools.lru_cache(maxsize=None)
def _codec_golden_now() -> dict:
    return codec_golden()


class TestCodecGolden:
    """Record bytes, decode-error texts and the classes malformed values raise.

    Regenerate with ``tests/golden/make_codec_golden.py`` only when a
    codec's output or error contract changes on purpose.
    """

    @pytest.mark.parametrize("section,key", sorted(
        (section, key) for section in CODEC_GOLDEN
        for key in CODEC_GOLDEN[section]))
    def test_entry(self, section, key):
        assert _codec_golden_now()[section][key] == CODEC_GOLDEN[section][key]

    def test_golden_has_no_stale_entries(self):
        for section in CODEC_GOLDEN:
            assert set(_codec_golden_now()[section]) == set(CODEC_GOLDEN[section])
