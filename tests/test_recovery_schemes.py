"""The pluggable recovery-scheme API: parity, registry, new schemes.

The golden tests are the contract of the extraction: the refactored
``ppa`` / ``checkpoint-replay`` / ``source-replay`` schemes must reproduce
the *pre-refactor* engine's MetricsCollector output byte-for-byte
(``tests/golden/recovery_parity.json`` was generated before the recovery
protocols left ``StreamEngine``; see ``tests/golden/make_recovery_parity.py``).
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.engine import (
    RECOVERY_SCHEMES,
    EngineConfig,
    RecoveryMode,
    RecoveryScheme,
    StreamEngine,
    TaskStatus,
    create_scheme,
)
from repro.engine.recovery.policies import (
    PlanPlacement,
    SkipWithinBound,
    SourceReplayCatchUp,
    YoungDalyCadence,
)
from repro.errors import ScenarioError, SimulationError
from repro.scenarios import (
    FailureSpec,
    FailureWave,
    Scenario,
    ScenarioRunner,
    as_waves,
    run_scenario,
    run_scenarios,
    scenario_digest,
)
from repro.topology import TaskId

from tests.engine_helpers import (
    build_engine,
    metrics_fingerprint,
    run_scenario_engine,
    small_logic,
    small_topology,
)
from tests.golden.make_scheme_matrix import cell_record, matrix_cells

GOLDEN = json.loads(
    (Path(__file__).parent / "golden" / "recovery_parity.json").read_text()
)

_RECIPE = {
    "operators": [
        {"name": "S", "parallelism": 2, "kind": "source"},
        {"name": "A", "parallelism": 2, "selectivity": 0.5},
        {"name": "B", "parallelism": 1, "selectivity": 0.5},
    ],
    "edges": [
        {"upstream": "S", "downstream": "A", "pattern": "one-to-one"},
        {"upstream": "A", "downstream": "B", "pattern": "merge"},
    ],
}


def _tiny_scenario(**overrides) -> Scenario:
    base = {
        "workload": "custom",
        "topology": _RECIPE,
        "workload_params": {"source_rate": 40.0, "window_seconds": 6.0},
        "planner": "none",
        "engine": {"checkpoint_interval": 4.0, "heartbeat_interval": 2.0},
        "failures": [{"model": "correlated", "at": 12.0}],
        "duration": 24.0,
    }
    base.update(overrides)
    return Scenario.from_dict(base)


class TestGoldenParity:
    """The refactored built-ins are byte-identical to the monolithic engine."""

    @pytest.mark.parametrize("key", sorted(GOLDEN))
    def test_default_scheme_matches_pre_refactor_metrics(self, key):
        entry = GOLDEN[key]
        scenario = Scenario.from_dict(entry["scenario"])
        engine = run_scenario_engine(scenario)
        assert metrics_fingerprint(engine.metrics) == entry["fingerprint"]

    @pytest.mark.parametrize("key", sorted(GOLDEN))
    def test_explicit_scheme_matches_pre_refactor_metrics(self, key):
        entry = GOLDEN[key]
        scenario = Scenario.from_dict(entry["scenario"]).with_overrides(
            recovery=entry["scheme"]
        )
        engine = run_scenario_engine(scenario)
        assert engine.scheme.name == entry["scheme"]
        assert metrics_fingerprint(engine.metrics) == entry["fingerprint"]

    @pytest.mark.parametrize("key", sorted(GOLDEN))
    def test_default_scenario_digest_unchanged(self, key):
        """Cache compatibility: scheme-less scenarios keep their digest."""
        entry = GOLDEN[key]
        scenario = Scenario.from_dict(entry["scenario"])
        assert scenario_digest(scenario) == entry["digest"]

    def test_explicit_scheme_changes_digest(self):
        s = _tiny_scenario()
        assert scenario_digest(s) != scenario_digest(
            s.with_overrides(recovery="active-standby")
        )


PPA_SOURCE_REPLAY = json.loads(
    (Path(__file__).parent / "golden" / "ppa_source_replay.json").read_text()
)


class TestPpaWithSourceReplay:
    """PPA's replicas with a Storm-style passive path, pinned by bytes.

    ``ppa_source_replay.json`` was recorded once, from ``ppa`` runs with a
    non-empty plan and the engine-wide source-replay passive path that the
    composed triple below replaced.  It is never regenerated: it is the
    behaviour that combination must keep.
    """

    @pytest.fixture
    def ppa_source_replay(self):
        @RECOVERY_SCHEMES.register("ppa-source-replay")
        class PpaSourceReplay(RecoveryScheme):
            name = "ppa-source-replay"
            placement = PlanPlacement
            catch_up = SourceReplayCatchUp

        yield "ppa-source-replay"
        RECOVERY_SCHEMES.unregister("ppa-source-replay")

    @pytest.mark.parametrize("key", sorted(PPA_SOURCE_REPLAY))
    def test_composed_triple_matches_pinned_metrics(self, key,
                                                    ppa_source_replay):
        entry = PPA_SOURCE_REPLAY[key]
        scenario = Scenario.from_dict(entry["scenario"]).with_overrides(
            recovery=ppa_source_replay)
        engine = run_scenario_engine(scenario)
        assert engine.replicated == engine.plan.replicated != frozenset()
        modes = {r.mode for r in engine.metrics.recoveries}
        assert modes == {RecoveryMode.ACTIVE, RecoveryMode.SOURCE_REPLAY}
        assert metrics_fingerprint(engine.metrics) == entry["fingerprint"]


MATRIX = json.loads(
    (Path(__file__).parent / "golden" / "scheme_matrix.json").read_text()
)
_MATRIX_CELLS = matrix_cells()


class TestSchemeMatrix:
    """Every registered scheme x failure case x tentative on/off, by bytes.

    The cells come from ``RECOVERY_SCHEMES.names()`` at collection time: a
    newly registered built-in without a golden row fails here until
    ``tests/golden/make_scheme_matrix.py`` is re-run on purpose.
    """

    @pytest.mark.parametrize("key", list(_MATRIX_CELLS))
    def test_cell_matches_golden(self, key):
        assert key in MATRIX, f"no golden row for {key}; see the generator"
        assert cell_record(_MATRIX_CELLS[key]) == MATRIX[key]

    def test_golden_has_no_stale_rows(self):
        assert set(MATRIX) == set(_MATRIX_CELLS)


class TestRegistry:
    def test_builtin_schemes_registered(self):
        for name in ("ppa", "checkpoint-replay", "source-replay",
                     "active-standby"):
            assert name in RECOVERY_SCHEMES
            assert create_scheme(name).name == name

    def test_unknown_scheme_raises_listing_known(self):
        with pytest.raises(SimulationError, match="active-standby"):
            create_scheme("nope")

    def test_unknown_scheme_in_engine_config(self):
        with pytest.raises(SimulationError, match="recovery scheme"):
            build_engine(EngineConfig(recovery_scheme="nope"))

    def test_unknown_scheme_in_scenario(self):
        with pytest.raises(ScenarioError, match="registered schemes"):
            run_scenario(_tiny_scenario(recovery="nope"))

    def test_conflicting_scenario_and_engine_spelling(self):
        scenario = _tiny_scenario(
            recovery="ppa",
            engine={"recovery_scheme": "source-replay"},
        )
        with pytest.raises(ScenarioError, match="pick one spelling"):
            ScenarioRunner(scenario).run()

    def test_engine_dict_spelling_works_alone(self):
        scenario = _tiny_scenario(engine={
            "checkpoint_interval": 4.0, "heartbeat_interval": 2.0,
            "recovery_scheme": "active-standby",
        })
        result = run_scenario(scenario)
        assert {r.mode for r in result.recoveries} == {"active"}

    def test_custom_scheme_plugs_in(self):
        @RECOVERY_SCHEMES.register("sinks-active")
        class SinksActive(RecoveryScheme):
            name = "sinks-active"

            def replicated_tasks(self, topology, planned):
                return frozenset(topology.sink_tasks())

        try:
            engine = build_engine(EngineConfig(
                checkpoint_interval=4.0, heartbeat_interval=2.0,
                recovery_scheme="sinks-active"))
            engine.schedule_task_failure(12.0, [TaskId("L1", 0),
                                                TaskId("L0", 0)])
            engine.run(20.0)
            modes = {r.task: r.mode for r in engine.metrics.recoveries}
            assert modes[TaskId("L1", 0)] is RecoveryMode.ACTIVE
            assert modes[TaskId("L0", 0)] is RecoveryMode.CHECKPOINT
        finally:
            RECOVERY_SCHEMES.unregister("sinks-active")

    def test_unregistered_triple_composes(self):
        """Plan placement + skip-within-bound + Young/Daly cadence: a point
        of the product space no built-in occupies."""
        @RECOVERY_SCHEMES.register("ppa-approximate")
        class PpaApproximate(RecoveryScheme):
            name = "ppa-approximate"
            placement = PlanPlacement
            catch_up = SkipWithinBound
            cadence = YoungDalyCadence

        try:
            scenario = _MATRIX_CELLS["ppa/correlated/tentative"] \
                .with_overrides(recovery="ppa-approximate",
                                recovery_params={"fidelity_bound": 0.6})
            engine = run_scenario_engine(scenario)
        finally:
            RECOVERY_SCHEMES.unregister("ppa-approximate")
        assert isinstance(engine.scheme.cadence, YoungDalyCadence)
        assert len(engine.scheme.cadence.timings) > 0
        planned = engine.plan.replicated
        records = engine.metrics.recoveries
        assert all(r.recovered_time is not None for r in records)
        passive = [r for r in records if r.task not in planned]
        assert 0 < len(passive) < len(records)
        assert {r.mode for r in records if r.task in planned} \
            == {RecoveryMode.ACTIVE}
        assert RecoveryMode.APPROXIMATE in {r.mode for r in passive}
        for record in passive:
            assert record.fidelity_bound == 0.6
            assert 0.0 <= record.fidelity_loss <= record.fidelity_bound


class TestActiveStandby:
    CONFIG = EngineConfig(checkpoint_interval=4.0, heartbeat_interval=2.0,
                          recovery_scheme="active-standby")

    def test_every_task_is_replicated_regardless_of_plan(self):
        engine = build_engine(self.CONFIG)  # empty plan
        assert engine.replicated == frozenset(engine.topology.tasks())
        assert all(rt.replicated for rt in engine.runtimes.values())

    def test_all_recoveries_are_takeovers(self):
        engine = build_engine(self.CONFIG)
        engine.schedule_task_failure(
            12.0, [TaskId("S", 0), TaskId("L0", 1), TaskId("L1", 0)])
        engine.run(20.0)
        assert engine.all_recovered()
        assert {r.mode for r in engine.metrics.recoveries} == {
            RecoveryMode.ACTIVE}
        assert all(rt.status is TaskStatus.RUNNING
                   for rt in engine.runtimes.values())

    def test_output_equivalence_with_failure_free_run(self):
        from tests.engine_helpers import sink_outputs

        baseline = build_engine(self.CONFIG)
        baseline.run(20.0)
        failed = build_engine(self.CONFIG)
        failed.schedule_task_failure(
            12.0, [TaskId("S", 0), TaskId("L0", 1), TaskId("L1", 0)])
        failed.run(20.0)
        assert sink_outputs(failed) == sink_outputs(baseline)

    def test_upper_bound_beats_passive_recovery(self):
        passive = run_scenario(_tiny_scenario(recovery="checkpoint-replay"))
        active = run_scenario(_tiny_scenario(recovery="active-standby"))
        assert active.max_recovery_latency < passive.max_recovery_latency


class TestSchemeGridSweep:
    """The CI smoke matrix: every registered scheme × two failure models."""

    def test_all_schemes_times_two_failure_models(self):
        scenarios = [
            _tiny_scenario(
                name=f"{scheme}/{model}", recovery=scheme,
                failures=[{"model": model, "at": 10.0,
                           "params": params}],
            )
            for scheme in RECOVERY_SCHEMES.names()
            for model, params in (
                ("correlated", {}),
                ("rolling-restart", {"stagger": 2.0}),
            )
        ]
        results = run_scenarios(scenarios, backend="serial")
        assert len(results) == 2 * len(RECOVERY_SCHEMES)
        for result in results:
            assert result.all_recovered, result.scenario.name
            assert result.recoveries, result.scenario.name


class TestScenarioRecoveryField:
    def test_round_trip_and_default_omission(self):
        s = _tiny_scenario()
        assert "recovery" not in s.to_dict()
        assert Scenario.from_dict(s.to_dict()) == s
        t = s.with_overrides(recovery="source-replay")
        assert t.to_dict()["recovery"] == "source-replay"
        assert Scenario.from_dict(t.to_dict()) == t

    def test_non_string_recovery_rejected(self):
        with pytest.raises(ScenarioError, match="recovery"):
            Scenario(recovery=3)  # type: ignore[arg-type]

    def test_grid_axis_over_recovery(self):
        from repro.scenarios import expand_grid

        grid = expand_grid(_tiny_scenario(), {
            "recovery": ["ppa", "active-standby"]})
        assert [s.recovery for s in grid] == ["ppa", "active-standby"]
        assert len({scenario_digest(s) for s in grid}) == 2


class TestRollingRestart:
    def test_staggered_fail_times(self):
        scenario = _tiny_scenario(failures=[{
            "model": "rolling-restart", "at": 6.0,
            "params": {"stagger": 4.0}}])
        result = run_scenario(scenario)
        observed = {str(r.task): r.fail_time for r in result.recoveries}
        assert observed == {"A[0]": 6.0, "A[1]": 10.0, "B[0]": 14.0}
        assert result.all_recovered

    def test_explicit_task_order_preserved(self):
        scenario = _tiny_scenario(failures=[{
            "model": "rolling-restart", "at": 5.0,
            "params": {"stagger": 3.0, "tasks": [["B", 0], ["A", 1]]}}])
        result = run_scenario(scenario)
        observed = {str(r.task): r.fail_time for r in result.recoveries}
        assert observed == {"B[0]": 5.0, "A[1]": 8.0}

    def test_schedule_past_duration_rejected(self):
        scenario = _tiny_scenario(failures=[{
            "model": "rolling-restart", "at": 20.0,
            "params": {"stagger": 10.0}}])
        with pytest.raises(ScenarioError, match="after the run ends"):
            run_scenario(scenario)

    def test_waves_normalisation(self):
        waves = as_waves([TaskId("A", 0), TaskId("A", 1)])
        assert waves == (FailureWave(0.0, (TaskId("A", 0), TaskId("A", 1))),)
        staggered = as_waves([FailureWave(5.0, (TaskId("A", 1),)),
                              FailureWave(0.0, (TaskId("A", 0),))])
        assert [w.offset for w in staggered] == [0.0, 5.0]
        with pytest.raises(ScenarioError, match="mixture"):
            as_waves([FailureWave(0.0, (TaskId("A", 0),)), TaskId("A", 1)])
        with pytest.raises(ScenarioError, match="offset"):
            FailureWave(-1.0, (TaskId("A", 0),))

    def test_model_validation(self):
        runner = ScenarioRunner(_tiny_scenario(failures=[{
            "model": "rolling-restart", "at": 1.0,
            "params": {"stagger": -2.0}}]))
        bundle = runner.bundle()
        plan = runner.plan(bundle)
        with pytest.raises(ScenarioError, match="stagger"):
            runner.failure_waves(runner.scenario.failures[0], bundle, plan)


class TestEngineSchemeSelection:
    def test_default_config_uses_ppa(self):
        engine = StreamEngine(small_topology(), small_logic())
        assert engine.scheme.name == "ppa"
        assert engine.replicated == frozenset()

    def test_ppa_replicates_exactly_the_plan(self):
        engine = StreamEngine(small_topology(), small_logic(),
                              plan=[TaskId("L1", 0)])
        assert engine.replicated == frozenset({TaskId("L1", 0)})

    def test_pure_passive_schemes_ignore_the_plan(self):
        for name in ("checkpoint-replay", "source-replay"):
            engine = StreamEngine(
                small_topology(), small_logic(),
                EngineConfig(recovery_scheme=name),
                plan=[TaskId("L1", 0)])
            assert engine.replicated == frozenset()

    def test_empty_scheme_name_rejected(self):
        with pytest.raises(SimulationError, match="recovery_scheme"):
            EngineConfig(recovery_scheme="")
