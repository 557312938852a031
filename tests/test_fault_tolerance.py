"""Smarter fault tolerance: approximate recovery, k-safe placement,
adaptive checkpoints, flapping/detection-jitter failures, quality axis.

Covers the invariants the new schemes promise:

* ``approximate-ft`` always reports ``fidelity_loss <= fidelity_bound`` and
  degrades to exact checkpoint-replay when the bound is exceeded;
* ``k-safe`` never co-locates a task and its standby replica inside one
  rack-correlated blast radius (randomized property over random
  topologies and placements);
* ``adaptive-checkpoint`` retunes the interval from observed failures and
  measured snapshot costs (Young/Daly);
* the ``flapping`` and ``detection-jitter`` failure models compose with
  the wave machinery and the engine's detection path;
* the new optional ``Scenario``/``RecoveryOutcome``/``ScenarioResult``
  fields stay invisible (digest- and byte-compatible) until used.
"""

from __future__ import annotations

import math
import random

import pytest

from repro.engine import EngineConfig, StreamEngine, create_scheme
from repro.engine.recovery.policies import (
    FixedCadence,
    SkipWithinBound,
    policy_params,
)
from repro.errors import ScenarioError, SimulationError
from repro.scenarios import (
    FAILURE_MODELS,
    FailureSpec,
    GridSession,
    JsonlSink,
    Scenario,
    ScenarioResult,
    ScenarioRunner,
    SqliteSink,
    as_waves,
    run_scenario,
    scenario_digest,
)
from repro.scenarios.results import RecoveryOutcome
from repro.topology import TaskId

from tests.engine_helpers import build_engine, metrics_fingerprint, \
    run_scenario_engine

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


def _build_engine_for(scenario: Scenario):
    """Engine + resolution artefacts without running (placement inspection)."""
    runner = ScenarioRunner(scenario)
    bundle = runner.bundle()
    plan = runner.plan(bundle)
    config = runner.engine_config(bundle)
    engine = StreamEngine(bundle.topology, bundle.make_logic(), config,
                          plan=plan)
    return engine, runner, bundle, plan


# ----------------------------------------------------------------------
# approximate-ft
# ----------------------------------------------------------------------


class TestApproximateFt:
    def test_bound_validation(self):
        for bad in (-0.1, 1.5):
            with pytest.raises(SimulationError, match="fidelity_bound"):
                create_scheme("approximate-ft", {"fidelity_bound": bad})

    def test_unknown_parameter_rejected_with_context(self):
        with pytest.raises(SimulationError, match="rejected parameters"):
            create_scheme("approximate-ft", {"bogus": 1})

    def test_unknown_parameter_lists_what_the_policies_accept(self):
        with pytest.raises(SimulationError) as err:
            create_scheme("adaptive-checkpoint", {"bogus": 1})
        for accepted in ("min_interval", "max_interval", "mtbf_prior",
                         "smoothing"):
            assert accepted in str(err.value)
        with pytest.raises(SimulationError, match="accept: none"):
            create_scheme("ppa", {"fidelity_bound": 0.5})

    def test_memoized_policy_params_still_reject_unknown_parameters(self):
        """``policy_params`` is cached per policy class; a cold and a warm
        cache reject an unknown parameter with the same message."""
        expected = ("recovery scheme 'approximate-ft' rejected parameters "
                    "{'bogus': 1}: unknown parameter(s) 'bogus'; the "
                    "scheme's policies accept: fidelity_bound")
        policy_params.cache_clear()
        messages = []
        for _ in range(2):
            with pytest.raises(SimulationError) as err:
                create_scheme("approximate-ft", {"bogus": 1})
            messages.append(str(err.value))
        assert messages == [expected, expected]
        assert policy_params.cache_info().hits >= 3
        assert policy_params(SkipWithinBound) == ("fidelity_bound",)
        assert policy_params(FixedCadence) == ()

    @pytest.mark.parametrize("scheme,params,parameter", [
        ("approximate-ft", {"fidelity_bound": "abc"}, "fidelity_bound"),
        ("approximate-ft", {"fidelity_bound": None}, "fidelity_bound"),
        ("k-safe", {"placement": "ab"}, "placement"),
        ("k-safe", {"placement": {"n0": "r0"}, "assignment": 5},
         "assignment"),
        ("adaptive-checkpoint", {"min_interval": "soon"}, "min_interval"),
    ])
    def test_malformed_value_names_scheme_and_parameter(self, scheme, params,
                                                        parameter):
        with pytest.raises(SimulationError) as err:
            create_scheme(scheme, params)
        assert repr(scheme) in str(err.value)
        assert f"{parameter} must be" in str(err.value)

    @pytest.mark.parametrize("bound", [0.0, 0.2, 1.0])
    @pytest.mark.parametrize("model,params", [
        ("correlated", {}),
        ("rolling-restart", {"stagger": 2.0}),
        ("flapping", {"cycles": 2, "down": 3.0, "up": 6.0,
                      "operators": ["A"]}),
    ])
    def test_loss_never_exceeds_bound(self, bound, model, params):
        scenario = _tiny_scenario(
            recovery="approximate-ft",
            recovery_params={"fidelity_bound": bound},
            failures=[{"model": model, "at": 10.0, "params": params}],
        )
        result = run_scenario(scenario)
        assert result.all_recovered
        assert result.recoveries
        for outcome in result.recoveries:
            assert outcome.fidelity_bound == bound
            assert outcome.fidelity_loss is not None
            assert outcome.fidelity_loss <= outcome.fidelity_bound + 1e-12

    def test_generous_bound_jumps_approximately(self):
        result = run_scenario(_tiny_scenario(
            recovery="approximate-ft",
            recovery_params={"fidelity_bound": 1.0},
        ))
        approx = [r for r in result.recoveries if r.mode == "approximate"]
        assert approx, "a bound of 1.0 must let some task skip its replay"
        assert any(r.fidelity_loss > 0.0 for r in approx)
        # The skipped replay never counts against recovery latency: the
        # approximate path must not be slower than exact recovery.
        exact = run_scenario(_tiny_scenario(recovery="checkpoint-replay"))
        assert result.max_recovery_latency <= exact.max_recovery_latency

    def test_zero_bound_is_byte_identical_to_exact_recovery(self):
        scenario = _tiny_scenario(recovery="checkpoint-replay")
        exact = run_scenario_engine(scenario)
        approx = run_scenario_engine(_tiny_scenario(
            recovery="approximate-ft",
            recovery_params={"fidelity_bound": 0.0},
        ))
        assert (metrics_fingerprint(approx.metrics)
                == metrics_fingerprint(exact.metrics))


# ----------------------------------------------------------------------
# k-safe
# ----------------------------------------------------------------------


def _random_recipe(rng: random.Random) -> dict:
    operators = [{"name": "S", "parallelism": rng.randint(1, 3),
                  "kind": "source"}]
    edges = []
    previous = "S"
    for position in range(rng.randint(1, 3)):
        name = f"O{position}"
        operators.append({"name": name, "parallelism": rng.randint(1, 3),
                          "selectivity": 0.5})
        edges.append({"upstream": previous, "downstream": name,
                      "pattern": "full"})
        previous = name
    return {"operators": operators, "edges": edges}


def _random_placement(rng: random.Random) -> dict[str, str]:
    n_racks = rng.randint(2, 4)
    n_nodes = rng.randint(n_racks, 8)
    # i % n_racks guarantees every rack hosts at least one node.
    return {f"n{i}": f"rack{i % n_racks}" for i in range(n_nodes)}


def _ksafe_scenario(recipe: dict, placement: dict[str, str],
                    racks=("rack0",)) -> Scenario:
    return Scenario.from_dict({
        "workload": "custom",
        "topology": recipe,
        "workload_params": {"source_rate": 30.0, "window_seconds": 4.0},
        "planner": "all",
        "engine": {"checkpoint_interval": 4.0, "heartbeat_interval": 2.0},
        "recovery": "k-safe",
        "failures": [{"model": "rack-correlated", "at": 8.0,
                      "params": {"placement": placement,
                                 "racks": list(racks)}}],
        "duration": 16.0,
    })


class TestKSafePlacement:
    @pytest.mark.parametrize("seed", range(10))
    def test_replica_never_shares_blast_radius(self, seed):
        """Property: over random topologies and rack maps, no task's standby
        lives in the rack whose failure would kill the task's primary."""
        rng = random.Random(seed)
        scenario = _ksafe_scenario(_random_recipe(rng), _random_placement(rng))
        engine, runner, bundle, plan = _build_engine_for(scenario)
        assert engine.scheme.name == "k-safe"
        placement = engine.scheme.placement
        assert placement.replica_host, "planner 'all' must yield replicas"
        for task, replica_node in placement.replica_host.items():
            primary_rack = placement.rack_of[placement.primary_host[task]]
            assert placement.rack_of[replica_node] != primary_rack, (
                f"seed {seed}: {task} and its replica share "
                f"rack {primary_rack!r}"
            )
        # The scheme's view of the blast radius must agree with the kills
        # the failure model actually injects (shared placement_node_map).
        spec = scenario.failures[0]
        victims = runner.victims_of(spec, bundle, plan)
        assert victims, "rack0 always hosts at least one node"
        for victim in victims:
            assert placement.rack_of[placement.primary_host[victim]] == "rack0"
            if victim in placement.replica_host:  # sources have no standby
                assert placement.rack_of[placement.replica_host[victim]] != "rack0"

    def test_rack_failure_recovers_via_takeover(self):
        """End-to-end: losing one whole rack only triggers ACTIVE takeovers
        because every affected replica lives elsewhere (auto-wired from the
        rack-correlated failure spec, no explicit recovery_params)."""
        placement = {"n0": "r0", "n1": "r0", "n2": "r1", "n3": "r1"}
        scenario = _ksafe_scenario(_RECIPE, placement, racks=("r0",))
        result = run_scenario(scenario)
        assert result.failed_tasks
        assert result.all_recovered
        # Sources carry no standby (they recover by replaying their own
        # log); every replicated victim must fail over to its standby.
        modes = {str(r.task): r.mode for r in result.recoveries}
        replicated = {name: mode for name, mode in modes.items()
                      if not name.startswith("S[")}
        assert replicated
        assert set(replicated.values()) == {"active"}

    def test_runner_hands_the_scheme_the_map_the_failures_kill_by(self):
        """Plain, under the alias spelling, and wrapped by detection-jitter;
        an explicit placement wins; other schemes and models get nothing."""
        placement = {"n0": "r0", "n1": "r0", "n2": "r1", "n3": "r1"}
        rack = {"placement": placement, "racks": ["r0"],
                "assignment": {"A[0]": "n2"}}

        def wired(failures, **overrides):
            scenario = _ksafe_scenario(_RECIPE, placement).with_overrides(
                failures=tuple(FailureSpec(*f) for f in failures),
                **overrides)
            runner = ScenarioRunner(scenario)
            return runner.engine_config(runner.bundle()).recovery_params

        domains = {"placement": placement, "assignment": {"A[0]": "n2"}}
        assert wired([("rack-correlated", 8.0, rack)]) == domains
        assert wired([("rack_correlated", 8.0, rack)]) == domains
        assert wired([("correlated", 4.0, {}), ("detection-jitter", 8.0, {
            "base": "rack-correlated", "base_params": rack})]) == domains
        assert wired([("correlated", 8.0, {})]) == {}
        assert wired([("detection-jitter", 8.0, {})]) == {}
        assert wired([("rack-correlated", 8.0, rack)], recovery="ppa") == {}
        other = {"m0": "x", "m1": "y"}
        assert wired([("rack-correlated", 8.0, rack)],
                     recovery_params={"placement": other}) \
            == {"placement": other}

    def test_single_rack_placement_rejected(self):
        placement = {"n0": "r0", "n1": "r0"}
        scenario = _ksafe_scenario(_RECIPE, placement, racks=("r0",))
        with pytest.raises(SimulationError, match="at least two racks"):
            run_scenario(scenario)

    def test_assignment_without_placement_rejected(self):
        with pytest.raises(SimulationError, match="placement"):
            create_scheme("k-safe", {"assignment": {"A[0]": "n0"}})

    def test_no_placement_degrades_to_ppa(self):
        engine = build_engine(
            EngineConfig(recovery_scheme="k-safe"), plan=[TaskId("L1", 0)])
        assert engine.replicated == frozenset({TaskId("L1", 0)})
        assert not engine.scheme.placement.replica_host

    def test_replica_loss_demotes_to_passive(self):
        """A second wave that takes out the replica rack too: the scheme
        must demote affected tasks to passive recovery, not hang on a
        takeover that can never complete."""
        placement = {"n0": "r0", "n1": "r0", "n2": "r1", "n3": "r1"}
        scenario = _ksafe_scenario(_RECIPE, placement, racks=("r0",))
        scenario = scenario.with_overrides(failures=(
            scenario.failures[0],
            scenario.failures[0].__class__(
                "rack-correlated", at=8.5,
                params={"placement": placement, "racks": ["r1"]}),
        ))
        result = run_scenario(scenario)
        assert result.all_recovered
        assert {r.mode for r in result.recoveries} >= {"checkpoint"}


# ----------------------------------------------------------------------
# adaptive-checkpoint
# ----------------------------------------------------------------------


class TestAdaptiveCheckpoint:
    def test_parameter_validation(self):
        with pytest.raises(SimulationError, match="min_interval"):
            create_scheme("adaptive-checkpoint", {"min_interval": 9.0,
                                                  "max_interval": 3.0})
        with pytest.raises(SimulationError, match="mtbf_prior"):
            create_scheme("adaptive-checkpoint", {"mtbf_prior": 0.0})
        with pytest.raises(SimulationError, match="smoothing"):
            create_scheme("adaptive-checkpoint", {"smoothing": 0.0})

    def _config(self) -> EngineConfig:
        return EngineConfig(
            recovery_scheme="adaptive-checkpoint",
            recovery_params={"min_interval": 1.0, "max_interval": 64.0,
                             "mtbf_prior": 10.0},
            checkpoint_interval=16.0, heartbeat_interval=2.0,
        )

    def test_configured_interval_until_first_measurement(self):
        engine = build_engine(self._config())
        rt = engine.runtimes[TaskId("L0", 0)]
        assert len(engine.scheme.cadence.timings) == 0
        assert (engine.scheme.checkpoint_period(rt)
                == engine.config.checkpoint_batches)

    def test_interval_adapts_to_failures_and_snapshot_cost(self):
        engine = build_engine(self._config())
        victim = TaskId("L0", 0)
        for at in (8.0, 16.0, 24.0):
            engine.schedule_task_failure(at, [victim])
            # The host must come back up before it can flap again.
            engine.schedule_task_restore(at + 4.0, [victim])
        engine.run(40.0)
        scheme, cadence = engine.scheme, engine.scheme.cadence
        assert engine.all_recovered()
        # Failure instants 8/16/24 -> mean inter-arrival 8 s.
        assert cadence.mtbf_estimate() == pytest.approx(8.0)
        assert len(cadence.timings) > 0
        rt = engine.runtimes[TaskId("L0", 0)]
        delta = cadence.timings.cost_estimate(rt.task)
        assert delta is not None and delta > 0.0
        tau = math.sqrt(2.0 * delta * cadence.mtbf_estimate())
        tau = min(max(tau, 1.0), 64.0)
        expected = max(1, round(tau / engine.config.batch_interval))
        assert scheme.checkpoint_period(rt) == expected
        # Cheap snapshots + failures every 8 s must tighten the interval.
        assert scheme.checkpoint_period(rt) < engine.config.checkpoint_batches

    def test_disabled_checkpointing_stays_disabled(self):
        engine = build_engine(EngineConfig(
            recovery_scheme="adaptive-checkpoint", checkpoint_interval=None))
        rt = engine.runtimes[TaskId("L0", 0)]
        assert engine.scheme.checkpoint_period(rt) is None


# ----------------------------------------------------------------------
# flapping / detection-jitter failure models
# ----------------------------------------------------------------------


def _recipe_topology():
    runner = ScenarioRunner(_tiny_scenario())
    return runner.bundle().topology


class TestFlappingModel:
    def test_wave_structure(self):
        topology = _recipe_topology()
        model = FAILURE_MODELS.get("flapping")
        waves = as_waves(model(topology, frozenset(), seed=0, cycles=3,
                               down=4.0, up=6.0, operators=["A"]))
        kills = [w for w in waves if w.tasks]
        restores = [w for w in waves if w.restores]
        assert [w.offset for w in kills] == [0.0, 10.0, 20.0]
        # No restore after the final kill; each restore revives the victims.
        assert [w.offset for w in restores] == [4.0, 14.0]
        for kill, restore in zip(kills, restores):
            assert restore.restores == kill.tasks
            assert restore.tasks == ()

    def test_validation(self):
        topology = _recipe_topology()
        model = FAILURE_MODELS.get("flapping")
        with pytest.raises(ScenarioError, match="cycles"):
            model(topology, frozenset(), seed=0, cycles=0)
        with pytest.raises(ScenarioError, match="down"):
            model(topology, frozenset(), seed=0, down=0.0)
        with pytest.raises(ScenarioError, match="not both"):
            model(topology, frozenset(), seed=0, operators=["A"],
                  tasks=[["A", 0]])

    @pytest.mark.parametrize("name", ["rolling-restart", "flapping"])
    @pytest.mark.parametrize("params, message", [
        ({"operators": ["A"], "tasks": [["A", 0]]},
         "'{}': pass operators or tasks, not both"),
        ({"operators": []}, "'{}' selected no tasks"),
    ])
    def test_victim_selection_errors(self, name, params, message):
        topology = _recipe_topology()
        model = FAILURE_MODELS.get(name)
        with pytest.raises(ScenarioError) as raised:
            model(topology, frozenset(), seed=0, **params)
        assert str(raised.value) == message.format(name)

    def test_empty_wave_rejected(self):
        from repro.scenarios import FailureWave

        with pytest.raises(ScenarioError, match="kill or restore"):
            FailureWave(0.0, ())

    def test_engine_recovers_through_repeated_kills(self):
        scenario = _tiny_scenario(failures=[{
            "model": "flapping", "at": 6.0,
            "params": {"cycles": 2, "down": 4.0, "up": 8.0,
                       "operators": ["A"]}}])
        result = run_scenario(scenario)
        assert result.all_recovered
        by_task: dict[str, int] = {}
        for outcome in result.recoveries:
            by_task[str(outcome.task)] = by_task.get(str(outcome.task), 0) + 1
        # Both A tasks die in both cycles: two full recoveries each.
        assert by_task == {"A[0]": 2, "A[1]": 2}


class TestDetectionJitter:
    def test_deterministic_per_task_delays(self):
        topology = _recipe_topology()
        model = FAILURE_MODELS.get("detection-jitter")
        waves = as_waves(model(topology, frozenset(), seed=5, jitter=3.0))
        again = as_waves(model(topology, frozenset(), seed=5, jitter=3.0))
        assert waves == again
        assert all(len(w.tasks) == 1 for w in waves)
        delays = [w.detect_delay for w in waves]
        assert all(0.0 <= d <= 3.0 for d in delays)
        assert len(set(delays)) > 1, "jitter must actually vary per task"

    def test_wraps_staggered_base_model(self):
        topology = _recipe_topology()
        model = FAILURE_MODELS.get("detection-jitter")
        waves = as_waves(model(topology, frozenset(), seed=1, jitter=2.0,
                               base="rolling-restart",
                               base_params={"stagger": 3.0}))
        offsets = sorted({w.offset for w in waves})
        assert offsets == [0.0, 3.0, 6.0]

    def test_validation(self):
        topology = _recipe_topology()
        model = FAILURE_MODELS.get("detection-jitter")
        with pytest.raises(ScenarioError, match="jitter"):
            model(topology, frozenset(), seed=0, jitter=-1.0)
        with pytest.raises(ScenarioError, match="cannot wrap itself"):
            model(topology, frozenset(), seed=0, base="detection-jitter")

    def test_detection_times_spread_end_to_end(self):
        scenario = _tiny_scenario(failures=[{
            "model": "detection-jitter", "at": 12.0,
            "params": {"jitter": 3.0}}])
        result = run_scenario(scenario)
        assert result.all_recovered
        assert len(result.recoveries) >= 2
        detect_times = {r.detect_time for r in result.recoveries}
        assert len(detect_times) > 1, "jitter must desynchronize detection"
        for outcome in result.recoveries:
            assert outcome.detect_time >= outcome.fail_time

    def test_zero_jitter_matches_plain_base_model(self):
        plain = run_scenario_engine(_tiny_scenario())
        jittered = run_scenario_engine(_tiny_scenario(failures=[{
            "model": "detection-jitter", "at": 12.0,
            "params": {"jitter": 0.0}}]))
        assert (metrics_fingerprint(jittered.metrics)
                == metrics_fingerprint(plain.metrics))


# ----------------------------------------------------------------------
# Serialization compatibility
# ----------------------------------------------------------------------


class TestScenarioDigestCompat:
    def test_new_fields_omitted_when_defaulted(self):
        scenario = _tiny_scenario()
        data = scenario.to_dict()
        assert "recovery_params" not in data
        assert "quality" not in data
        explicit = dict(data)
        explicit["recovery_params"] = {}
        explicit["quality"] = {}
        assert (scenario_digest(Scenario.from_dict(explicit))
                == scenario_digest(scenario))

    def test_set_fields_round_trip_and_change_digest(self):
        scenario = _tiny_scenario(
            recovery="approximate-ft",
            recovery_params={"fidelity_bound": 0.5},
            quality={"measure_from": 12.0},
        )
        data = scenario.to_dict()
        assert data["recovery_params"] == {"fidelity_bound": 0.5}
        assert data["quality"] == {"measure_from": 12.0}
        assert Scenario.from_dict(data) == scenario
        assert scenario_digest(scenario) != scenario_digest(_tiny_scenario())


class TestFidelitySerialization:
    def test_outcome_omits_fields_when_none(self):
        outcome = RecoveryOutcome(TaskId("A", 0), "checkpoint", 1.0, 2.0, 3.0)
        data = outcome.to_dict()
        assert "fidelity_bound" not in data
        assert "fidelity_loss" not in data
        assert RecoveryOutcome.from_dict(data) == outcome

    def test_outcome_round_trips_fidelity_fields(self):
        outcome = RecoveryOutcome(TaskId("A", 0), "approximate", 1.0, 2.0,
                                  3.0, fidelity_bound=0.2, fidelity_loss=0.1)
        data = outcome.to_dict()
        assert data["fidelity_bound"] == 0.2
        assert data["fidelity_loss"] == 0.1
        assert RecoveryOutcome.from_dict(data) == outcome

    def test_result_round_trips_quality_and_fidelity(self):
        result = run_scenario(_tiny_scenario(
            recovery="approximate-ft",
            recovery_params={"fidelity_bound": 1.0},
            quality={"measure_from": 12.0},
        ))
        data = result.to_dict()
        assert 0.0 <= data["output_quality"] <= 1.0
        assert any("fidelity_loss" in r for r in data["recoveries"])
        assert ScenarioResult.from_dict(data).to_dict() == data

    def test_result_omits_quality_when_absent(self):
        result = run_scenario(_tiny_scenario())
        assert "output_quality" not in result.to_dict()
        assert result.output_quality is None

    @pytest.mark.parametrize("sink_cls", [JsonlSink, SqliteSink],
                             ids=["jsonl", "sqlite"])
    def test_sink_round_trip_preserves_new_fields(self, tmp_path, sink_cls):
        scenario = _tiny_scenario(
            recovery="approximate-ft",
            recovery_params={"fidelity_bound": 1.0},
            quality={"measure_from": 12.0},
        )
        expected = run_scenario(scenario).to_dict()
        path = tmp_path / f"out.{sink_cls.name}"
        GridSession("serial", sink=sink_cls(path)).run([scenario])
        (loaded,) = sink_cls.load(path)
        assert loaded.to_dict() == expected


# ----------------------------------------------------------------------
# Output-quality axis
# ----------------------------------------------------------------------


class TestQualityAxis:
    def test_quality_computed_and_bounded(self):
        result = run_scenario(_tiny_scenario(quality={"measure_from": 12.0}))
        assert result.output_quality is not None
        assert 0.0 <= result.output_quality <= 1.0

    def test_empty_quality_spec_disables_measurement(self):
        assert run_scenario(_tiny_scenario()).output_quality is None

    def test_unknown_quality_key_rejected(self):
        with pytest.raises(ScenarioError, match="quality"):
            run_scenario(_tiny_scenario(quality={"bogus": 1.0}))

    def test_quality_keys_checked_at_construction(self):
        # Before any simulation: a typo must not cost a grid its engine runs.
        with pytest.raises(ScenarioError,
                           match=r"unknown quality field\(s\) \['measure_form'\]"):
            Scenario(quality={"measure_form": 30.0})
        with pytest.raises(ScenarioError, match="unknown quality field"):
            Scenario.from_dict({"quality": {"measure_form": 30.0}})

    @pytest.mark.parametrize("value", ["30", None, True, [30.0]])
    def test_quality_values_must_be_numbers(self, value):
        with pytest.raises(ScenarioError, match="measure_from.*number"):
            Scenario(quality={"measure_from": value})

    def test_active_standby_quality_is_lossless(self):
        result = run_scenario(_tiny_scenario(
            recovery="active-standby", quality={"measure_from": 12.0}))
        assert result.output_quality == pytest.approx(1.0)

    def test_empty_baseline_window_is_rejected_not_perfect(self):
        # A selectivity-0 sink emits nothing even without failures: every
        # accurate batch is empty, and an empty accurate batch scores any
        # tentative batch as 1.0.
        scenario = _tiny_scenario(
            topology={
                "operators": [
                    {"name": "S", "parallelism": 2, "kind": "source"},
                    {"name": "A", "parallelism": 2, "selectivity": 0.0},
                ],
                "edges": [{"upstream": "S", "downstream": "A",
                           "pattern": "one-to-one"}],
            },
            failures=[{"model": "correlated", "at": 10.0}],
            duration=30.0, quality={"measure_from": 12.0},
        )
        with pytest.raises(ScenarioError,
                           match=r"sink batch .* is empty"):
            run_scenario(scenario)

    def test_empty_result_sets_are_rejected_not_perfect(self):
        # No incident starts after the 10 s horizon, and each lasts 4 s and
        # leaves the 8 s window, so every accurate Q2 batch from 25 s on is
        # an empty jam-incident set: an empty output would score 1.0.
        scenario = Scenario.from_dict({
            "workload": "traffic",
            "workload_params": {"location_rate": 2000.0, "tuple_scale": 40.0,
                                "window_seconds": 8.0, "horizon": 10.0},
            "planner": "none",
            "engine": {"checkpoint_interval": None,
                       "tentative_outputs": True, "recovery_enabled": False},
            "failures": [{"model": "unreplicated", "at": 20.0,
                          "params": {"include_sources": True}}],
            "quality": {"measure_from": 25.0},
            "duration": 40.0,
        })
        with pytest.raises(ScenarioError, match="holds an empty result"):
            run_scenario(scenario)

    def test_default_window_starts_at_first_failure(self):
        explicit = run_scenario(_tiny_scenario(
            quality={"measure_from": 12.0, "measure_until": 22.0}))
        defaulted = run_scenario(_tiny_scenario(quality={"measure_from": 12.0}))
        assert explicit.output_quality == defaulted.output_quality

    def test_scheme_sweep_reports_quality_rows(self):
        from repro.experiments.recovery import scheme_sweep

        fig = scheme_sweep(windows=(6.0,), rates=(200.0,),
                           failure_models=("correlated",),
                           tuple_scale=16.0, duration=30.0)
        assert "metric" in fig.headers
        metrics = {row[fig.headers.index("metric")] for row in fig.rows}
        assert metrics == {"latency", "quality"}
        from repro.engine import RECOVERY_SCHEMES

        for name in RECOVERY_SCHEMES.names():
            assert name in fig.headers
