"""Tests for the pluggable grid-execution layer.

Covers the backend × sink matrix (byte-identical outputs), the
content-addressed scenario cache (hits skip the engine), resume, the
structured per-cell error paths (timeout, worker death, runner errors),
result round-trips and the rack-correlated failure model.
"""

import json
import os
import time

import pytest

from repro.errors import ScenarioError
from repro.scenarios import (
    EXECUTION_BACKENDS,
    FAILURE_MODELS,
    RESULT_SINKS,
    CellError,
    EdgeDef,
    FailureSpec,
    GridSession,
    JsonlSink,
    MemorySink,
    OperatorDef,
    ProcessBackend,
    Scenario,
    ScenarioCache,
    ScenarioResult,
    SqliteSink,
    TopologyRecipe,
    expand_grid,
    run_grid,
    prebuilt_workload,
    run_scenario,
    run_scenarios,
    scenario_digest,
    sink_for_path,
    workload_key,
)
from repro.scenarios import prebuilt
from repro.scenarios.results import RecoveryOutcome
from repro.topology import TaskId


def tiny_recipe() -> TopologyRecipe:
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


def tiny_grid() -> list[Scenario]:
    return expand_grid(tiny_scenario(), {"budget": [0, 1, 2],
                                         "engine.checkpoint_interval": [4.0, 8.0]})


# ----------------------------------------------------------------------
# Module-level runners: picklable for the processes backend (fork start
# method inherits this module; pickling resolves them by qualified name).
# ----------------------------------------------------------------------

_CALLS = {"count": 0}

#: Sentinel seed marking the cell that misbehaves in the fault-path tests.
MARKED_SEED = 424242


def counting_runner(scenario):
    _CALLS["count"] += 1
    return run_scenario(scenario)


def sleepy_runner(scenario):
    if scenario.seed == MARKED_SEED:
        time.sleep(2.0)
    return run_scenario(scenario)


def killer_runner(scenario):
    if scenario.seed == MARKED_SEED:
        os._exit(3)
    return run_scenario(scenario)


def failing_runner(scenario):
    raise ValueError("boom")


# ----------------------------------------------------------------------
class TestResultRoundTrip:
    def test_full_round_trip_including_plan_and_recoveries(self):
        result = run_scenario(tiny_scenario())
        rebuilt = ScenarioResult.from_dict(result.to_dict())
        assert rebuilt == result
        assert rebuilt.to_dict() == result.to_dict()
        assert rebuilt.plan.planner == "Greedy"
        assert rebuilt.plan.replicated == result.plan.replicated
        assert rebuilt.recoveries == result.recoveries

    def test_round_trip_through_json_text(self):
        result = run_scenario(tiny_scenario())
        rebuilt = ScenarioResult.from_dict(json.loads(json.dumps(result.to_dict())))
        assert rebuilt == result

    def test_missing_required_field_names_key(self):
        data = run_scenario(tiny_scenario()).to_dict()
        del data["plan"]
        with pytest.raises(ScenarioError, match="'plan'"):
            ScenarioResult.from_dict(data)

    def test_unknown_field_rejected(self):
        data = run_scenario(tiny_scenario()).to_dict()
        data["fidelity"] = 1.0
        with pytest.raises(ScenarioError, match="fidelity"):
            ScenarioResult.from_dict(data)

    def test_malformed_task_reference_names_key(self):
        data = run_scenario(tiny_scenario()).to_dict()
        data["failed_tasks"] = ["A-0"]
        with pytest.raises(ScenarioError, match="'failed_tasks'.*A-0"):
            ScenarioResult.from_dict(data)

    def test_malformed_plan_reference_names_key(self):
        data = run_scenario(tiny_scenario()).to_dict()
        data["plan"]["replicated"] = [42]
        with pytest.raises(ScenarioError, match="plan.replicated"):
            ScenarioResult.from_dict(data)

    def test_malformed_numeric_field_names_key(self):
        data = run_scenario(tiny_scenario()).to_dict()
        data["worst_case_fidelity"] = "high"
        with pytest.raises(ScenarioError, match="'worst_case_fidelity'"):
            ScenarioResult.from_dict(data)

    def test_explicit_null_rejected_where_meaningless(self):
        data = run_scenario(tiny_scenario()).to_dict()
        data["batches_processed"] = None
        with pytest.raises(ScenarioError, match="'batches_processed'.*null"):
            ScenarioResult.from_dict(data)

    def test_malformed_plan_budget_names_key(self):
        data = run_scenario(tiny_scenario()).to_dict()
        data["plan"]["budget"] = "lots"
        with pytest.raises(ScenarioError, match="plan.budget"):
            ScenarioResult.from_dict(data)

    def test_null_recovery_mode_rejected(self):
        outcome = RecoveryOutcome(TaskId("A", 1), "active", 8.0, 10.0, None)
        data = outcome.to_dict()
        data["mode"] = None
        with pytest.raises(ScenarioError, match="'mode'.*null"):
            RecoveryOutcome.from_dict(data)
        # while a null recovered_time is meaningful (recovery unfinished)
        assert RecoveryOutcome.from_dict(outcome.to_dict()) == outcome

    def test_recovery_outcome_round_trip(self):
        outcome = RecoveryOutcome(TaskId("A", 1), "active", 8.0, 10.0, 11.5)
        assert RecoveryOutcome.from_dict(outcome.to_dict()) == outcome

    def test_recovery_outcome_rejects_unknown_field(self):
        with pytest.raises(ScenarioError, match="unknown recovery field"):
            RecoveryOutcome.from_dict({"task": "A[0]", "mode": "active",
                                       "fail_time": 1.0, "detect_time": 2.0,
                                       "recovered_time": None, "speed": 9})


# ----------------------------------------------------------------------
class TestBackendSinkMatrix:
    """Every backend x sink combination matches the serial/memory baseline."""

    BACKENDS = ("serial", "processes")

    @pytest.fixture(scope="class")
    def grid(self):
        return tiny_grid()

    @pytest.fixture(scope="class")
    def baseline_jsonl(self, grid, tmp_path_factory):
        path = tmp_path_factory.mktemp("baseline") / "serial.jsonl"
        report = GridSession("serial", sink=JsonlSink(path)).run(grid)
        assert report.errors == 0
        return path.read_bytes()

    @pytest.fixture(scope="class")
    def baseline_dicts(self, grid):
        report = GridSession("serial").run(grid)
        return [r.to_dict() for r in report.results()]

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_memory_sink_matches_baseline(self, backend, grid, baseline_dicts):
        sink = MemorySink()
        report = GridSession(backend, sink=sink).run(grid)
        assert report.errors == 0
        assert [r.to_dict() for r in sink.results] == baseline_dicts
        assert [r.to_dict() for r in report.results()] == baseline_dicts

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_jsonl_sink_byte_identical(self, backend, grid, baseline_jsonl,
                                       tmp_path):
        path = tmp_path / f"{backend}.jsonl"
        report = GridSession(backend, sink=JsonlSink(path)).run(grid)
        assert report.errors == 0
        assert path.read_bytes() == baseline_jsonl

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_sqlite_sink_matches_baseline(self, backend, grid, baseline_dicts,
                                          tmp_path):
        path = tmp_path / f"{backend}.sqlite"
        report = GridSession(backend, sink=SqliteSink(path)).run(grid)
        assert report.errors == 0
        loaded = SqliteSink.load(path)
        assert [r.to_dict() for r in loaded] == baseline_dicts

    def test_jsonl_reload_round_trips(self, grid, baseline_jsonl, tmp_path):
        path = tmp_path / "reload.jsonl"
        path.write_bytes(baseline_jsonl)
        outcomes = JsonlSink.load(path)
        assert len(outcomes) == len(grid)
        assert all(isinstance(o, ScenarioResult) for o in outcomes)

    def test_registries_expose_backends_and_sinks(self):
        assert {"serial", "processes"} <= set(EXECUTION_BACKENDS.names())
        assert {"memory", "jsonl", "sqlite"} <= set(RESULT_SINKS.names())

    def test_sink_for_path_maps_extensions(self, tmp_path):
        assert isinstance(sink_for_path(tmp_path / "x.jsonl"), JsonlSink)
        assert isinstance(sink_for_path(tmp_path / "x.sqlite"), SqliteSink)
        for unknown in ("x.csv", "x.parquet"):
            with pytest.raises(ScenarioError, match="cannot infer"):
                sink_for_path(tmp_path / unknown)


# ----------------------------------------------------------------------
class TestPrebuiltWorkloads:
    """The per-process workload memo: one build per distinct workload."""

    def test_cold_memo_matches_warm_memo(self):
        scenario = tiny_scenario()
        prebuilt.clear()
        cold = run_scenario(scenario).to_dict()
        assert run_scenario(scenario).to_dict() == cold

    def test_workload_key_ignores_non_workload_fields(self):
        base = tiny_scenario()
        assert workload_key(base) == workload_key(
            base.with_overrides(budget=0, duration=8.0, failures=[],
                                name="other"))
        assert workload_key(base) != workload_key(base.with_overrides(
            **{"workload_params.source_rate": 21.0}))

    def test_memo_reuses_bundle_and_router_across_cells(self):
        prebuilt.clear()
        base = tiny_scenario()
        bundle_a, router_a, caches_a = prebuilt_workload(base)
        bundle_b, router_b, caches_b = prebuilt_workload(
            base.with_overrides(budget=0))
        assert bundle_a is bundle_b and router_a is router_b
        assert caches_a is caches_b
        assert router_a.topology is bundle_a.topology
        bundle_c, _router_c, _caches_c = prebuilt_workload(
            base.with_overrides(**{"workload_params.window_seconds": 4.0}))
        assert bundle_c is not bundle_a

    def test_workload_caches_fill_and_reuse(self):
        prebuilt.clear()
        base = tiny_scenario()
        for budget in (0, 1, 1):  # repeated budget hits the plan memo
            run_scenario(base.with_overrides(budget=budget))
        _bundle, _router, caches = prebuilt_workload(base)
        assert len(caches.plans) == 2
        assert caches.objective_values  # OF values memoized
        assert caches.source_memos      # shared source batches

    def test_memo_capacity_is_bounded(self, monkeypatch):
        prebuilt.clear()
        monkeypatch.setattr(prebuilt, "CACHE_CAPACITY", 2)
        base = tiny_scenario()
        for rate in (30.0, 31.0, 32.0):
            prebuilt_workload(base.with_overrides(
                **{"workload_params.source_rate": rate}))
        assert prebuilt.cache_info()["entries"] == 2
        prebuilt.clear()
        assert prebuilt.cache_info()["entries"] == 0

    def test_reregistered_workload_invalidates_the_memo(self):
        """register(overwrite=True) must not serve bundles of the old factory."""
        from repro.scenarios import WORKLOADS, make_bundle

        def v1(**params):
            return make_bundle("custom", recipe=tiny_recipe().to_dict(),
                               source_rate=10.0)

        def v2(**params):
            return make_bundle("custom", recipe=tiny_recipe().to_dict(),
                               source_rate=30.0)

        WORKLOADS.register("prebuilt-test", overwrite=True)(v1)
        try:
            scenario = tiny_scenario(workload="prebuilt-test", topology=None,
                                     workload_params={}, failures=())
            first = run_scenario(scenario)
            WORKLOADS.register("prebuilt-test", overwrite=True)(v2)
            second = run_scenario(scenario)
            assert second.tuples_processed > first.tuples_processed
        finally:
            WORKLOADS.unregister("prebuilt-test")
            prebuilt.clear()

    def test_warm_payload_covers_distinct_workloads_once(self):
        grid = tiny_grid()  # six cells, one distinct workload
        payload = prebuilt.warm_payload(grid)
        assert len(payload) == 1
        prebuilt.clear()
        prebuilt.warm_from_payload(payload)
        assert prebuilt.cache_info()["entries"] == 1
        assert prebuilt.warm(grid) == 1  # idempotent: still one workload

    @pytest.mark.parametrize("start_method", ["fork", "forkserver"])
    def test_prebuilt_pool_matches_serial(self, start_method):
        import multiprocessing

        if start_method not in multiprocessing.get_all_start_methods():
            pytest.skip(f"{start_method} unavailable on this platform")
        grid = tiny_grid()
        baseline = [r.to_dict() for r in run_scenarios(grid, backend="serial")]
        backend = ProcessBackend(max_workers=2, start_method=start_method)
        results = run_scenarios(grid, backend=backend)
        assert [r.to_dict() for r in results] == baseline

    def test_unknown_start_method_rejected(self):
        with pytest.raises(ScenarioError, match="start method"):
            ProcessBackend(start_method="teleport")

    def test_unbuildable_workload_fails_only_its_cells(self):
        """The warm-up always runs, but skips a workload that cannot build."""
        bad = tiny_scenario(name="bad", workload_params={"no_such_knob": 1})
        grid = [tiny_scenario(), bad, tiny_scenario(budget=0)]
        report = GridSession(backend=ProcessBackend(max_workers=2)).run(grid)
        good, error, also_good = report.outcomes
        assert isinstance(good, ScenarioResult)
        assert isinstance(also_good, ScenarioResult)
        assert isinstance(error, CellError) and error.kind == "error"
        assert "no_such_knob" in error.message
        assert report.errors == 1


# ----------------------------------------------------------------------
#: The seven schemes of the ``recovery_storm`` benchmark, pinned so a
#: scheme registered by another test does not join the column.
COLUMN_SCHEMES = ("active-standby", "adaptive-checkpoint", "approximate-ft",
                  "checkpoint-replay", "k-safe", "ppa", "source-replay")


def quality_column() -> list[Scenario]:
    """Every scheme under one correlated failure, scored for quality."""
    return [Scenario(name=f"column/{scheme}", workload="synthetic",
                     workload_params={"tuple_scale": 16.0},
                     planner="structure-aware", budget_fraction=0.5,
                     engine={"tentative_outputs": True}, recovery=scheme,
                     failures=(FailureSpec("correlated", at=8.0),),
                     quality={"measure_from": 8.0}, duration=20.0)
            for scheme in COLUMN_SCHEMES]


class TestOneRunPath:
    """Every run shares the workload memo, and the memo changes no result."""

    @pytest.fixture(scope="class")
    def cold(self):
        """The column with the memo dropped before every cell."""
        results = []
        for scenario in quality_column():
            prebuilt.clear()
            results.append(run_scenario(scenario).to_dict())
        prebuilt.clear()
        return results

    def test_warm_memo_changes_no_result(self, cold):
        prebuilt.clear()
        assert [run_scenario(s).to_dict() for s in quality_column()] == cold
        assert all(0.0 <= r["output_quality"] <= 1.0 for r in cold)

    def test_column_runs_one_quality_baseline(self, cold, monkeypatch):
        from repro.engine.engine import StreamEngine

        built = []
        init = StreamEngine.__init__

        def counting_init(self, *args, **kwargs):
            built.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(StreamEngine, "__init__", counting_init)
        prebuilt.clear()
        column = quality_column()
        assert [run_scenario(s).to_dict() for s in column] == cold
        caches = prebuilt_workload(column[0])[2]
        assert len(caches.sink_baselines) == 1
        assert len(built) == len(column) + 1
        # The baseline engine shares the failure runs' router and sources.
        router = prebuilt_workload(column[0])[1]
        assert all(engine.router is router for engine in built)


# ----------------------------------------------------------------------
class TestProfileSinkRoundTrip:
    """ScenarioResult.profile persists and reloads losslessly (JSONL/SQLite)."""

    @pytest.fixture(scope="class")
    def profiled(self):
        return run_scenario(tiny_scenario(duration=8.0, failures=()),
                            profile=True)

    @pytest.mark.parametrize("sink_cls", [JsonlSink, SqliteSink],
                             ids=["jsonl", "sqlite"])
    def test_profile_round_trips_through_file_sinks(self, sink_cls, tmp_path,
                                                    profiled):
        assert profiled.profile  # the fixture really carried a profile
        path = tmp_path / f"profiled.{sink_cls.name}"
        digest = scenario_digest(profiled.scenario)
        with sink_cls(path) as sink:
            sink.write(0, digest, profiled)
        [reloaded] = sink_cls.load(path)
        assert isinstance(reloaded, ScenarioResult)
        assert reloaded.profile == profiled.profile
        assert reloaded == profiled
        assert reloaded.to_dict() == profiled.to_dict()

    @pytest.mark.parametrize("sink_cls", [JsonlSink, SqliteSink],
                             ids=["jsonl", "sqlite"])
    def test_unprofiled_rows_reload_without_profile(self, sink_cls, tmp_path):
        result = run_scenario(tiny_scenario(duration=8.0, failures=()))
        path = tmp_path / f"plain.{sink_cls.name}"
        with sink_cls(path) as sink:
            sink.write(0, scenario_digest(result.scenario), result)
        [reloaded] = sink_cls.load(path)
        assert reloaded.profile is None
        assert reloaded == result

    def test_profile_survives_a_resumed_grid_session(self, tmp_path, profiled):
        """A profiled row persisted earlier is reported back on resume."""
        scenario = profiled.scenario
        path = tmp_path / "resume.jsonl"
        with JsonlSink(path) as sink:
            sink.write(0, scenario_digest(scenario), profiled)
        report = GridSession(sink=JsonlSink(path), resume=True).run([scenario])
        assert report.resumed == 1 and report.executed == 0
        [outcome] = report.outcomes
        assert outcome.profile == profiled.profile


# ----------------------------------------------------------------------
class TestScenarioCache:
    def test_digest_ignores_name_only(self):
        a, b = tiny_scenario(name="x"), tiny_scenario(name="y")
        assert scenario_digest(a) == scenario_digest(b)
        assert scenario_digest(a) != scenario_digest(tiny_scenario(seed=1))

    def test_cache_hit_skips_engine_run_counter(self, tmp_path):
        grid = tiny_grid()
        cache = ScenarioCache(tmp_path / "cache")
        _CALLS["count"] = 0
        first = GridSession(cache=cache, runner=counting_runner).run(grid)
        assert first.executed == len(grid)
        assert _CALLS["count"] == len(grid)

        second = GridSession(cache=cache, runner=counting_runner).run(grid)
        assert _CALLS["count"] == len(grid)  # engine never ran again
        assert second.executed == 0
        assert second.cache_hits == len(grid)
        assert ([r.to_dict() for r in second.results()]
                == [r.to_dict() for r in first.results()])

    def test_acceptance_processes_jsonl_cache_matches_serial(self, tmp_path):
        """The ISSUE acceptance criterion, verbatim."""
        base, axes = tiny_scenario(), {"budget": [0, 1, 2],
                                       "engine.checkpoint_interval": [4.0, 8.0]}
        serial = run_grid(base, axes)

        path = tmp_path / "out.jsonl"
        cache = ScenarioCache(tmp_path / "cache")
        results = run_grid(base, axes, backend="processes",
                           sink=JsonlSink(path), cache=cache)
        assert [r.to_dict() for r in results] == [r.to_dict() for r in serial]
        first_bytes = path.read_bytes()

        # Second invocation: zero engine executions, identical output.
        _CALLS["count"] = 0
        session = GridSession("processes", sink=JsonlSink(path), cache=cache,
                              runner=counting_runner)
        report = session.run(expand_grid(base, axes))
        assert report.executed == 0 and _CALLS["count"] == 0
        assert report.cache_hits == len(serial)
        assert path.read_bytes() == first_bytes

    def test_identical_cells_deduplicated_within_one_grid(self):
        _CALLS["count"] = 0
        cells = [tiny_scenario(name=f"copy-{i}") for i in range(4)]
        report = GridSession(runner=counting_runner).run(cells)
        assert _CALLS["count"] == 1
        assert report.executed == 1 and report.deduped == 3
        names = [r.scenario.name for r in report.results()]
        assert names == [f"copy-{i}" for i in range(4)]  # labels restored

    def test_corrupt_cache_entry_is_a_miss(self, tmp_path):
        cache = ScenarioCache(tmp_path)
        digest = scenario_digest(tiny_scenario())
        cache.path_for(digest).write_text("{not json")
        assert cache.get(digest) is None
        assert cache.misses == 1


# ----------------------------------------------------------------------
class TestResume:
    def test_resume_skips_persisted_cells(self, tmp_path):
        grid = tiny_grid()
        path = tmp_path / "out.jsonl"
        GridSession(sink=JsonlSink(path)).run(grid)
        before = path.read_bytes()

        _CALLS["count"] = 0
        report = GridSession(sink=JsonlSink(path), resume=True,
                             runner=counting_runner).run(grid)
        assert _CALLS["count"] == 0
        assert report.resumed == len(grid) and report.executed == 0
        assert path.read_bytes() == before  # nothing re-appended

    def test_resume_runs_only_new_cells(self, tmp_path):
        grid = tiny_grid()
        path = tmp_path / "out.jsonl"
        GridSession(sink=JsonlSink(path)).run(grid[:3])
        report = GridSession(sink=JsonlSink(path), resume=True).run(grid)
        assert report.resumed == 3 and report.executed == 3
        outcomes = JsonlSink.load(path)
        assert len(outcomes) == len(grid)

    def test_sqlite_resume(self, tmp_path):
        grid = tiny_grid()
        path = tmp_path / "out.sqlite"
        GridSession(sink=SqliteSink(path)).run(grid[:2])
        report = GridSession(sink=SqliteSink(path), resume=True).run(grid)
        assert report.resumed == 2 and report.executed == 4
        assert len(SqliteSink.load(path)) == len(grid)

    @pytest.mark.parametrize("sink_cls", [JsonlSink, SqliteSink])
    def test_resume_with_reordered_grid_keeps_old_rows(self, sink_cls, tmp_path):
        # A cell prepended between runs shifts every index; persisted rows
        # are keyed by digest, so nothing is overwritten or shadowed.
        a, b = tiny_scenario(name="a", seed=1), tiny_scenario(name="b", seed=2)
        c = tiny_scenario(name="c", seed=3)
        path = tmp_path / ("out.jsonl" if sink_cls is JsonlSink else "out.sqlite")
        GridSession(sink=sink_cls(path)).run([a, b])
        report = GridSession(sink=sink_cls(path), resume=True).run([c, a, b])
        assert report.resumed == 2 and report.executed == 1
        loaded = sink_cls.load(path)
        assert sorted(r.scenario.name for r in loaded) == ["a", "b", "c"]


# ----------------------------------------------------------------------
class TestStructuredErrors:
    def scenarios(self):
        # Distinct seeds keep digests distinct (no dedup); the marked cell
        # carries the sentinel seed the faulty runners look for.
        cells = [tiny_scenario(name=f"cell-{i}", seed=i) for i in range(3)]
        marked = tiny_scenario(name="marked", seed=MARKED_SEED)
        return [cells[0], marked, cells[1], cells[2]]

    def test_timeout_surfaces_as_cell_error(self):
        cells = self.scenarios()
        report = GridSession(ProcessBackend(max_workers=2), timeout=0.75,
                             runner=sleepy_runner).run(cells)
        kinds = [getattr(o, "kind", "ok") for o in report.outcomes]
        assert kinds == ["ok", "timeout", "ok", "ok"]
        assert report.errors == 1
        error = report.cell_errors()[0]
        assert error.scenario.name == "marked"
        assert "timeout" in error.message

    def test_timeout_does_not_cascade(self):
        # One hung cell must not consume the only worker slot for good:
        # the pool is replaced, so later fast cells still finish in time.
        cells = self.scenarios()
        report = GridSession(ProcessBackend(max_workers=1), timeout=0.75,
                             runner=sleepy_runner).run(cells)
        kinds = [getattr(o, "kind", "ok") for o in report.outcomes]
        assert kinds == ["ok", "timeout", "ok", "ok"]

    def test_serial_flags_timeout_after_the_fact(self):
        marked = tiny_scenario(name="marked", seed=MARKED_SEED)
        report = GridSession("serial", timeout=0.5,
                             runner=sleepy_runner).run([marked])
        assert report.errors == 1
        assert report.cell_errors()[0].kind == "timeout"

    def test_worker_death_retries_once_then_reports(self):
        cells = self.scenarios()
        report = GridSession(ProcessBackend(max_workers=1), retries=1,
                             runner=killer_runner).run(cells)
        kinds = [getattr(o, "kind", "ok") for o in report.outcomes]
        assert kinds == ["ok", "worker-death", "ok", "ok"]
        error = report.cell_errors()[0]
        assert error.attempts == 2  # first run + one retry
        assert error.scenario.name == "marked"

    def test_runner_exception_becomes_error_outcome(self):
        report = GridSession(runner=failing_runner).run([tiny_scenario()])
        error = report.cell_errors()[0]
        assert error.kind == "error" and "boom" in error.message

    def test_strict_facade_raises_on_cell_error(self):
        with pytest.raises(ScenarioError, match="workload='custom'"):
            run_scenarios([tiny_scenario(workload="synthetic")])

    def test_non_strict_facade_returns_cell_errors(self):
        outcomes = run_scenarios([tiny_scenario(workload="synthetic")],
                                 strict=False)
        assert isinstance(outcomes[0], CellError)

    def test_error_rows_persist_and_reload(self, tmp_path):
        path = tmp_path / "errors.jsonl"
        GridSession(sink=JsonlSink(path),
                    runner=failing_runner).run([tiny_scenario()])
        outcomes = JsonlSink.load(path)
        assert isinstance(outcomes[0], CellError)
        assert outcomes[0].kind == "error"

    def test_resumed_run_retries_error_rows(self, tmp_path):
        path = tmp_path / "retry.jsonl"
        GridSession(sink=JsonlSink(path),
                    runner=failing_runner).run([tiny_scenario()])
        report = GridSession(sink=JsonlSink(path), resume=True).run(
            [tiny_scenario()])
        assert report.resumed == 0 and report.executed == 1
        outcomes = JsonlSink.load(path)
        assert isinstance(outcomes[0], ScenarioResult)

    def test_cell_error_round_trips(self):
        error = CellError(tiny_scenario(), "timeout", "too slow", attempts=2)
        assert CellError.from_dict(error.to_dict()) == error


# ----------------------------------------------------------------------
class TestProgressAndReport:
    def test_progress_events_cover_every_cell(self):
        events = []
        grid = tiny_grid()
        GridSession("processes", progress=events.append).run(grid)
        assert len(events) == len(grid)
        assert {e.done for e in events} == set(range(1, len(grid) + 1))
        assert all(e.total == len(grid) and e.ok for e in events)
        assert {e.source for e in events} == {"executed"}

    def test_progress_reports_cache_source(self, tmp_path):
        cache = ScenarioCache(tmp_path)
        GridSession(cache=cache).run([tiny_scenario()])
        events = []
        GridSession(cache=cache, progress=events.append).run([tiny_scenario()])
        assert [e.source for e in events] == ["cache"]

    def test_collect_false_streams_to_sink_only(self, tmp_path):
        path = tmp_path / "stream.jsonl"
        report = GridSession(sink=JsonlSink(path), collect=False).run(tiny_grid())
        assert report.outcomes is None
        with pytest.raises(ScenarioError, match="collect=False"):
            report.results()
        assert len(JsonlSink.load(path)) == report.total


# ----------------------------------------------------------------------
class TestRackCorrelated:
    def topology(self):
        return tiny_recipe().build()

    def params(self):
        # Round-robin over (n0, n1, n2): S[0]->n0, S[1]->n1, A[0]->n2,
        # A[1]->n0, B[0]->n1.
        return {"n0": "rack-a", "n1": "rack-a", "n2": "rack-b"}

    def test_rack_failure_kills_its_tasks(self):
        model = FAILURE_MODELS.get("rack-correlated")
        victims = model(self.topology(), frozenset(), seed=0,
                        placement=self.params(), racks=["rack-b"])
        assert set(victims) == {TaskId("A", 0)}

    def test_whole_rack_with_sources(self):
        model = FAILURE_MODELS.get("rack-correlated")
        victims = model(self.topology(), frozenset(), seed=0,
                        placement=self.params(), rack="rack-a")
        assert set(victims) == {TaskId("S", 0), TaskId("S", 1),
                                TaskId("A", 1), TaskId("B", 0)}

    def test_include_sources_false_spares_sources(self):
        model = FAILURE_MODELS.get("rack-correlated")
        victims = model(self.topology(), frozenset(), seed=0,
                        placement=self.params(), rack="rack-a",
                        include_sources=False)
        assert set(victims) == {TaskId("A", 1), TaskId("B", 0)}

    def test_explicit_assignment_overrides_round_robin(self):
        model = FAILURE_MODELS.get("rack-correlated")
        victims = model(self.topology(), frozenset(), seed=0,
                        placement=self.params(), racks=["rack-b"],
                        assignment={"B[0]": "n2", "A[0]": "n0"})
        assert set(victims) == {TaskId("B", 0)}

    def test_unknown_rack_rejected(self):
        model = FAILURE_MODELS.get("rack-correlated")
        with pytest.raises(ScenarioError, match="unknown rack"):
            model(self.topology(), frozenset(), seed=0,
                  placement=self.params(), rack="rack-z")

    def test_empty_placement_rejected(self):
        model = FAILURE_MODELS.get("rack-correlated")
        with pytest.raises(ScenarioError, match="placement"):
            model(self.topology(), frozenset(), seed=0, placement={},
                  rack="rack-a")

    def test_missing_racks_rejected(self):
        model = FAILURE_MODELS.get("rack-correlated")
        with pytest.raises(ScenarioError, match="racks"):
            model(self.topology(), frozenset(), seed=0,
                  placement=self.params())

    def test_underscore_alias_registered(self):
        assert "rack_correlated" in FAILURE_MODELS
        assert (FAILURE_MODELS.get("rack_correlated")
                is FAILURE_MODELS.get("rack-correlated"))

    def test_end_to_end_scenario_run(self):
        result = run_scenario(tiny_scenario(failures=(
            FailureSpec("rack-correlated", at=8.0,
                        params={"placement": self.params(),
                                "racks": ["rack-b"]}),
        )))
        assert result.failed_tasks == (TaskId("A", 0),)
        assert result.all_recovered


# ----------------------------------------------------------------------
class TestCacheEviction:
    def _fill(self, cache, n, start=0):
        digests = []
        for i in range(start, start + n):
            result = run_scenario(tiny_scenario(budget=i % 3, seed=i,
                                                duration=8.0))
            digest = scenario_digest(result.scenario)
            cache.put(digest, result)
            digests.append(digest)
        return digests

    def test_put_prunes_to_max_entries(self, tmp_path):
        cache = ScenarioCache(tmp_path, max_entries=3)
        digests = self._fill(cache, 5)
        assert len(cache) == 3
        assert cache.evictions == 2
        # The survivors are the most recently written entries.
        for digest in digests[-3:]:
            assert digest in cache

    def test_get_touches_entry_so_hits_survive_pruning(self, tmp_path):
        cache = ScenarioCache(tmp_path)
        digests = self._fill(cache, 4)
        # Age the entries explicitly (mtime granularity is too coarse to
        # rely on write order), oldest first.
        for age, digest in enumerate(digests):
            os.utime(cache.path_for(digest), (1_000_000 + age,
                                              1_000_000 + age))
        assert cache.get(digests[0]) is not None  # LRU touch: now youngest
        removed = cache.prune(2)
        assert removed == 2
        assert digests[0] in cache and digests[3] in cache
        assert digests[1] not in cache and digests[2] not in cache

    def test_prune_noop_when_unlimited_or_within_bounds(self, tmp_path):
        cache = ScenarioCache(tmp_path)
        self._fill(cache, 2)
        assert cache.prune() == 0          # no limit configured
        assert cache.prune(10) == 0        # within bounds
        assert len(cache) == 2

    def test_prune_validates_limit(self, tmp_path):
        cache = ScenarioCache(tmp_path)
        with pytest.raises(ScenarioError, match="max_entries"):
            cache.prune(0)
        with pytest.raises(ScenarioError, match="max_entries"):
            ScenarioCache(tmp_path, max_entries=0)

    def test_stats_reports_entries_and_bytes(self, tmp_path):
        cache = ScenarioCache(tmp_path)
        assert cache.stats().entries == 0
        self._fill(cache, 2)
        stats = cache.stats()
        assert stats.entries == 2
        assert stats.total_bytes > 0
        assert stats.oldest_used is not None
        assert "entries:     2" in stats.render()

    def test_bounded_cache_still_serves_grid_hits(self, tmp_path):
        cache = ScenarioCache(tmp_path, max_entries=8)
        scenarios = [tiny_scenario(budget=b, duration=8.0) for b in (0, 1, 2)]
        first = run_scenarios(scenarios, cache=cache)
        again = run_scenarios(scenarios, cache=cache)
        assert [r.to_dict() for r in again] == [r.to_dict() for r in first]
        assert cache.hits >= 3


# ----------------------------------------------------------------------
class TestRetriesSurfacing:
    """Worker-death retries flow through events and the report."""

    def test_worker_death_retry_counts_in_report_and_events(self):
        events = []
        cells = [tiny_scenario(name="ok-cell", seed=1),
                 tiny_scenario(name="marked", seed=MARKED_SEED)]
        report = GridSession(ProcessBackend(max_workers=1), retries=1,
                             runner=killer_runner,
                             progress=events.append).run(cells)
        assert report.retries == 1  # one restart before giving up
        by_name = {e.scenario.name: e for e in events}
        assert by_name["marked"].retries == 1
        assert not by_name["marked"].ok
        assert by_name["ok-cell"].retries == 0
        assert "1 retries" in by_name["marked"].render()
        assert "retries" not in by_name["ok-cell"].render()

    def test_duplicates_report_the_representative_retry_count(self):
        events = []
        cells = [tiny_scenario(name="twin-a", seed=MARKED_SEED),
                 tiny_scenario(name="twin-b", seed=MARKED_SEED)]
        report = GridSession(ProcessBackend(max_workers=1), retries=1,
                             runner=killer_runner,
                             progress=events.append).run(cells)
        # Charged once in the report, surfaced on every duplicate's event.
        assert report.retries == 1
        assert report.deduped == 1 and report.executed == 1
        assert [e.retries for e in events] == [1, 1]

    def test_clean_run_reports_zero_retries(self):
        report = GridSession().run([tiny_scenario()])
        assert report.retries == 0


# ----------------------------------------------------------------------
class TestCacheConcurrency:
    """The shared cache under concurrent readers, writers and pruners."""

    def test_concurrent_put_get_prune_never_corrupts(self, tmp_path):
        import threading

        cache = ScenarioCache(tmp_path)
        result = run_scenario(tiny_scenario(duration=8.0))
        digests = [scenario_digest(tiny_scenario(seed=i)) for i in range(24)]
        failures = []

        def writer(offset):
            try:
                for turn in range(3):
                    for digest in digests[offset:] + digests[:offset]:
                        cache.put(digest, result)
            except Exception as exc:  # pragma: no cover - the assertion
                failures.append(exc)

        def reader():
            try:
                for _turn in range(60):
                    for digest in digests:
                        hit = cache.get(digest)
                        assert hit is None or isinstance(hit, ScenarioResult)
            except Exception as exc:  # pragma: no cover - the assertion
                failures.append(exc)

        def pruner():
            try:
                for _turn in range(20):
                    cache.prune(8)
            except Exception as exc:  # pragma: no cover - the assertion
                failures.append(exc)

        threads = [threading.Thread(target=writer, args=(i * 6,))
                   for i in range(3)]
        threads += [threading.Thread(target=reader) for _ in range(2)]
        threads.append(threading.Thread(target=pruner))
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120.0)
            assert not thread.is_alive()
        assert failures == []
        # Whatever survived on disk is a complete, parseable document.
        for path in tmp_path.glob("*.json"):
            ScenarioResult.from_dict(json.loads(path.read_text()))
        assert not list(tmp_path.glob("*.tmp"))

    def test_prune_sweeps_abandoned_tmp_but_spares_fresh_ones(self, tmp_path):
        cache = ScenarioCache(tmp_path)
        stale = tmp_path / "dead-writer.tmp"
        stale.write_text("half a docum")
        os.utime(stale, (1_000_000, 1_000_000))
        fresh = tmp_path / "live-writer.tmp"
        fresh.write_text("still being writt")
        assert cache.prune(1) == 0
        assert not stale.exists()       # abandoned: swept
        assert fresh.exists()           # younger than the grace period
        assert cache.clear() == 0       # clear() sweeps too, spares fresh
        assert fresh.exists()

    def test_put_recreates_a_deleted_directory(self, tmp_path):
        import shutil

        cache = ScenarioCache(tmp_path / "cache")
        result = run_scenario(tiny_scenario(duration=8.0))
        digest = scenario_digest(tiny_scenario())
        shutil.rmtree(tmp_path / "cache")
        cache.put(digest, result)
        assert digest in cache
        assert cache.get(digest) is not None
