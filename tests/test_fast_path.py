"""Data-plane fast-path guarantees: routing parity, physical trimming, profile.

The fast path (table-driven routing, physically trimmed output buffers,
memoized source batches, slimmed event queue) must be *invisible* in every
measured metric.  These tests pin that down:

* the table-driven ``Router.distribute`` matches the per-tuple reference
  implementation on randomized topologies across all four partitioning
  patterns;
* physically trimming output history does not change recovery
  classification, latencies, CPU accounting or sink output — byte-for-byte
  against a run with trimming disabled;
* trimmed source batches are regenerated exactly; trimmed non-source
  batches fail loudly instead of replaying wrong data;
* a source batch on a single-destination edge is one lazy
  :class:`~repro.engine.tuples.KeyCycleRun` from the source memo through
  history and inbox into the operator's window;
* long runs keep bounded physical history, and the engine-throughput
  profile reaches :class:`ScenarioResult` and survives JSON round-trips.
"""

from __future__ import annotations

import random

import pytest

from repro.engine import EngineConfig, KeyCycleRun, Router, StreamEngine
from repro.engine.config import PassiveStrategy
from repro.engine.logic import MemoizedSource
from repro.errors import ScenarioError, SimulationError
from repro.scenarios import Scenario, run_scenario
from repro.topology import Partitioning, TaskId, TopologyBuilder
from repro.topology.operators import OperatorKind, OperatorSpec
from repro.topology.graph import StreamEdge, Topology
from repro.workloads import UniformRateSource
from repro.workloads.bundles import fig6_bundle

from tests.engine_helpers import build_engine, metrics_fingerprint

# ---------------------------------------------------------------------------
# Router: table-driven fast path == per-tuple reference
# ---------------------------------------------------------------------------

def _legal_parallelisms(rng: random.Random, pattern: Partitioning) -> tuple[int, int]:
    if pattern is Partitioning.ONE_TO_ONE:
        n = rng.randint(1, 6)
        return n, n
    if pattern is Partitioning.SPLIT:
        n_up = rng.randint(1, 4)
        return n_up, n_up + rng.randint(1, 6)
    if pattern is Partitioning.MERGE:
        n_down = rng.randint(1, 4)
        return n_down + rng.randint(1, 6), n_down
    return rng.randint(1, 6), rng.randint(1, 6)


def _random_two_op_topology(rng: random.Random, pattern: Partitioning) -> Topology:
    n_up, n_down = _legal_parallelisms(rng, pattern)
    return Topology(
        [OperatorSpec("U", n_up, OperatorKind.SOURCE),
         OperatorSpec("D", n_down, OperatorKind.INDEPENDENT)],
        [StreamEdge("U", "D", pattern)],
    )


class TestRouterParity:
    """Property-style: distribute == distribute_reference on random inputs."""

    @pytest.mark.parametrize("pattern", list(Partitioning))
    @pytest.mark.parametrize("seed", range(8))
    def test_single_edge_parity(self, pattern, seed):
        rng = random.Random(hash((pattern.value, seed)) & 0xFFFFFFFF)
        topology = _random_two_op_topology(rng, pattern)
        router = Router(topology)
        keys = [f"key-{rng.randint(0, 40)}" for _ in range(rng.randint(0, 120))]
        tuples = [(k, i) for i, k in enumerate(keys)]
        for src in topology.tasks_of("U"):
            fast = router.distribute(src, list(tuples))
            reference = router.distribute_reference(src, list(tuples))
            assert fast == reference

    @pytest.mark.parametrize("seed", range(6))
    def test_random_dag_parity(self, seed):
        """A random multi-operator DAG: every task's fan-out matches."""
        rng = random.Random(1000 + seed)
        builder = TopologyBuilder().source("S", rng.randint(1, 3))
        names = ["S"]
        for pos in range(rng.randint(1, 3)):
            name = f"O{pos}"
            builder.operator(name, rng.randint(1, 5))
            # Connect to every previous operator where FULL is always legal.
            builder.connect(names[-1], name, Partitioning.FULL)
            if len(names) > 1 and rng.random() < 0.5:
                builder.connect(names[-2], name, Partitioning.FULL)
            names.append(name)
        topology = builder.build()
        router = Router(topology)
        tuples = [(f"k{rng.randint(0, 30)}", i) for i in range(80)]
        for task in topology.tasks():
            assert (router.distribute(task, list(tuples))
                    == router.distribute_reference(task, list(tuples)))

    @pytest.mark.parametrize("pattern", [Partitioning.SPLIT, Partitioning.FULL])
    @pytest.mark.parametrize("seed", range(4))
    def test_source_run_parity(self, pattern, seed):
        """A lazy source batch routes exactly like the reference says."""
        rng = random.Random(500 + seed)
        topology = _random_two_op_topology(rng, pattern)
        router = Router(topology)
        source = UniformRateSource(rng.randint(0, 90),
                                   key_space=rng.randint(1, 20))
        for src in topology.tasks_of("U"):
            run = source.tuples_for_batch(src, rng.randint(0, 50))
            assert type(run) is KeyCycleRun
            assert (router.distribute(src, run)
                    == router.distribute_reference(src, run))

    def test_repeated_keys_hit_the_memo_table(self):
        topology = _random_two_op_topology(random.Random(7), Partitioning.FULL)
        router = Router(topology)
        src = topology.tasks_of("U")[0]
        first = router.distribute(src, [("hot", 1)])
        second = router.distribute(src, [("hot", 2)])
        (dst_a,) = [d for d, t in first.items() if t]
        (dst_b,) = [d for d, t in second.items() if t]
        assert dst_a == dst_b
        # The memo table is per full-edge and now knows the key.
        plan = router._plans[src][0]
        assert "hot" in plan.key_table


# ---------------------------------------------------------------------------
# Physical trimming: byte-identical metrics, bounded memory, loud failures
# ---------------------------------------------------------------------------

_TRIM_SCENARIOS = {
    "checkpoint": EngineConfig(checkpoint_interval=4.0, heartbeat_interval=2.0),
    "storm": EngineConfig(checkpoint_interval=None, heartbeat_interval=2.0,
                          passive_strategy=PassiveStrategy.SOURCE_REPLAY),
}


def _run_failure_engine(config: EngineConfig, *, retention: int | None = None,
                        plan=()) -> StreamEngine:
    engine = build_engine(config, plan=plan, rate=40.0, window=6.0)
    if retention is not None:
        engine._retention_batches = retention
    engine.schedule_task_failure(12.0, [TaskId("L0", 0)])
    engine.run(24.0)
    return engine


class TestPhysicalTrimParity:
    @pytest.mark.parametrize("mode", sorted(_TRIM_SCENARIOS))
    def test_pruned_replay_classification_unchanged(self, mode):
        """Trimming on vs off: recovery records and metrics byte-identical."""
        config = _TRIM_SCENARIOS[mode]
        trimmed = _run_failure_engine(config)
        retained = _run_failure_engine(config, retention=10_000_000)
        assert (metrics_fingerprint(trimmed.metrics)
                == metrics_fingerprint(retained.metrics))
        # The retained run really kept everything; the trimmed one did not.
        floors = [rt.history_floor for rt in trimmed.runtimes.values()]
        assert max(floors) > 0
        assert all(rt.history_floor == 0 for rt in retained.runtimes.values())

    def test_replay_modes_still_classified(self):
        trimmed = _run_failure_engine(_TRIM_SCENARIOS["storm"])
        assert [r.mode.value for r in trimmed.metrics.recoveries] == ["source-replay"]
        assert trimmed.all_recovered()

    def test_bounded_history_on_long_run(self):
        engine = build_engine(EngineConfig(checkpoint_interval=5.0),
                              rate=20.0, window=5.0)
        engine.run(120.0)
        assert engine.metrics.batches_processed >= 300
        # 120 emitted batches per task, but only the replay window is held.
        assert 0 < engine.metrics.peak_history_batches <= 40

    def test_trimmed_source_batch_regenerates_exactly(self):
        engine = build_engine(EngineConfig(checkpoint_interval=None),
                              rate=20.0, window=5.0)
        engine.run(20.0)
        src = engine.runtime(TaskId("S", 0))
        dst = TaskId("L0", 0)
        original = src.history[5][dst]
        src.trim_history(10)
        regenerated = engine._replay_batch(src, dst, 5)
        assert regenerated == original

    def test_trimmed_non_source_batch_raises(self):
        engine = build_engine(EngineConfig(checkpoint_interval=None),
                              rate=20.0, window=5.0)
        engine.run(20.0)
        mid = engine.runtime(TaskId("L0", 0))
        assert mid.history, "mid-topology task should have emitted output"
        mid.trim_history(max(mid.history))
        with pytest.raises(SimulationError, match="physically trimmed"):
            engine._replay_batch(mid, TaskId("L1", 0), max(mid.output_sizes))


class TestMemoizedSource:
    def test_batches_are_cached_and_pure(self):
        inner = UniformRateSource(10.0, key_space=4)
        task = TaskId("S", 0)
        memo = MemoizedSource(inner, task, capacity=4)
        first = memo.tuples_for_batch(task, 3)
        assert memo.tuples_for_batch(task, 3) is first
        assert first == inner.tuples_for_batch(task, 3)

    def test_capacity_evicts_oldest(self):
        memo = MemoizedSource(UniformRateSource(10.0), TaskId("S", 0), capacity=2)
        task = TaskId("S", 0)
        for index in range(4):
            memo.tuples_for_batch(task, index)
        assert sorted(memo._batches) == [2, 3]

    def test_rejects_bad_capacity(self):
        with pytest.raises(ValueError):
            MemoizedSource(UniformRateSource(10.0), TaskId("S", 0), capacity=0)


class TestSourceRunZeroCopy:
    def test_one_run_from_memo_to_window_on_the_fig6_merge_edge(self):
        """Memo, source history, O1 inbox and O1 window share one run."""
        bundle = fig6_bundle(200.0, 6.0, tuple_scale=8.0)
        engine = StreamEngine(bundle.topology, bundle.make_logic(),
                              EngineConfig(checkpoint_interval=None))
        src, o1 = TaskId("S", 0), TaskId("O1", 0)
        receiver = engine.runtime(o1)
        delivered = []
        inbox_put = receiver.inbox_put

        def recording_put(batch):
            delivered.append(batch)
            return inbox_put(batch)

        receiver.inbox_put = recording_put
        engine.run(4.0)
        index = 2
        source = engine.runtime(src)
        run = source.source_fn.tuples_for_batch(src, index)
        assert type(run) is KeyCycleRun and len(run) == 25
        assert source.history[index][o1].tuples is run
        (inbox,) = [b for b in delivered if b.src == src and b.index == index]
        assert inbox.tuples is run
        blocks = [items for _ts, items in receiver.logic.window._blocks]
        assert sum(items is run for items in blocks) == 1


# ---------------------------------------------------------------------------
# Profile plumbing: MetricsCollector -> ScenarioResult -> JSON
# ---------------------------------------------------------------------------

_PROFILE_SCENARIO = {
    "workload": "synthetic",
    "workload_params": {"rate_per_source": 200.0, "window_seconds": 5.0,
                        "tuple_scale": 4.0},
    "planner": "none",
    "duration": 8.0,
}


class TestProfilePlumbing:
    def test_engine_metrics_carry_profile(self):
        engine = build_engine(EngineConfig(), rate=20.0, window=5.0)
        engine.run(10.0)
        profile = engine.metrics.profile()
        assert profile["processed_events"] == engine.sim.processed_events > 0
        assert profile["simulated_seconds"] >= 10.0
        assert profile["wall_seconds"] > 0
        assert profile["sim_seconds_per_wall_second"] > 0
        assert profile["peak_history_batches"] > 0

    def test_scenario_result_profile_is_opt_in(self):
        scenario = Scenario.from_dict(dict(_PROFILE_SCENARIO))
        plain = run_scenario(scenario)
        assert plain.profile is None
        assert "profile" not in plain.to_dict()
        profiled = run_scenario(scenario, profile=True)
        assert profiled.profile is not None
        assert profiled.to_dict()["profile"]["processed_events"] > 0

    def test_profile_round_trips_and_old_documents_load(self):
        from repro.scenarios import ScenarioResult

        profiled = run_scenario(Scenario.from_dict(dict(_PROFILE_SCENARIO)),
                                profile=True)
        rebuilt = ScenarioResult.from_dict(profiled.to_dict())
        assert rebuilt.profile == profiled.profile
        legacy = profiled.to_dict()
        del legacy["profile"]
        assert ScenarioResult.from_dict(legacy).profile is None

    def test_malformed_profile_rejected(self):
        from repro.scenarios import ScenarioResult

        data = run_scenario(Scenario.from_dict(dict(_PROFILE_SCENARIO))).to_dict()
        data["profile"] = "not-an-object"
        with pytest.raises(ScenarioError, match="profile"):
            ScenarioResult.from_dict(data)
