"""Engine edge cases: early failures, repeated failures, odd configurations."""

import pytest

from repro.engine import Cluster, EngineConfig, StreamEngine, TaskStatus
from repro.errors import SimulationError
from repro.topology import TaskId

from tests.engine_helpers import build_engine, sink_outputs, small_logic, small_topology


class TestEarlyFailure:
    def test_failure_before_first_checkpoint_cold_restarts(self):
        config = EngineConfig(checkpoint_interval=30.0, heartbeat_interval=2.0)
        baseline = build_engine(config)
        baseline.run(20.0)
        failed = build_engine(config)
        failed.schedule_task_failure(3.0, [TaskId("L0", 1)])
        failed.run(20.0)
        assert failed.all_recovered()
        assert sink_outputs(failed) == sink_outputs(baseline)

    def test_failure_at_time_zero_batch(self):
        config = EngineConfig(checkpoint_interval=10.0, heartbeat_interval=2.0)
        engine = build_engine(config)
        engine.schedule_task_failure(0.5, [TaskId("L0", 0)])
        engine.run(15.0)
        assert engine.all_recovered()


class TestRepeatedFailures:
    def test_second_failure_of_same_node_is_noop(self):
        config = EngineConfig(checkpoint_interval=4.0, heartbeat_interval=2.0)
        engine = build_engine(config)
        names = engine.cluster.nodes_hosting([TaskId("L0", 1)])
        engine.schedule_node_failure(6.0, names)
        engine.schedule_node_failure(6.5, names)
        engine.run(18.0)
        assert len(engine.metrics.recoveries) == 1

    def test_sequential_failures_of_different_tasks(self):
        config = EngineConfig(checkpoint_interval=4.0, heartbeat_interval=2.0)
        baseline = build_engine(config)
        baseline.run(30.0)
        engine = build_engine(config)
        engine.schedule_task_failure(6.0, [TaskId("L0", 0)])
        engine.schedule_task_failure(14.0, [TaskId("L0", 1)])
        engine.run(30.0)
        assert len(engine.metrics.recoveries) == 2
        assert engine.all_recovered()
        assert sink_outputs(engine) == sink_outputs(baseline)


class TestClusterVariants:
    def test_multiple_tasks_per_node_fail_together(self):
        topology = small_topology()
        cluster = Cluster(n_workers=2, n_standby=2)
        cluster.place_round_robin(topology)
        config = EngineConfig(checkpoint_interval=4.0, heartbeat_interval=2.0)
        engine = StreamEngine(topology, small_logic(), config, cluster=cluster)
        engine.schedule_node_failure(8.0, ["worker-0"])
        engine.run(25.0)
        # worker-0 hosts several tasks under 2-node placement.
        assert len(engine.metrics.recoveries) >= 2
        assert engine.all_recovered()

    def test_default_cluster_isolates_tasks(self):
        engine = build_engine(EngineConfig(checkpoint_interval=None))
        assert len(engine.cluster.workers) == engine.topology.num_tasks


class TestRunSemantics:
    def test_settle_false_leaves_recovery_pending(self):
        config = EngineConfig(checkpoint_interval=4.0, heartbeat_interval=2.0)
        engine = build_engine(config)
        engine.schedule_task_failure(9.5, [TaskId("L0", 1)])
        engine.run(10.0, settle=False)
        assert not engine.all_recovered() or not engine.metrics.recoveries

    def test_failure_after_end_time_is_not_processed(self):
        config = EngineConfig(checkpoint_interval=4.0, heartbeat_interval=2.0)
        engine = build_engine(config)
        engine.schedule_task_failure(50.0, [TaskId("L0", 1)])
        engine.run(10.0, settle=False)
        assert engine.runtime(TaskId("L0", 1)).status is TaskStatus.RUNNING

    def test_zero_duration_run_is_empty_but_valid(self):
        engine = build_engine(EngineConfig(checkpoint_interval=None))
        metrics = engine.run(0.0)
        assert metrics.batches_processed == 0

    @pytest.mark.parametrize("duration", [float("nan"), float("inf"),
                                          float("-inf"), -1.0])
    def test_bad_duration_rejected_at_once(self, duration):
        """Regression: ``run(nan)`` never returned, and ``run(inf)`` failed
        later with an unrelated event-time error."""
        engine = build_engine(EngineConfig(checkpoint_interval=4.0))
        with pytest.raises(SimulationError,
                           match=f"duration must be >= 0 and finite, "
                                 f"got {duration!r}"):
            engine.run(duration)
        assert engine.sim.processed_events == 0
        engine.run(2.0)  # the rejected call did not use up the run
        assert engine.metrics.batches_processed > 0


class TestSelectivityPipelines:
    def test_low_selectivity_still_emits_punctuations(self):
        # With selectivity 0.1 many batches are empty, but the protocol must
        # keep batch indices flowing to the sink.
        engine = build_engine(EngineConfig(checkpoint_interval=None),
                              selectivity=0.1)
        engine.run(10.0)
        outs = sink_outputs(engine)
        assert sorted(outs) == list(range(10))
