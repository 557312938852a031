"""Engine basics: batch protocol, punctuations, determinism, accounting."""

import pytest

from repro.engine import EngineConfig, StreamEngine, TaskStatus
from repro.errors import SimulationError
from repro.topology import TaskId

from tests.engine_helpers import build_engine, sink_outputs, small_logic, small_topology


class TestBatchProtocol:
    def test_processes_one_batch_per_interval(self):
        engine = build_engine(EngineConfig(checkpoint_interval=None))
        engine.run(10.0)
        outs = sink_outputs(engine)
        assert sorted(outs) == list(range(10))

    def test_sink_receives_all_tuples_with_selectivity_one(self):
        engine = build_engine(EngineConfig(checkpoint_interval=None), rate=20.0)
        engine.run(10.0)
        total = sum(len(t) for t in sink_outputs(engine).values())
        assert total == 2 * 20 * 10  # 2 sources x 20 t/s x 10 s

    def test_batches_wait_for_all_upstream_punctuations(self):
        engine = build_engine(EngineConfig(checkpoint_interval=None))
        engine.run(5.0)
        sink = engine.runtime(TaskId("L1", 0))
        # Progress per upstream task is aligned: same last batch everywhere.
        assert len(set(sink.progress.values())) == 1

    def test_progress_vector_tracks_batches(self):
        engine = build_engine(EngineConfig(checkpoint_interval=None))
        engine.run(8.0)
        sink = engine.runtime(TaskId("L1", 0))
        assert all(v >= 6 for v in sink.progress.values())

    def test_all_outputs_complete_without_failures(self):
        engine = build_engine(EngineConfig(checkpoint_interval=None))
        engine.run(6.0)
        assert all(r.complete for r in engine.metrics.sink_records)

    def test_engine_runs_exactly_once(self):
        engine = build_engine(EngineConfig(checkpoint_interval=None))
        engine.run(2.0)
        with pytest.raises(SimulationError):
            engine.run(2.0)

    def test_unknown_plan_task_rejected(self):
        topo = small_topology()
        with pytest.raises(SimulationError):
            StreamEngine(topo, small_logic(), EngineConfig(),
                         plan=[TaskId("Z", 0)])


class TestConfigValidation:
    @pytest.mark.parametrize("value", [0.0, -1.0, float("nan"), float("inf")],
                             ids=["zero", "negative", "nan", "inf"])
    @pytest.mark.parametrize("name", ["batch_interval", "heartbeat_interval",
                                      "checkpoint_interval", "sync_interval"])
    def test_interval_must_be_positive_and_finite(self, name, value):
        # NaN passes a `<= 0` check and later dies converting to int.
        with pytest.raises(SimulationError, match=name):
            EngineConfig(**{name: value})


class TestDeterminism:
    def test_two_runs_produce_identical_sink_output(self):
        a = build_engine(EngineConfig(checkpoint_interval=5.0))
        b = build_engine(EngineConfig(checkpoint_interval=5.0))
        a.run(12.0)
        b.run(12.0)
        assert sink_outputs(a) == sink_outputs(b)

    def test_selectivity_filters_deterministically(self):
        a = build_engine(EngineConfig(checkpoint_interval=None), selectivity=0.5)
        b = build_engine(EngineConfig(checkpoint_interval=None), selectivity=0.5)
        a.run(6.0)
        b.run(6.0)
        assert sink_outputs(a) == sink_outputs(b)
        total = sum(len(t) for t in sink_outputs(a).values())
        assert 0 < total < 2 * 20 * 6  # roughly half survives two operators


class TestAccounting:
    def test_cpu_time_recorded_for_processing(self):
        engine = build_engine(EngineConfig(checkpoint_interval=None))
        engine.run(6.0)
        cpu = engine.metrics.cpu_of(TaskId("L1", 0))
        assert cpu.process > 0.0
        assert cpu.checkpoint == 0.0

    def test_tuples_processed_counted(self):
        engine = build_engine(EngineConfig(checkpoint_interval=None))
        engine.run(4.0)
        assert engine.metrics.tuples_processed > 0

    def test_all_tasks_running_after_clean_run(self):
        engine = build_engine(EngineConfig(checkpoint_interval=None))
        engine.run(4.0)
        assert all(
            rt.status is TaskStatus.RUNNING for rt in engine.runtimes.values()
        )

    def test_busy_until_advances(self):
        engine = build_engine(EngineConfig(checkpoint_interval=None))
        engine.run(4.0)
        assert engine.runtime(TaskId("L0", 0)).busy_until > 0.0


class TestCheckpointing:
    def test_checkpoints_taken_periodically(self):
        engine = build_engine(EngineConfig(checkpoint_interval=3.0,
                                           stagger_checkpoints=False))
        engine.run(12.0)
        assert engine.metrics.checkpoints_taken > 0
        ckpt = engine.checkpoints.latest(TaskId("L1", 0))
        assert ckpt is not None
        assert ckpt.batch_index >= 8

    def test_no_checkpoints_when_disabled(self):
        engine = build_engine(EngineConfig(checkpoint_interval=None))
        engine.run(8.0)
        assert engine.metrics.checkpoints_taken == 0

    def test_checkpoint_charges_cpu(self):
        engine = build_engine(EngineConfig(checkpoint_interval=2.0))
        engine.run(10.0)
        assert engine.metrics.cpu_of(TaskId("L0", 0)).checkpoint > 0.0

    def test_trim_follows_checkpoint(self):
        engine = build_engine(EngineConfig(checkpoint_interval=2.0,
                                           stagger_checkpoints=False))
        engine.run(10.0)
        source = engine.runtime(TaskId("S", 0))
        assert source.trimmed_upto >= 0
        # The trim point never exceeds any subscriber's acknowledgement.
        assert source.trimmed_upto <= min(source.acked.values())

    def test_stagger_spreads_checkpoint_phases(self):
        engine = build_engine(EngineConfig(checkpoint_interval=4.0,
                                           stagger_checkpoints=True))
        phases = {rt.checkpoint_phase for rt in engine.runtimes.values()}
        assert len(phases) > 1
