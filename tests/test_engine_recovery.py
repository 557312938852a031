"""Passive recovery: checkpoint restore, replay, synchronisation, equivalence.

The strongest test here is *output equivalence*: with deterministic sources
and logic, a run that fails and recovers a task must eventually produce
exactly the same sink output as a failure-free run (no tentative mode, so
nothing is skipped — the batch protocol just stalls and catches up).
"""

import pytest

from repro.engine import (
    EngineConfig,
    RecoveryMode,
    TaskStatus,
)
from repro.topology import TaskId

from tests.engine_helpers import build_engine, sink_outputs


def _run_pair(config, victims, fail_time=12.0, duration=20.0, **kwargs):
    baseline = build_engine(config, **kwargs)
    baseline.run(duration)
    failed = build_engine(config, **kwargs)
    failed.schedule_task_failure(fail_time, victims)
    failed.run(duration)
    return baseline, failed


class TestSingleFailureCheckpoint:
    CONFIG = EngineConfig(checkpoint_interval=4.0, heartbeat_interval=2.0)

    def test_recovery_record_created(self):
        _b, failed = _run_pair(self.CONFIG, [TaskId("L0", 1)])
        records = failed.metrics.recoveries
        assert len(records) == 1
        assert records[0].mode is RecoveryMode.CHECKPOINT
        assert records[0].task == TaskId("L0", 1)

    def test_detection_happens_at_next_heartbeat(self):
        _b, failed = _run_pair(self.CONFIG, [TaskId("L0", 1)])
        record = failed.metrics.recoveries[0]
        assert record.fail_time == 12.0
        assert 12.0 <= record.detect_time <= 12.0 + 2.0

    def test_recovery_completes_with_positive_latency(self):
        _b, failed = _run_pair(self.CONFIG, [TaskId("L0", 1)])
        record = failed.metrics.recoveries[0]
        assert record.recovered_time is not None
        assert record.latency > 0.0

    def test_task_running_again_after_recovery(self):
        _b, failed = _run_pair(self.CONFIG, [TaskId("L0", 1)])
        assert failed.runtime(TaskId("L0", 1)).status is TaskStatus.RUNNING

    def test_sink_output_equals_failure_free_run(self):
        baseline, failed = _run_pair(self.CONFIG, [TaskId("L0", 1)])
        assert sink_outputs(failed) == sink_outputs(baseline)

    def test_source_failure_recovers_and_backfills(self):
        baseline, failed = _run_pair(self.CONFIG, [TaskId("S", 0)])
        assert sink_outputs(failed) == sink_outputs(baseline)
        assert failed.all_recovered()

    def test_sink_failure_recovers(self):
        baseline, failed = _run_pair(self.CONFIG, [TaskId("L1", 0)])
        outs_b, outs_f = sink_outputs(baseline), sink_outputs(failed)
        # Batches the sink never saw while dead are replayed afterwards.
        assert outs_f == outs_b

    def test_progress_vector_catches_up_to_pre_failure(self):
        _b, failed = _run_pair(self.CONFIG, [TaskId("L0", 1)])
        rt = failed.runtime(TaskId("L0", 1))
        assert rt.caught_up()


class TestCorrelatedFailureCheckpoint:
    CONFIG = EngineConfig(checkpoint_interval=4.0, heartbeat_interval=2.0)

    def test_all_tasks_recover(self):
        victims = [TaskId("L0", 0), TaskId("L0", 1), TaskId("L1", 0)]
        _b, failed = _run_pair(self.CONFIG, victims, duration=25.0)
        assert failed.all_recovered()
        assert len(failed.metrics.recoveries) == 3

    def test_output_equivalence_despite_synchronisation(self):
        victims = [TaskId("L0", 0), TaskId("L0", 1), TaskId("L1", 0)]
        baseline, failed = _run_pair(self.CONFIG, victims, duration=25.0)
        assert sink_outputs(failed) == sink_outputs(baseline)

    def test_correlated_slower_than_single(self):
        victims_all = [TaskId("L0", 0), TaskId("L0", 1), TaskId("L1", 0)]
        _b, correlated = _run_pair(self.CONFIG, victims_all, duration=30.0)
        _b2, single = _run_pair(self.CONFIG, [TaskId("L0", 0)], duration=30.0)
        assert (
            correlated.metrics.max_recovery_latency()
            >= single.metrics.max_recovery_latency()
        )


class TestRecoveryDisabled:
    def test_task_stays_failed(self):
        config = EngineConfig(checkpoint_interval=4.0, heartbeat_interval=2.0,
                              recovery_enabled=False)
        failed = build_engine(config)
        failed.schedule_task_failure(6.0, [TaskId("L0", 1)])
        failed.run(12.0)
        assert failed.runtime(TaskId("L0", 1)).status is TaskStatus.FAILED
        record = failed.metrics.recoveries[0]
        assert record.recovered_time is None
        assert record.latency is None


class TestStormSourceReplay:
    CONFIG = EngineConfig(checkpoint_interval=None, heartbeat_interval=2.0,
                          recovery_scheme="source-replay")

    def test_recovery_mode_recorded(self):
        _b, failed = _run_pair(self.CONFIG, [TaskId("L0", 1)], window=6.0)
        assert failed.metrics.recoveries[0].mode is RecoveryMode.SOURCE_REPLAY

    def test_recovers_by_reprocessing_window(self):
        _b, failed = _run_pair(self.CONFIG, [TaskId("L0", 1)], window=6.0)
        assert failed.all_recovered()
        rt = failed.runtime(TaskId("L0", 1))
        assert rt.status is TaskStatus.RUNNING

    def test_replay_charges_cpu_on_upstream_chain(self):
        _b, failed = _run_pair(self.CONFIG, [TaskId("L1", 0)], window=6.0)
        # L1's inputs were trimmed (storm acks), so L0 recomputed them.
        replay = sum(
            failed.metrics.cpu_of(TaskId("L0", i)).replay for i in range(2)
        )
        assert replay > 0.0

    def test_longer_window_recovers_slower(self):
        _b, short = _run_pair(self.CONFIG, [TaskId("L1", 0)], window=4.0,
                              duration=24.0)
        _b2, long = _run_pair(self.CONFIG, [TaskId("L1", 0)], window=12.0,
                              duration=24.0)
        assert (
            long.metrics.max_recovery_latency()
            > short.metrics.max_recovery_latency()
        )
