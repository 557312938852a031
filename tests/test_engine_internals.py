"""Unit tests for engine internals: runtimes, checkpoints store, metrics."""

import copy
import pickle

import pytest

from repro.engine import (
    Batch,
    Checkpoint,
    CheckpointStore,
    CostModel,
    EngineConfig,
    KeyCycleRun,
    LogicFactory,
    MetricsCollector,
    RecoveryMode,
    SinkRecord,
    forged_batch,
)
from repro.engine.tasks import TaskRuntime, TaskStatus
from repro.errors import SimulationError
from repro.topology import TaskId

T = TaskId("A", 0)
UP = TaskId("S", 0)
UP2 = TaskId("S", 1)


def _runtime(upstreams=(UP, UP2), replicated=False):
    return TaskRuntime(
        T, is_source=False, is_sink=False,
        expected_upstreams=tuple(upstreams), replicated=replicated,
    )


class TestTaskRuntime:
    def test_inbox_requires_all_upstreams(self):
        rt = _runtime()
        assert not rt.inbox_ready(0)
        rt.inbox_put(Batch(UP, T, 0, (("k", 1),)))
        assert not rt.inbox_ready(0)
        rt.inbox_put(Batch(UP2, T, 0, ()))
        assert rt.inbox_ready(0)

    def test_stale_batches_rejected(self):
        rt = _runtime()
        rt.next_batch = 5
        assert not rt.inbox_put(Batch(UP, T, 4, ()))

    def test_real_batch_replaces_forged(self):
        rt = _runtime()
        assert rt.inbox_put(forged_batch(UP, T, 0))
        assert rt.inbox_put(Batch(UP, T, 0, (("k", 1),)))
        assert not rt.inbox[0][UP].forged

    def test_forged_never_overwrites_real(self):
        rt = _runtime()
        rt.inbox_put(Batch(UP, T, 0, (("k", 1),)))
        assert not rt.inbox_put(forged_batch(UP, T, 0))

    def test_duplicate_real_batch_rejected(self):
        rt = _runtime()
        assert rt.inbox_put(Batch(UP, T, 0, ()))
        assert not rt.inbox_put(Batch(UP, T, 0, ()))

    def test_caught_up_against_pre_failure_progress(self):
        rt = _runtime()
        rt.pre_failure_progress = {UP: 4, UP2: 4}
        rt.progress = {UP: 3, UP2: 5}
        assert not rt.caught_up()
        rt.progress = {UP: 4, UP2: 5}
        assert rt.caught_up()

    def test_source_caught_up_by_emitted(self):
        rt = TaskRuntime(UP, is_source=True, is_sink=False,
                         expected_upstreams=(), replicated=False)
        rt.pre_failure_emitted = 7
        rt.emitted = 6
        assert not rt.caught_up()
        rt.emitted = 7
        assert rt.caught_up()

    def test_buffered_tuples_counts_range(self):
        rt = _runtime()
        rt.record_output(1, {UP: Batch(T, UP, 1, (("k", 1), ("k", 2)))})
        rt.record_output(2, {UP: Batch(T, UP, 2, (("k", 3),))})
        assert rt.buffered_tuples(0, 2) == 3
        assert rt.buffered_tuples(1, 2) == 1
        assert rt.buffered_tuples(2, 2) == 0

    def test_buffered_tuples_survive_physical_trim(self):
        rt = _runtime()
        rt.record_output(1, {UP: Batch(T, UP, 1, (("k", 1), ("k", 2)))})
        rt.record_output(2, {UP: Batch(T, UP, 2, (("k", 3),))})
        rt.trim_history(1)
        assert 1 not in rt.history and 2 in rt.history
        assert rt.history_floor == 2
        assert rt.buffered_tuples(0, 2) == 3  # skeleton keeps the counts

    def test_trim_history_is_monotonic(self):
        rt = _runtime()
        for index in range(4):
            rt.record_output(index, {UP: Batch(T, UP, index, (("k", index),))})
        rt.trim_history(2)
        rt.trim_history(0)  # going backwards is a no-op
        assert sorted(rt.history) == [3]
        assert rt.peak_history_batches == 4


class TestBatches:
    def test_forged_batches_are_incomplete(self):
        batch = forged_batch(UP, T, 3)
        assert batch.forged and not batch.complete and batch.size == 0

    @pytest.mark.parametrize("field", ["src", "dst", "index", "tuples",
                                       "complete", "forged", "size", "extra"])
    def test_assigning_an_attribute_raises(self, field):
        batch = Batch(UP, T, 0, [("k", 1)])
        with pytest.raises(AttributeError):
            setattr(batch, field, None)
        assert batch == Batch(UP, T, 0, [("k", 1)])

    @pytest.mark.parametrize("tuples", [
        [], [("k", 1), ("k", 2)], (("k", 1),), (),
        KeyCycleRun(("a", "b", "c"), 2, 5, 7),
        KeyCycleRun(("a", "b", "c"), 2, 5, 7)[1::3],
    ], ids=["empty-list", "list", "tuple", "empty-tuple", "run", "taken-run"])
    def test_size_is_the_tuple_count(self, tuples):
        batch = Batch(UP, T, 4, tuples)
        assert batch.size == len(tuples) == len(batch.tuples)
        assert batch.tuples is tuples
        assert forged_batch(UP, T, 4).size == 0

    def test_equality_compares_every_field(self):
        batch = Batch(UP, T, 1, [("k", 1)], complete=False)
        assert batch == Batch(UP, T, 1, [("k", 1)], False, False)
        run = KeyCycleRun(("a", "b"), 0, 0, 3)
        assert Batch(UP, T, 1, run) == Batch(UP, T, 1, list(run))
        for other in (Batch(UP2, T, 1, [("k", 1)], complete=False),
                      Batch(UP, UP2, 1, [("k", 1)], complete=False),
                      Batch(UP, T, 2, [("k", 1)], complete=False),
                      Batch(UP, T, 1, [("k", 2)], complete=False),
                      Batch(UP, T, 1, [("k", 1)]),
                      Batch(UP, T, 1, [("k", 1)], False, True)):
            assert batch != other and not batch == other
        # Never equal to a plain tuple of the same fields, either way round.
        fields = (batch.src, batch.dst, batch.index, batch.tuples,
                  batch.complete, batch.forged, batch.size)
        assert batch != fields and fields != batch
        assert batch != fields[:6] and not batch == fields[:6]
        assert hash(forged_batch(UP, T, 1)) == hash(forged_batch(UP, T, 1))

    @pytest.mark.parametrize("tuples", [
        [("k", 1)], (("k", 1), ("j", 2)),
        KeyCycleRun(("a", "b", "c"), 2, 5, 7)[::2],
    ], ids=["list", "tuple", "run"])
    def test_pickle_and_deepcopy_round_trip(self, tuples):
        batch = Batch(UP, T, 9, tuples, complete=False)
        copies = [copy.deepcopy(batch), copy.copy(batch)] + [
            pickle.loads(pickle.dumps(batch, protocol))
            for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
        for clone in copies:
            assert type(clone) is Batch
            assert clone == batch and clone.size == batch.size
        assert pickle.loads(pickle.dumps(forged_batch(UP, T, 2))).forged

    def test_sink_record_tentative_flag(self):
        record = SinkRecord(T, 0, (), complete=False, emitted_at=1.0)
        assert record.tentative
        assert not SinkRecord(T, 0, (), True, 1.0).tentative


class TestCheckpointStore:
    def test_latest_wins(self):
        store = CheckpointStore()
        store.put(Checkpoint(T, 5, None, {}, 0, 5.0))
        store.put(Checkpoint(T, 9, None, {}, 0, 9.0))
        assert store.latest(T).batch_index == 9

    def test_stale_checkpoint_ignored(self):
        store = CheckpointStore()
        store.put(Checkpoint(T, 9, None, {}, 0, 9.0))
        store.put(Checkpoint(T, 5, None, {}, 0, 5.0))
        assert store.latest(T).batch_index == 9

    def test_missing_task_returns_none(self):
        assert CheckpointStore().latest(T) is None


class TestMetricsCollector:
    def test_cpu_entries_created_on_demand(self):
        metrics = MetricsCollector()
        metrics.cpu_of(T).process += 1.0
        assert metrics.cpu_of(T).total == 1.0

    def test_checkpoint_ratio(self):
        metrics = MetricsCollector()
        cpu = metrics.cpu_of(T)
        cpu.process, cpu.checkpoint = 10.0, 2.0
        assert cpu.checkpoint_ratio == pytest.approx(0.2)
        assert metrics.checkpoint_cpu_ratio() == pytest.approx(0.2)

    def test_recovery_filtering(self):
        metrics = MetricsCollector()
        r1 = metrics.record_recovery_start(T, RecoveryMode.ACTIVE, 1.0, 2.0)
        r1.recovered_time = 3.0
        r2 = metrics.record_recovery_start(UP, RecoveryMode.CHECKPOINT, 1.0, 2.0)
        r2.recovered_time = 6.0
        assert metrics.recovery_latencies() == [1.0, 4.0]
        assert metrics.recovery_latencies(RecoveryMode.ACTIVE) == [1.0]
        assert metrics.recovery_latencies(tasks=[UP]) == [4.0]
        assert metrics.max_recovery_latency() == 4.0
        assert metrics.mean_recovery_latency() == pytest.approx(2.5)

    def test_incomplete_recovery_excluded(self):
        metrics = MetricsCollector()
        metrics.record_recovery_start(T, RecoveryMode.ACTIVE, 1.0, 2.0)
        assert metrics.recovery_latencies() == []
        assert metrics.max_recovery_latency() is None


class TestConfigValidation:
    def test_rejects_bad_batch_interval(self):
        with pytest.raises(SimulationError):
            EngineConfig(batch_interval=0.0)

    def test_rejects_bad_checkpoint_interval(self):
        with pytest.raises(SimulationError):
            EngineConfig(checkpoint_interval=-1.0)

    def test_checkpoint_batches_rounding(self):
        assert EngineConfig(checkpoint_interval=2.5).checkpoint_batches == 2
        assert EngineConfig(checkpoint_interval=None).checkpoint_batches is None

    @pytest.mark.parametrize("value", [-1.0, float("nan"), float("inf"),
                                       float("-inf")])
    @pytest.mark.parametrize("name", [
        "per_tuple_process", "per_tuple_serialize", "checkpoint_fixed",
        "per_tuple_load", "per_tuple_resend", "network_delay",
        "restart_delay", "takeover_fixed",
    ])
    def test_cost_model_rejects_negative(self, name, value):
        with pytest.raises(SimulationError, match=name):
            CostModel(**{name: value})


class TestLogicFactory:
    def test_missing_operator_raises(self):
        with pytest.raises(KeyError):
            LogicFactory().logic_for(T)

    def test_missing_source_raises(self):
        with pytest.raises(KeyError):
            LogicFactory().source_for(UP)

    def test_registration_roundtrip(self):
        from repro.queries import WindowedSelectivityOperator
        factory = LogicFactory()
        factory.register_operator("A", WindowedSelectivityOperator)
        assert factory.has_operator("A")
        assert isinstance(factory.logic_for(T), WindowedSelectivityOperator)
