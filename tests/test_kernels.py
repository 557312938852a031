"""Batch-kernel parity: every columnar fast path == its per-tuple reference.

The operator compute plane (``repro.engine.kernels`` plus the kernelized
``process_batch`` implementations in ``repro.queries``) must be byte
identical to the per-tuple ``process_batch_reference`` implementations —
the same contract the routing fast path has with ``distribute_reference``.
These tests pin it down with randomized batch sequences on both kernel
backends (pure python always; numpy when importable):

* the selectivity accumulator kernel matches the reference loop bit-for-bit
  (emitted items *and* the float accumulator) for periodic-dyadic, general
  dyadic and non-dyadic selectivities;
* every query operator produces identical outputs and state sizes under
  randomized multi-upstream batch sequences, including across a mid-run
  snapshot/restore;
* whole engine runs (synthetic, Q1, Q2 — with failures) are fingerprint
  identical when every operator is forced onto its reference path;
* the zero-copy emit contract and MemoizedSource eviction order hold.
"""

from __future__ import annotations

import random
import struct

import pytest

from repro.engine import KeyCycleRun, Router, StreamEngine
from repro.engine.config import EngineConfig
from repro.engine.kernels import (
    active_kernel,
    kernel_backend,
    numpy_available,
    set_kernel_backend,
)
from repro.engine.logic import LogicFactory, MemoizedSource, OperatorLogic
from repro.queries import (
    GlobalTopKOperator,
    IncidentAggregateOperator,
    IncidentCombineOperator,
    MergeAggregateOperator,
    SegmentSpeedOperator,
    SliceAggregateOperator,
    SlidingWindow,
    SpeedIncidentJoinOperator,
    WindowedSelectivityOperator,
)
from repro.topology.operators import TaskId
from repro.workloads import UniformRateSource
from repro.workloads.bundles import QueryBundle, fig6_bundle, q1_bundle, q2_bundle

from tests.engine_helpers import metrics_fingerprint

BACKENDS = ["python"] + (["numpy"] if numpy_available() else [])


@pytest.fixture(params=BACKENDS)
def backend(request):
    """Force one kernel backend for the duration of a test."""
    set_kernel_backend(request.param)
    yield request.param
    set_kernel_backend(None)


class TestBackendSelection:
    def test_backend_forcing_round_trips(self):
        original = kernel_backend()
        set_kernel_backend("python")
        assert kernel_backend() == "python"
        set_kernel_backend(None)
        assert kernel_backend() == original

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="unknown kernel backend"):
            set_kernel_backend("fortran")

    @pytest.mark.skipif(numpy_available(), reason="numpy is importable here")
    def test_numpy_backend_unavailable_raises(self):  # pragma: no cover
        with pytest.raises(ValueError, match="numpy"):
            set_kernel_backend("numpy")


# ---------------------------------------------------------------------------
# The selectivity accumulator kernel
# ---------------------------------------------------------------------------

def _reference_take(items, selectivity, acc):
    """The per-tuple accumulator loop, verbatim from the reference."""
    out = []
    if selectivity >= 1.0:
        return list(items), acc
    for item in items:
        acc += selectivity
        if acc >= 1.0:
            acc -= 1.0
            out.append(item)
    return out, acc


def _bits(value: float) -> bytes:
    return struct.pack("<d", value)


SELECTIVITIES = [0.0, 0.5, 0.25, 0.125, 0.75, 0.375, 1.0, 0.3, 0.7, 1 / 3]
#: Selectivities whose takes are exactly periodic: a strided slice.
PERIODIC = (0.5, 0.25)


class TestSelectivityKernel:
    @pytest.mark.parametrize("selectivity", SELECTIVITIES)
    def test_randomized_parity_with_carried_accumulator(self, backend,
                                                        selectivity):
        """Chained batches: emitted items and accumulator bit-identical."""
        rng = random.Random(hash((backend, selectivity)) & 0xFFFFFFFF)
        kernel = active_kernel()
        acc_fast = acc_ref = 0.0
        for _round in range(40):
            items = [object() for _ in range(rng.randrange(0, 25))]
            fast, acc_fast = kernel.selectivity_take(items, selectivity,
                                                     acc_fast)
            ref, acc_ref = _reference_take(items, selectivity, acc_ref)
            assert fast == ref
            assert _bits(acc_fast) == _bits(acc_ref)

    def test_emitted_items_are_the_input_objects(self, backend):
        items = [("k", i) for i in range(10)]
        out, _acc = active_kernel().selectivity_take(items, 0.5, 0.0)
        assert all(any(o is i for i in items) for o in out)

    def test_every_other_item_at_half_selectivity(self, backend):
        out, acc = active_kernel().selectivity_take(list(range(10)), 0.5, 0.0)
        assert out == [1, 3, 5, 7, 9]
        assert acc == 0.0

    @pytest.mark.parametrize("selectivity", [0.5, 0.375, 0.3])
    def test_source_run_takes_like_its_list(self, backend, selectivity):
        """Periodic slice, numpy general-dyadic and inexact loop on a run."""
        kernel = active_kernel()
        source = UniformRateSource(37.0, key_space=5)
        expected_type = KeyCycleRun if selectivity in PERIODIC else list
        acc_run = acc_list = 0.0
        for index in range(12):
            run = source.tuples_for_batch(TaskId("S", 3), index)
            taken_run, acc_run = kernel.selectivity_take(run, selectivity,
                                                         acc_run)
            taken_list, acc_list = kernel.selectivity_take(
                list(run), selectivity, acc_list)
            assert type(taken_run) is expected_type
            assert taken_run == taken_list
            assert _bits(acc_run) == _bits(acc_list)

    @pytest.mark.parametrize("kind", ["list", "tuple", "run"])
    @pytest.mark.parametrize("selectivity", [0.5, 0.25, 0.375, 0.3])
    def test_result_is_a_fresh_list_for_every_input_type(self, backend, kind,
                                                         selectivity):
        """A fresh list, except a periodic take of a run: a lazy run."""
        run = UniformRateSource(23.0, key_space=4).tuples_for_batch(
            TaskId("S", 1), 2)
        items = {"list": list(run), "tuple": tuple(run), "run": run}[kind]
        out, acc = active_kernel().selectivity_take(items, selectivity, 0.125)
        ref, acc_ref = _reference_take(list(run), selectivity, 0.125)
        lazy = kind == "run" and selectivity in PERIODIC
        assert type(out) is (KeyCycleRun if lazy else list) and out == ref
        assert out is not items
        assert _bits(acc) == _bits(acc_ref)

    def test_pass_through_and_zero(self, backend):
        kernel = active_kernel()
        items = list(range(7))
        assert kernel.selectivity_take(items, 1.0, 0.25) == (items, 0.25)
        assert kernel.selectivity_take(items, 0.0, 0.25) == ([], 0.25)
        assert kernel.selectivity_take([], 0.5, 0.25) == ([], 0.25)


# ---------------------------------------------------------------------------
# Query-operator parity on randomized batch sequences
# ---------------------------------------------------------------------------

_UPSTREAMS = (TaskId("U", 0), TaskId("U", 1), TaskId("V", 0))


def _segment(rng):
    return f"s{rng.randrange(6)}"


def _operator_cases():
    """(name, factory, value generator) triples for every kernelized operator."""
    return [
        ("slice-aggregate", SliceAggregateOperator,
         lambda rng: (_segment(rng), rng.random())),
        ("merge-int-counts", lambda: MergeAggregateOperator(3.0),
         lambda rng: (_segment(rng), rng.randrange(1, 5))),
        ("merge-float-counts", lambda: MergeAggregateOperator(3.0),
         lambda rng: (_segment(rng), rng.choice([1, 2, 0.5, 1.25]))),
        ("global-topk", lambda: GlobalTopKOperator(k=3, window_seconds=3.0),
         lambda rng: (_segment(rng), rng.randrange(0, 50))),
        ("segment-speed", SegmentSpeedOperator,
         lambda rng: (_segment(rng), rng.uniform(0.0, 2.0))),
        ("incident-combine", lambda: IncidentCombineOperator(3.0),
         lambda rng: (_segment(rng), f"inc{rng.randrange(12)}")),
        ("speed-incident-join",
         lambda: SpeedIncidentJoinOperator(3.0, jam_speed=1.0),
         lambda rng: (_segment(rng),
                      f"inc{rng.randrange(8)}" if rng.random() < 0.4
                      else rng.uniform(0.0, 2.0))),
        ("incident-aggregate", lambda: IncidentAggregateOperator(3.0),
         lambda rng: (_segment(rng), f"inc{rng.randrange(12)}")),
        ("selectivity-0.5", lambda: WindowedSelectivityOperator(3.0, 0.5),
         lambda rng: (_segment(rng), rng.randrange(100))),
        ("selectivity-0.375", lambda: WindowedSelectivityOperator(3.0, 0.375),
         lambda rng: (_segment(rng), rng.randrange(100))),
        ("selectivity-0.3", lambda: WindowedSelectivityOperator(3.0, 0.3),
         lambda rng: (_segment(rng), rng.randrange(100))),
        ("selectivity-1.0", lambda: WindowedSelectivityOperator(3.0, 1.0),
         lambda rng: (_segment(rng), rng.randrange(100))),
    ]


def _random_inputs(rng, value_fn):
    inputs = {}
    for upstream in _UPSTREAMS:
        if rng.random() < 0.8:
            inputs[upstream] = [value_fn(rng)
                                for _ in range(rng.randrange(0, 18))]
    return inputs


@pytest.mark.parametrize(
    "name,factory,value_fn",
    [pytest.param(*case, id=case[0]) for case in _operator_cases()])
class TestOperatorKernelParity:
    def test_randomized_batch_sequences(self, backend, name, factory, value_fn):
        """Kernel and reference instances stay output- and state-identical."""
        rng = random.Random(hash((backend, name)) & 0xFFFFFFFF)
        fast, ref = factory(), factory()
        task = TaskId("O", 0)
        for index in range(30):
            batch_end = (index + 1) * 1.0
            inputs = _random_inputs(rng, value_fn)
            ref_inputs = {u: list(batch) for u, batch in inputs.items()}
            out_fast = fast.process_batch(task, batch_end, inputs)
            out_ref = ref.process_batch_reference(task, batch_end, ref_inputs)
            assert out_fast == out_ref, f"batch {index} diverged"
            assert fast.state_size() == ref.state_size()

    def test_parity_across_snapshot_restore(self, backend, name, factory,
                                            value_fn):
        """Mid-run checkpoint restore preserves kernel-vs-reference parity."""
        rng = random.Random(hash((backend, name, "restore")) & 0xFFFFFFFF)
        fast, ref = factory(), factory()
        task = TaskId("O", 0)
        for index in range(10):
            inputs = _random_inputs(rng, value_fn)
            fast.process_batch(task, index + 1.0,
                               {u: list(b) for u, b in inputs.items()})
            ref.process_batch_reference(task, index + 1.0, inputs)
        fast2, ref2 = factory(), factory()
        fast2.restore(fast.snapshot())
        ref2.restore(ref.snapshot())
        for index in range(10, 22):
            batch_end = index + 1.0
            inputs = _random_inputs(rng, value_fn)
            out_fast = fast2.process_batch(
                task, batch_end, {u: list(b) for u, b in inputs.items()})
            out_ref = ref2.process_batch_reference(task, batch_end, inputs)
            assert out_fast == out_ref, f"post-restore batch {index} diverged"


def test_restore_of_a_window_holding_source_runs(backend):
    """Snapshot/restore with lazy source batches as window blocks."""
    source = UniformRateSource(20.0, key_space=6)
    upstreams = (TaskId("S", 0), TaskId("S", 1))
    task = TaskId("O1", 0)

    def inputs(index):
        return {u: source.tuples_for_batch(u, index) for u in upstreams}

    live = WindowedSelectivityOperator(3.0, 0.5)
    reference = WindowedSelectivityOperator(3.0, 0.5)
    for index in range(5):
        live.process_batch(task, index + 1.0, inputs(index))
        reference.process_batch_reference(
            task, index + 1.0, {u: list(b) for u, b in inputs(index).items()})
    assert all(type(items) is KeyCycleRun
               for _ts, items in live.window._blocks)
    restored = WindowedSelectivityOperator(3.0, 0.5)
    restored.restore(live.snapshot())
    for index in range(5, 12):
        batch_end = index + 1.0
        out = restored.process_batch(task, batch_end, inputs(index))
        out_ref = reference.process_batch_reference(
            task, batch_end, {u: list(b) for u, b in inputs(index).items()})
        assert out == out_ref, f"post-restore batch {index} diverged"
        assert list(restored.window.timestamped()) == \
            list(reference.window.timestamped())


# ---------------------------------------------------------------------------
# Whole-engine parity: kernels forced onto the reference path
# ---------------------------------------------------------------------------

_REFERENCE_CLASSES: dict[type, type] = {}


def _reference_class(cls: type) -> type:
    sub = _REFERENCE_CLASSES.get(cls)
    if sub is None:
        sub = type(cls.__name__ + "Reference", (cls,),
                   {"process_batch": cls.process_batch_reference})
        _REFERENCE_CLASSES[cls] = sub
    return sub


def _reference_logic(factory: LogicFactory) -> LogicFactory:
    """A logic factory whose operators all run their reference path."""

    def wrap(build):
        def build_reference():
            logic: OperatorLogic = build()
            logic.__class__ = _reference_class(type(logic))
            return logic
        return build_reference

    wrapped = LogicFactory()
    for name, build in factory._operators.items():
        wrapped.register_operator(name, wrap(build))
    for name, source in factory._sources.items():
        wrapped.register_source(name, source)
    return wrapped


def _bundle_fingerprint(bundle: QueryBundle, *, reference: bool,
                        duration: float) -> str:
    logic = bundle.make_logic()
    if reference:
        logic = _reference_logic(logic)
    config = EngineConfig(checkpoint_interval=6.0, heartbeat_interval=2.0,
                          costs=bundle.costs)
    engine = StreamEngine(bundle.topology, logic, config)
    victims = [t for t in bundle.synthetic_tasks if t.operator != "O4"][:2]
    engine.schedule_task_failure(duration / 2, victims)
    engine.run(duration)
    return metrics_fingerprint(engine.metrics)


_BUNDLES = {
    "synthetic": lambda: fig6_bundle(200.0, 6.0, tuple_scale=8.0),
    "q1-topk": lambda: q1_bundle(200.0, tuple_scale=8.0, pages=60,
                                 window_seconds=8.0, k=10),
    "q2-incidents": lambda: q2_bundle(2000.0, tuple_scale=40.0,
                                      window_seconds=8.0, horizon=30.0),
}


@pytest.mark.parametrize("workload", sorted(_BUNDLES))
def test_engine_runs_match_reference_path(backend, workload):
    """Kernelized and reference-only engine runs are fingerprint identical."""
    make = _BUNDLES[workload]
    fast = _bundle_fingerprint(make(), reference=False, duration=20.0)
    ref = _bundle_fingerprint(make(), reference=True, duration=20.0)
    assert fast == ref


# ---------------------------------------------------------------------------
# SlidingWindow bulk operations
# ---------------------------------------------------------------------------

class TestSlidingWindowBulk:
    def test_extend_matches_per_item_add(self):
        bulk, single = SlidingWindow(5.0), SlidingWindow(5.0)
        rng = random.Random(5)
        for step in range(20):
            items = [rng.randrange(100) for _ in range(rng.randrange(0, 9))]
            bulk.extend(float(step), items)
            for item in items:
                single.add(float(step), item)
            bulk.evict(float(step))
            single.evict(float(step))
            assert list(bulk.items()) == list(single.items())
            assert list(bulk.timestamped()) == list(single.timestamped())
            assert len(bulk) == len(single) and bool(bulk) == bool(single)

    def test_evict_collect_returns_exactly_the_evicted_items(self):
        window = SlidingWindow(2.0)
        window.extend(1.0, ["a", "b"])
        window.add(2.0, "c")
        window.extend(3.0, ["d"])
        assert window.evict_collect(4.0) == ["a", "b", "c"]
        assert list(window.items()) == ["d"]
        assert window.evict_collect(4.0) == []

    def test_extend_accepts_any_iterable_and_skips_empty(self):
        window = SlidingWindow(2.0)
        window.extend(1.0, (x for x in range(3)))
        window.extend(1.0, [])
        assert list(window.items()) == [0, 1, 2]
        assert len(window._blocks) == 1


# ---------------------------------------------------------------------------
# Zero-copy emit and MemoizedSource eviction order
# ---------------------------------------------------------------------------

class TestZeroCopyContract:
    def test_single_destination_bucket_is_the_input_list(self):
        from repro.topology import Partitioning, TopologyBuilder

        topology = (TopologyBuilder().source("S", 2).operator("A", 1)
                    .connect("S", "A", Partitioning.MERGE).build())
        router = Router(topology)
        src = topology.tasks_of("S")[0]
        tuples = [("k", 1), ("k", 2)]
        out = router.distribute(src, tuples)
        assert out[TaskId("A", 0)] is tuples
        run = UniformRateSource(10.0).tuples_for_batch(src, 4)
        assert router.distribute(src, run)[TaskId("A", 0)] is run

    def test_engine_batches_share_router_buckets(self):
        from tests.engine_helpers import build_engine

        engine = build_engine(EngineConfig(), rate=20.0, window=5.0)
        engine.run(6.0)
        src = engine.runtime(TaskId("S", 0))
        history_batch = src.history[2]
        for batch in history_batch.values():
            assert type(batch.tuples) is list  # no re-tupling at emit


class TestMemoizedSourceEviction:
    def test_eviction_order_is_oldest_inserted_first(self):
        task = TaskId("S", 0)
        memo = MemoizedSource(UniformRateSource(10.0), task, capacity=3)
        # Out-of-order inserts: dict order is insertion order, not index
        # order — eviction must follow insertion (oldest first).
        for index in (5, 1, 9):
            memo.tuples_for_batch(task, index)
        memo.tuples_for_batch(task, 7)   # evicts 5 (oldest inserted)
        assert sorted(memo._batches) == [1, 7, 9]
        memo.tuples_for_batch(task, 2)   # evicts 1
        assert sorted(memo._batches) == [2, 7, 9]
        memo.tuples_for_batch(task, 9)   # hit: no eviction
        assert sorted(memo._batches) == [2, 7, 9]
