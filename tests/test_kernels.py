"""Batch-kernel parity: every columnar fast path == its per-tuple reference.

The operator compute plane (``repro.engine.kernels`` plus the kernelized
``process_batch`` implementations in ``repro.queries``) must be byte
identical to the per-tuple ``process_batch_reference`` implementations —
the same contract the routing fast path has with ``distribute_reference``.
These tests pin it down with randomized batch sequences:

* the selectivity kernel matches the reference loop bit-for-bit (emitted
  items *and* the float accumulator) for periodic-dyadic, non-periodic
  dyadic and non-dyadic selectivities, on and off the exact grid, for
  list, tuple and lazy-run inputs;
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

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.engine import KeyCycleRun, Router, StreamEngine
from repro.engine.config import EngineConfig
from repro.engine.kernels import KERNEL, _Q
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


#: The paper's 0.5, other periodic dyadics (down to a 1024-item period),
#: non-periodic dyadics (3/8, 5/16, 3/4), inexact ones and both ends.
SELECTIVITIES = [0.0, 0.5, 0.25, 2 ** -10, 0.375, 5 / 16, 0.75, 0.3, 1 / 3,
                 1.0]
#: Selectivities whose takes are exactly periodic: a strided slice.
PERIODIC = (0.5, 0.25, 2 ** -10)
#: The input types a take accepts: materialised batches and lazy runs.
KINDS = ["list", "tuple", "run"]
_accumulators = st.one_of(
    st.integers(0, _Q - 1).map(lambda a: a / _Q),
    st.sampled_from([0.0, 0.125, 0.5, 0.875]),
    st.floats(0.0, 1.0, exclude_max=True),
    st.sampled_from([0.1, 0.3, 1 / 3]),
)


def _on_grid(acc: float) -> bool:
    return (acc * _Q).is_integer()


class TestSelectivityKernel:
    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("selectivity", SELECTIVITIES)
    @given(_accumulators,
           st.lists(st.integers(0, 2500), min_size=1, max_size=4),
           st.integers(0, 10_000))
    @settings(max_examples=20, deadline=None)
    def test_randomized_parity_with_carried_accumulator(
            self, selectivity, kind, acc, sizes, base):
        """Chained takes equal the loop: items, type and accumulator bits."""
        acc_fast = acc_ref = acc
        for size in sizes:
            run = KeyCycleRun(("a", "b", "c"), 4, base, size)
            base += size
            items = {"list": list(run), "tuple": tuple(run), "run": run}[kind]
            lazy = (kind == "run" and size > 0 and selectivity in PERIODIC
                    and _on_grid(acc_fast))
            fast, acc_fast = KERNEL.selectivity_take(items, selectivity,
                                                     acc_fast)
            ref, acc_ref = _reference_take(list(run), selectivity, acc_ref)
            assert type(fast) is (KeyCycleRun if lazy else list)
            assert fast is not items
            assert list(fast) == ref and fast == ref
            assert _bits(acc_fast) == _bits(acc_ref)

    def test_emitted_items_are_the_input_objects(self):
        items = [("k", i) for i in range(10)]
        out, _acc = KERNEL.selectivity_take(items, 0.5, 0.0)
        assert all(any(o is i for i in items) for o in out)

    def test_every_other_item_at_half_selectivity(self):
        out, acc = KERNEL.selectivity_take(list(range(10)), 0.5, 0.0)
        assert out == [1, 3, 5, 7, 9]
        assert acc == 0.0

    @pytest.mark.parametrize("selectivity", SELECTIVITIES)
    def test_source_run_takes_like_its_list(self, selectivity):
        """Every take branch on a run: slice, loop, pass-through, zero."""
        source = UniformRateSource(37.0, key_space=5)
        expected_type = KeyCycleRun if selectivity in PERIODIC else list
        acc_run = acc_list = 0.0
        for index in range(12):
            run = source.tuples_for_batch(TaskId("S", 3), index)
            taken_run, acc_run = KERNEL.selectivity_take(run, selectivity,
                                                         acc_run)
            taken_list, acc_list = KERNEL.selectivity_take(
                list(run), selectivity, acc_list)
            assert type(taken_run) is expected_type
            assert taken_run == taken_list
            assert _bits(acc_run) == _bits(acc_list)

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("selectivity", SELECTIVITIES)
    def test_result_is_a_fresh_list_for_every_input_type(self, kind,
                                                         selectivity):
        """A fresh list, except a periodic take of a run: a lazy run."""
        run = UniformRateSource(23.0, key_space=4).tuples_for_batch(
            TaskId("S", 1), 2)
        items = {"list": list(run), "tuple": tuple(run), "run": run}[kind]
        out, acc = KERNEL.selectivity_take(items, selectivity, 0.125)
        ref, acc_ref = _reference_take(list(run), selectivity, 0.125)
        lazy = kind == "run" and selectivity in PERIODIC
        assert type(out) is (KeyCycleRun if lazy else list) and out == ref
        assert out is not items
        assert _bits(acc) == _bits(acc_ref)

    def test_pass_through_and_zero(self):
        items = list(range(7))
        assert KERNEL.selectivity_take(items, 1.0, 0.25) == (items, 0.25)
        assert KERNEL.selectivity_take(items, 0.0, 0.25) == ([], 0.25)
        assert KERNEL.selectivity_take([], 0.5, 0.25) == ([], 0.25)


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
    ] + [
        (f"selectivity-{selectivity}",
         lambda selectivity=selectivity: WindowedSelectivityOperator(
             3.0, selectivity),
         lambda rng: (_segment(rng), rng.randrange(100)))
        for selectivity in SELECTIVITIES
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
    def test_randomized_batch_sequences(self, name, factory, value_fn):
        """Kernel and reference instances stay output- and state-identical."""
        rng = random.Random(name)
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

    def test_parity_across_snapshot_restore(self, name, factory, value_fn):
        """Mid-run checkpoint restore preserves kernel-vs-reference parity."""
        rng = random.Random(f"{name}/restore")
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


@pytest.mark.parametrize("selectivity", PERIODIC)
def test_restore_of_a_window_holding_source_runs(selectivity):
    """Snapshot/restore with lazy source batches as window blocks."""
    source = UniformRateSource(20.0, key_space=6)
    upstreams = (TaskId("S", 0), TaskId("S", 1))
    task = TaskId("O1", 0)

    def inputs(index):
        return {u: source.tuples_for_batch(u, index) for u in upstreams}

    live = WindowedSelectivityOperator(3.0, selectivity)
    reference = WindowedSelectivityOperator(3.0, selectivity)
    for index in range(5):
        live.process_batch(task, index + 1.0, inputs(index))
        reference.process_batch_reference(
            task, index + 1.0, {u: list(b) for u, b in inputs(index).items()})
    assert all(type(items) is KeyCycleRun
               for _ts, items in live.window._blocks)
    restored = WindowedSelectivityOperator(3.0, selectivity)
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
def test_engine_runs_match_reference_path(workload):
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
