"""The compiled Eq. 1–4 program against the dict-walking reference.

:mod:`repro.core.loss` compiles ``(topology, rates)`` once into a flat program
and evaluates every failed set on it; ``propagate_information_loss_reference``
below is the original loop, kept here as the oracle.  The contract is
bit-identity, so every comparison here is ``==``, never ``approx``.  OF and
IC are compared with the pre-program bodies of ``output_fidelity`` /
``internal_completeness`` rebuilt on top of the reference propagation.

Pure Python on purpose (no numpy): the loss program itself is pure Python,
and on Python 3.12 ``sum()`` of floats is compensated, which is exactly the
kind of drift the contract forbids.
"""

from __future__ import annotations

import gc
import weakref

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.core import (
    OF_OBJECTIVE,
    DynamicProgrammingPlanner,
    GreedyPlanner,
    PlanObjective,
    StructureAwarePlanner,
    internal_completeness,
    output_fidelity,
    propagate_information_loss,
    worst_case_completeness,
    worst_case_fidelity,
)
from repro.core import loss as loss_module
from repro.topology import (
    Partitioning,
    SourceRates,
    TaskId,
    Topology,
    TopologyBuilder,
    TopologyClass,
    TopologySpec,
    WeightSkew,
    generate_source_rates,
    generate_topology,
    propagate_rates,
    uniform_source_rates,
)


# ---------------------------------------------------------------------------
# The oracle: Eq. 1–3 walked over dicts, one task at a time
# ---------------------------------------------------------------------------

def _clamp01(value: float) -> float:
    if value < 0.0:
        return 0.0
    if value > 1.0:
        return 1.0
    return value


def input_stream_loss(loss_by_task, rates, task, substreams) -> float:
    """Eq. 1: rate-weighted average loss over the substreams of one input stream.

    An input stream whose total pre-failure rate is zero carries no
    information; its loss is conservatively reported as 1.
    """
    weighted = 0.0
    total = 0.0
    for src, _weight in substreams:
        rate = rates.substream_rate(src, task)
        weighted += rate * loss_by_task[src]
        total += rate
    if total <= 0.0:
        return 1.0
    return _clamp01(weighted / total)


def _combine_stream_losses(stream_losses, stream_rates, correlated) -> float:
    """Eq. 2 (correlated) or Eq. 3 (independent) over per-stream losses."""
    if not stream_losses:
        # A non-source task with no input stream cannot receive information.
        return 1.0
    if correlated:
        survival = 1.0
        for il in stream_losses:
            survival *= 1.0 - il
        return _clamp01(1.0 - survival)
    total = sum(stream_rates)
    if total <= 0.0:
        return 1.0
    weighted = sum(r * il for r, il in zip(stream_rates, stream_losses))
    return _clamp01(weighted / total)


def propagate_information_loss_reference(topology, rates, failed, *,
                                         ignore_correlation=False):
    """The dict-walking original of ``propagate_information_loss``.

    The compiled program must return ``==`` floats, in the same task order.
    """
    loss = {}
    for name in topology.topological_order():
        spec = topology.operator(name)
        correlated = spec.is_correlated and not ignore_correlation
        for task in spec.tasks():
            if task in failed:
                loss[task] = 1.0
                continue
            if spec.is_source:
                loss[task] = 0.0
                continue
            stream_losses = []
            stream_rates = []
            for stream in topology.input_streams(task):
                stream_losses.append(
                    input_stream_loss(loss, rates, task, stream.substreams)
                )
                stream_rates.append(
                    rates.input_stream_rate(task, stream.upstream_operator)
                )
            loss[task] = _combine_stream_losses(stream_losses, stream_rates,
                                                correlated)
    return loss


def reference_fidelity(topology, rates, failed, *, ignore_correlation=False):
    """``output_fidelity`` as it was before the program (default sinks)."""
    sinks = topology.sink_tasks()
    loss = propagate_information_loss_reference(
        topology, rates, failed, ignore_correlation=ignore_correlation
    )
    total = sum(rates.output_rate(t) for t in sinks)
    if total <= 0.0:
        return 1.0 if not failed else 0.0
    lost = sum(rates.output_rate(t) * loss[t] for t in sinks)
    return max(0.0, min(1.0, 1.0 - lost / total))


def reference_completeness(topology, rates, failed):
    """``internal_completeness`` as it was before the program."""
    loss = propagate_information_loss_reference(
        topology, rates, failed, ignore_correlation=True
    )
    processed = 0.0
    total = 0.0
    for name in topology.topological_order():
        spec = topology.operator(name)
        if spec.is_source:
            continue
        for task in spec.tasks():
            for stream in topology.input_streams(task):
                stream_rate = rates.input_stream_rate(task, stream.upstream_operator)
                total += stream_rate
                if task in failed:
                    continue
                il_in = input_stream_loss(loss, rates, task, stream.substreams)
                processed += stream_rate * (1.0 - il_in)
    if total <= 0.0:
        return 1.0 if not failed else 0.0
    return max(0.0, min(1.0, processed / total))


def assert_program_matches_reference(topology, rates, failed):
    for ignore in (False, True):
        got = propagate_information_loss(
            topology, rates, failed, ignore_correlation=ignore
        )
        want = propagate_information_loss_reference(
            topology, rates, failed, ignore_correlation=ignore
        )
        assert got == want
        assert list(got) == list(want)  # same task order
        assert output_fidelity(
            topology, rates, failed, ignore_correlation=ignore
        ) == reference_fidelity(topology, rates, failed, ignore_correlation=ignore)
    assert internal_completeness(topology, rates, failed) == reference_completeness(
        topology, rates, failed
    )
    known_failed = frozenset(failed) & frozenset(topology.tasks())
    alive = frozenset(topology.tasks()) - known_failed
    assert worst_case_fidelity(topology, rates, alive) == reference_fidelity(
        topology, rates, known_failed
    )
    assert worst_case_completeness(topology, rates, alive) == reference_completeness(
        topology, rates, known_failed
    )


UNKNOWN = TaskId("no-such-operator", 7)

failed_kinds = st.sampled_from(["empty", "all", "sources", "random", "random+unknown"])


def _failed_set(topology, kind, data):
    tasks = topology.tasks()
    if kind == "empty":
        return frozenset()
    if kind == "all":
        return frozenset(tasks)
    if kind == "sources":
        return frozenset(topology.source_tasks())
    chosen = frozenset(
        t for t, hit in zip(tasks, data.draw(
            st.lists(st.booleans(), min_size=len(tasks), max_size=len(tasks))
        )) if hit
    )
    return chosen | {UNKNOWN} if kind == "random+unknown" else chosen


class TestDifferential:
    @given(
        st.sampled_from(list(TopologyClass)),
        st.sampled_from([0.0, 0.5, 1.0]),
        st.integers(min_value=0, max_value=10_000),
        failed_kinds,
        st.data(),
    )
    @settings(max_examples=120, deadline=None)
    def test_generated_topologies(self, topology_class, join_fraction, seed, kind, data):
        spec = TopologySpec(
            n_operators=(2, 6), parallelism=(1, 5), weight_skew=WeightSkew.ZIPF,
            zipf_s=0.5, join_fraction=join_fraction, topology_class=topology_class,
        )
        topology = generate_topology(spec, seed)
        rates = propagate_rates(topology, generate_source_rates(topology, seed))
        assert_program_matches_reference(
            topology, rates, _failed_set(topology, kind, data)
        )

    def test_paper_fixtures(self, fig2_topology, fig2_rates, join_topology,
                            join_rates, merge_tree_topology, merge_tree_rates):
        for topology, rates in ((fig2_topology, fig2_rates),
                                (join_topology, join_rates),
                                (merge_tree_topology, merge_tree_rates)):
            for task in topology.tasks():
                assert_program_matches_reference(topology, rates, {task})


def _diamond(join: bool, **a_kwargs) -> Topology:
    builder = TopologyBuilder().source("S", 2).source("T", 2).operator("A", 2, **a_kwargs)
    builder = builder.join("J", 2) if join else builder.operator("J", 2)
    return (
        builder.operator("K", 1)
        .connect("S", "A", Partitioning.FULL)
        .connect("A", "J", Partitioning.ONE_TO_ONE)
        .connect("T", "J", Partitioning.ONE_TO_ONE)
        .connect("J", "K", Partitioning.MERGE)
        .build()
    )


class _SeveredTopology(Topology):
    """A topology whose task ``J[1]`` lost all its input streams."""

    def input_streams(self, task):
        return () if task == TaskId("J", 1) else super().input_streams(task)


class TestEdgeCases:
    @pytest.mark.parametrize("join", [False, True])
    def test_zero_rate_streams(self, join):
        # A[1] owns none of the key space: its input stream and the stream it
        # feeds into J[1] both carry rate 0, so their loss is reported as 1.
        topology = _diamond(join, task_weights=(1.0, 0.0))
        rates = propagate_rates(topology, uniform_source_rates(topology, 10.0))
        assert rates.input_stream_rate(TaskId("A", 1), "S") == 0.0
        for failed in (frozenset(), {TaskId("S", 0)}, {TaskId("T", 1)},
                       {TaskId("A", 0), UNKNOWN}):
            assert_program_matches_reference(topology, rates, failed)
        assert propagate_information_loss(topology, rates, frozenset())[TaskId("A", 1)] == 1.0

    @pytest.mark.parametrize("join", [False, True])
    def test_silent_sources_make_every_total_zero(self, join):
        topology = _diamond(join)
        rates = propagate_rates(topology, SourceRates(per_operator={"S": 0.0, "T": 0.0}))
        for failed in (frozenset(), {TaskId("J", 0)}, {UNKNOWN}):
            assert_program_matches_reference(topology, rates, failed)
        # Sinks emit nothing: fidelity is 1 only for the failure-free case.
        assert output_fidelity(topology, rates, frozenset()) == 1.0
        assert output_fidelity(topology, rates, {UNKNOWN}) == 0.0

    @pytest.mark.parametrize("join", [False, True])
    def test_non_source_task_without_inputs(self, join):
        base = _diamond(join)
        topology = _SeveredTopology(base.operators(), base.edges())
        rates = propagate_rates(topology, uniform_source_rates(topology, 10.0))
        for failed in (frozenset(), {TaskId("S", 1)}, {TaskId("J", 1)}):
            assert_program_matches_reference(topology, rates, failed)
        assert propagate_information_loss(topology, rates, frozenset())[TaskId("J", 1)] == 1.0

    def test_custom_sink_tasks(self, chain_topology, chain_rates):
        failed = {TaskId("A", 0)}
        loss = propagate_information_loss_reference(chain_topology, chain_rates, failed)
        sinks = [TaskId("B", 0), TaskId("B", 1)]
        total = sum(chain_rates.output_rate(t) for t in sinks)
        lost = sum(chain_rates.output_rate(t) * loss[t] for t in sinks)
        assert output_fidelity(
            chain_topology, chain_rates, failed, sink_tasks=sinks
        ) == max(0.0, min(1.0, 1.0 - lost / total))


class TestPlannersOnTheProgram:
    @pytest.mark.parametrize("planner_cls", [
        GreedyPlanner, StructureAwarePlanner, DynamicProgrammingPlanner,
    ])
    @pytest.mark.parametrize("join_fraction", [0.0, 0.5])
    def test_same_plans_as_under_the_reference_metric(self, planner_cls, join_fraction):
        spec = TopologySpec(n_operators=(3, 4), parallelism=(1, 3),
                            join_fraction=join_fraction)
        reference_objective = PlanObjective("OF", reference_fidelity)
        for seed in range(4):
            topology = generate_topology(spec, seed)
            rates = propagate_rates(topology, generate_source_rates(topology, seed))
            for budget in (1, topology.num_tasks // 3, topology.num_tasks // 2):
                got = planner_cls(OF_OBJECTIVE).plan(topology, rates, budget)
                want = planner_cls(reference_objective).plan(topology, rates, budget)
                assert got.replicated == want.replicated

    def test_one_greedy_plan_compiles_one_program(self, monkeypatch):
        compiled = []

        class CountingProgram(loss_module._LossProgram):
            def __init__(self, topology, rates):
                compiled.append((topology, rates))
                super().__init__(topology, rates)

        monkeypatch.setattr(loss_module, "_LossProgram", CountingProgram)
        topology = generate_topology(TopologySpec(n_operators=(4, 6), parallelism=(2, 4)), 3)
        rates = propagate_rates(topology, generate_source_rates(topology, 3))
        plan = GreedyPlanner().plan(topology, rates, topology.num_tasks // 2)
        worst_case_fidelity(topology, rates, plan.replicated)
        assert len(compiled) == 1  # n + 1 evaluations, one compilation


class TestProgramCache:
    def _pair(self, seed, rate=None):
        topology = generate_topology(TopologySpec(n_operators=(2, 3), parallelism=(1, 2)), seed)
        sources = (generate_source_rates(topology, seed) if rate is None
                   else uniform_source_rates(topology, rate))
        return topology, propagate_rates(topology, sources)

    def test_same_pair_is_served_the_same_program(self):
        topology, rates = self._pair(0)
        assert loss_module._loss_program(topology, rates) is \
            loss_module._loss_program(topology, rates)

    def test_new_rates_on_the_same_topology_recompile(self, fig2_topology, fig2_rates):
        skewed = propagate_rates(fig2_topology, SourceRates(per_task={
            TaskId("O1", 0): 2.0, TaskId("O1", 1): 1.0,
            TaskId("O2", 0): 1.0, TaskId("O2", 1): 9.0,
        }))
        failed = {TaskId("O2", 1)}
        assert output_fidelity(fig2_topology, fig2_rates, failed) == \
            reference_fidelity(fig2_topology, fig2_rates, failed)
        assert output_fidelity(fig2_topology, skewed, failed) == \
            reference_fidelity(fig2_topology, skewed, failed)
        assert output_fidelity(fig2_topology, skewed, failed) != \
            output_fidelity(fig2_topology, fig2_rates, failed)

    def test_cache_is_bounded_and_holds_only_weak_references(self):
        pairs = [self._pair(seed) for seed in range(loss_module._PROGRAM_CACHE_SIZE + 4)]
        for topology, rates in pairs:
            output_fidelity(topology, rates, frozenset())
        assert len(loss_module._programs) <= loss_module._PROGRAM_CACHE_SIZE
        watch = weakref.ref(pairs[-1][1])
        del pairs, topology, rates
        gc.collect()
        assert watch() is None  # the cache does not keep the rates alive

    def test_recycled_id_cannot_alias(self):
        # Plant another pair's entry under this pair's key, which is what a
        # recycled id() after garbage collection amounts to.
        stale_topology, stale_rates = self._pair(1)
        stale = loss_module._loss_program(stale_topology, stale_rates)
        topology, rates = self._pair(2)
        key = (id(topology), id(rates))
        with loss_module._programs_lock:
            loss_module._programs[key] = (
                weakref.ref(stale_topology), weakref.ref(stale_rates), stale
            )
        program = loss_module._loss_program(topology, rates)
        assert program is not stale
        assert program.tasks == topology.tasks()
        assert_program_matches_reference(topology, rates, frozenset(topology.source_tasks()))
