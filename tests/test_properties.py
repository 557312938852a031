"""Property-based tests (hypothesis) for the core invariants.

These exercise the metric/planner layer on randomly generated topologies and
failure sets, checking the invariants the algorithms rely on:

* losses and fidelities stay in [0, 1];
* OF is antitone in the failed set (more failures never help);
* worst-case OF is monotone in the plan (more replicas never hurt);
* planners never exceed their budget and are deterministic;
* partitioning weight maps are well-formed for arbitrary legal sizes;
* scenarios round-trip through their JSON-native ``to_dict``, and a
  document with any one value replaced (or removed) either decodes or
  raises :class:`~repro.errors.ScenarioError`, never another exception;
* a synthetic source's lazy :class:`~repro.engine.tuples.KeyCycleRun`
  batch is indistinguishable from the list its reference builds.
"""

from __future__ import annotations

import copy
import json
import pickle

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.core import (
    GreedyPlanner,
    StructureAwarePlanner,
    enumerate_mc_trees,
    output_fidelity,
    propagate_information_loss,
    worst_case_fidelity,
)
from repro.engine import KeyCycleRun
from repro.errors import ScenarioError
from repro.scenarios import (
    EdgeDef,
    FailureSpec,
    OperatorDef,
    Scenario,
    ScenarioResult,
    TopologyRecipe,
)
from repro.scenarios.spec import QUALITY_KEYS
from repro.topology import (
    OperatorKind,
    OperatorSpec,
    Partitioning,
    TaskId,
    TopologySpec,
    WeightSkew,
    generate_source_rates,
    generate_topology,
    propagate_rates,
    substream_weights,
)
from repro.workloads import SquareWaveSource, UniformRateSource
from tests.golden.make_codec_golden import RESULT

topology_seeds = st.integers(min_value=0, max_value=10_000)
specs = st.sampled_from([
    TopologySpec(n_operators=(2, 5), parallelism=(1, 4)),
    TopologySpec(n_operators=(2, 5), parallelism=(1, 4), join_fraction=0.5),
    TopologySpec(n_operators=(2, 4), parallelism=(2, 5),
                 weight_skew=WeightSkew.ZIPF, zipf_s=0.5),
])


def _instance(spec: TopologySpec, seed: int):
    topology = generate_topology(spec, seed)
    rates = propagate_rates(topology, generate_source_rates(topology, seed))
    return topology, rates


def _failure_set(topology, seed: int, fraction: float):
    tasks = sorted(topology.tasks())
    count = int(len(tasks) * fraction)
    # Deterministic pseudo-random subset derived from the seed.
    return frozenset(tasks[(seed + 3 * i) % len(tasks)] for i in range(count))


class TestLossInvariants:
    @given(specs, topology_seeds, st.floats(0.0, 1.0))
    @settings(max_examples=40, deadline=None)
    def test_losses_within_unit_interval(self, spec, seed, fraction):
        topology, rates = _instance(spec, seed)
        failed = _failure_set(topology, seed, fraction)
        loss = propagate_information_loss(topology, rates, failed)
        assert all(0.0 <= v <= 1.0 for v in loss.values())

    @given(specs, topology_seeds)
    @settings(max_examples=40, deadline=None)
    def test_failed_tasks_have_total_loss(self, spec, seed):
        topology, rates = _instance(spec, seed)
        failed = _failure_set(topology, seed, 0.4)
        loss = propagate_information_loss(topology, rates, failed)
        assert all(loss[t] == 1.0 for t in failed)

    @given(specs, topology_seeds)
    @settings(max_examples=30, deadline=None)
    def test_fidelity_antitone_in_failures(self, spec, seed):
        topology, rates = _instance(spec, seed)
        small = _failure_set(topology, seed, 0.2)
        large = small | _failure_set(topology, seed + 1, 0.3)
        assert output_fidelity(topology, rates, large) <= (
            output_fidelity(topology, rates, small) + 1e-9
        )


class TestFidelityInvariants:
    @given(specs, topology_seeds)
    @settings(max_examples=30, deadline=None)
    def test_worst_case_bounds(self, spec, seed):
        topology, rates = _instance(spec, seed)
        assert worst_case_fidelity(topology, rates, topology.tasks()) == 1.0
        assert worst_case_fidelity(topology, rates, ()) == 0.0

    @given(specs, topology_seeds)
    @settings(max_examples=30, deadline=None)
    def test_worst_case_monotone_in_plan(self, spec, seed):
        topology, rates = _instance(spec, seed)
        tasks = sorted(topology.tasks())
        half = frozenset(tasks[: len(tasks) // 2])
        more = half | {tasks[-1]}
        assert worst_case_fidelity(topology, rates, more) >= (
            worst_case_fidelity(topology, rates, half) - 1e-9
        )


class TestPlannerInvariants:
    @given(specs, topology_seeds, st.floats(0.1, 0.9))
    @settings(max_examples=25, deadline=None)
    def test_plans_respect_budget(self, spec, seed, fraction):
        topology, rates = _instance(spec, seed)
        budget = max(1, int(topology.num_tasks * fraction))
        for planner in (GreedyPlanner(), StructureAwarePlanner()):
            plan = planner.plan(topology, rates, budget)
            assert plan.usage <= budget
            assert plan.replicated <= set(topology.tasks())

    @given(specs, topology_seeds)
    @settings(max_examples=15, deadline=None)
    def test_planners_deterministic(self, spec, seed):
        topology, rates = _instance(spec, seed)
        budget = max(1, topology.num_tasks // 3)
        for planner_cls in (GreedyPlanner, StructureAwarePlanner):
            a = planner_cls().plan(topology, rates, budget)
            b = planner_cls().plan(topology, rates, budget)
            assert a.replicated == b.replicated

    @given(specs, topology_seeds)
    @settings(max_examples=15, deadline=None)
    def test_sa_trajectory_values_monotone(self, spec, seed):
        topology, rates = _instance(spec, seed)
        trajectory = StructureAwarePlanner().plan_trajectory(
            topology, rates, topology.num_tasks
        )
        values = [
            worst_case_fidelity(topology, rates, p.replicated) for p in trajectory
        ]
        assert all(b >= a - 1e-9 for a, b in zip(values, values[1:]))


class TestMCTreeInvariants:
    @given(topology_seeds)
    @settings(max_examples=20, deadline=None)
    def test_trees_span_source_to_sink(self, seed):
        spec = TopologySpec(n_operators=(2, 4), parallelism=(1, 3))
        topology, rates = _instance(spec, seed)
        sources = set(topology.source_tasks())
        sinks = set(topology.sink_tasks())
        for tree in enumerate_mc_trees(topology, limit=5000):
            assert tree & sources
            assert tree & sinks
            assert worst_case_fidelity(topology, rates, tree) > 0.0


class TestPartitioningProperties:
    @given(st.integers(1, 12), st.integers(1, 12),
           st.sampled_from(list(Partitioning)))
    @settings(max_examples=60, deadline=None)
    def test_weights_partition_upstream_output(self, n_up, n_down, pattern):
        if pattern is Partitioning.ONE_TO_ONE and n_up != n_down:
            return
        if pattern is Partitioning.SPLIT and n_down <= n_up:
            return
        if pattern is Partitioning.MERGE and n_up <= n_down:
            return
        up = OperatorSpec("U", n_up, OperatorKind.SOURCE)
        down = OperatorSpec("D", n_down, OperatorKind.INDEPENDENT)
        weights = substream_weights(up, down, pattern)
        for i in range(n_up):
            total = sum(w for (u, _d), w in weights.items() if u == i)
            assert abs(total - 1.0) < 1e-9
        covered = {j for (_u, j) in weights}
        assert covered == set(range(n_down))


# ----------------------------------------------------------------------
# Scenario and result codecs
# ----------------------------------------------------------------------
_labels = st.text(max_size=8)
_json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-10**6, 10**6)
    | st.floats(allow_nan=False, allow_infinity=False) | _labels,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=5), inner, max_size=3),
    max_leaves=6,
)
_params = st.dictionaries(st.text(max_size=6), _json_values, max_size=3)
_seconds = st.floats(0.0, 1e6)
_recipes = st.builds(
    TopologyRecipe,
    operators=st.lists(st.builds(
        OperatorDef, name=_labels, parallelism=st.integers(1, 8),
        kind=st.sampled_from([k.value for k in OperatorKind]),
        selectivity=st.floats(0.0, 1.0),
        task_weights=st.lists(st.floats(0.0, 1.0), max_size=3).map(tuple),
    ), max_size=3).map(tuple),
    edges=st.lists(st.builds(
        EdgeDef, upstream=_labels, downstream=_labels,
        pattern=st.sampled_from([p.value for p in Partitioning]),
    ), max_size=3).map(tuple),
)
_budgets = st.one_of(
    st.tuples(st.none(), st.none()),
    st.tuples(st.integers(0, 100), st.none()),
    st.tuples(st.none(), st.floats(0.0, 1.0)),
)
scenarios = st.builds(
    lambda budgets, **fields: Scenario(budget=budgets[0],
                                       budget_fraction=budgets[1], **fields),
    budgets=_budgets,
    name=_labels,
    workload=st.sampled_from(["", "synthetic", "custom", "zipf"]),
    workload_params=_params,
    topology=st.none() | _recipes,
    planner=st.sampled_from(["structure-aware", "greedy", "none"]),
    planner_params=_params,
    objective=st.sampled_from(["OF", "IC"]),
    engine=_params,
    recovery=st.sampled_from(["", "ppa", "checkpoint-replay"]),
    recovery_params=_params,
    quality=st.dictionaries(st.sampled_from(QUALITY_KEYS), _seconds,
                            max_size=2),
    failures=st.lists(st.builds(FailureSpec, model=_labels, at=_seconds,
                                params=_params), max_size=3).map(tuple),
    duration=st.floats(1e-3, 1e6),
    seed=st.integers(0, 2**31),
)
#: Stands for "remove the value" among the drawn replacements.
_REMOVE = object()


def _paths(node, prefix=()):
    """Every dotted location of a JSON document (object keys, list items)."""
    items = node.items() if isinstance(node, dict) else \
        enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield prefix + (key,)
        yield from _paths(child, prefix + (key,))


def _replaced(document, path, value):
    out = copy.deepcopy(document)
    node = out
    for key in path[:-1]:
        node = node[key]
    if value is _REMOVE:
        del node[path[-1]]
    else:
        node[path[-1]] = value
    return out


class TestCodecProperties:
    @given(scenarios)
    @settings(max_examples=150, deadline=None)
    def test_scenario_round_trips_through_json(self, scenario):
        document = scenario.to_dict()
        text = json.dumps(document, allow_nan=False)
        assert json.loads(text) == document
        assert Scenario.from_dict(document) == scenario
        assert Scenario.from_json(text) == scenario

    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_one_replaced_value_decodes_or_raises_scenario_error(self, data):
        decode, document = data.draw(st.sampled_from([
            (Scenario.from_dict, None),
            (ScenarioResult.from_dict, RESULT.to_dict()),
        ]))
        if document is None:
            document = data.draw(scenarios).to_dict()
        path = data.draw(st.sampled_from(sorted(_paths(document), key=str)))
        value = data.draw(st.just(_REMOVE) | _json_values
                          | st.floats() | st.integers())
        try:
            decode(_replaced(document, path, value))
        except ScenarioError:
            pass


# ----------------------------------------------------------------------
# Source batches: the lazy run against the list its reference builds
# ----------------------------------------------------------------------
_intervals = st.sampled_from([0.25, 0.5, 1.0, 2.0])
_key_spaces = st.integers(1, 40)
_sources = st.one_of(
    st.builds(UniformRateSource, st.floats(0.0, 300.0),
              batch_interval=_intervals, key_space=_key_spaces),
    st.builds(SquareWaveSource, high_rate=st.floats(0.0, 300.0),
              low_rate=st.floats(0.0, 60.0), period_batches=st.integers(2, 12),
              duty=st.floats(0.05, 0.95), batch_interval=_intervals,
              key_space=_key_spaces),
)


def _batch_in_phase(source, index: int, burst: bool) -> int:
    """``index`` moved into the burst or trough phase of its period."""
    if not isinstance(source, SquareWaveSource):
        return index
    period, high = source.period_batches, source.high_batches
    start = index - index % period
    return start + (index % high if burst else high + index % (period - high))


class TestSourceRunParity:
    @given(_sources, st.integers(0, 15), st.integers(0, 10_000),
           st.booleans(), st.data())
    @settings(max_examples=150, deadline=None)
    def test_run_equals_the_reference_list(self, source, owner, index,
                                           burst, data):
        task = TaskId("S", owner)
        index = _batch_in_phase(source, index, burst)
        if isinstance(source, SquareWaveSource):
            assert source.is_burst(index) == burst
        run = source.tuples_for_batch(task, index)
        expected = source.tuples_for_batch_reference(task, index)
        assert type(run) is KeyCycleRun and type(expected) is list
        n = len(expected)
        assert len(run) == n and bool(run) == bool(expected)
        assert list(run) == expected
        for i in range(-n, n):
            assert run[i] == expected[i]
        for i in (n, -n - 1):
            with pytest.raises(IndexError):
                run[i]
        # The selectivity kernel's periodic slice, then arbitrary ones.
        for first in range(3):
            assert run[first::2] == expected[first::2]
        for _ in range(4):
            cut = data.draw(st.slices(n + 2))
            assert run[cut] == expected[cut]
            assert type(run[cut]) is list
        assert run == expected and expected == run
        assert not (run != expected) and not (expected != run)
        other = expected[:-1] if n else [("k0", (owner, 0))]
        assert run != other and other != run

    @given(_sources, st.integers(0, 15), st.integers(0, 10_000))
    @settings(max_examples=50, deadline=None)
    def test_run_copies_as_itself_and_pickles(self, source, owner, index):
        run = source.tuples_for_batch(TaskId("S", owner), index)
        assert copy.deepcopy(run) is run
        clone = pickle.loads(pickle.dumps(run))
        assert type(clone) is KeyCycleRun and clone == run
        with pytest.raises(TypeError):
            hash(run)
