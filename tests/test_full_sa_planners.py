"""Tests for Algorithm 4 (full-topology) and Algorithm 5 (structure-aware)."""

import pytest

from repro.core import (
    OF_OBJECTIVE,
    FullTopologyPlanner,
    GreedyPlanner,
    PlanningContext,
    StructureAwarePlanner,
    StructuredTopologyPlanner,
    budget_from_fraction,
    worst_case_fidelity,
)
from repro.scenarios import make_bundle, make_planner
from repro.topology import (
    Partitioning,
    SourceRates,
    TaskId,
    TopologyBuilder,
    TopologySpec,
    generate_source_rates,
    generate_topology,
    linear_chain,
    propagate_rates,
    uniform_source_rates,
)


class TestFullTopologyPlanner:
    def test_base_plan_one_task_per_operator(self, chain_topology, chain_rates):
        ctx = PlanningContext(chain_topology, chain_rates)
        base = FullTopologyPlanner().base_plan(ctx)
        assert base is not None
        assert len(base) == 4
        assert {t.operator for t in base} == {"S", "A", "B", "C"}

    def test_base_plan_yields_positive_fidelity(self, chain_topology, chain_rates):
        base = FullTopologyPlanner().base_plan(
            PlanningContext(chain_topology, chain_rates)
        )
        assert worst_case_fidelity(chain_topology, chain_rates, base) > 0.0

    def test_base_picks_heaviest_tasks(self):
        topo = (
            TopologyBuilder()
            .source("S", 2, task_weights=(1.0, 1.0))
            .operator("A", 3, task_weights=(1.0, 5.0, 1.0))
            .operator("B", 1)
            .chain("S", "A", "B", pattern=Partitioning.FULL)
            .build()
        )
        rates = propagate_rates(topo, uniform_source_rates(topo, 10.0))
        base = FullTopologyPlanner().base_plan(PlanningContext(topo, rates))
        assert TaskId("A", 1) in base  # the 5x key-share task

    def test_extend_adds_single_best_task(self, chain_topology, chain_rates):
        planner = FullTopologyPlanner()
        ctx = PlanningContext(chain_topology, chain_rates)
        base = planner.base_plan(ctx)
        ext = planner.extend(ctx, base, 3)
        assert ext is not None and len(ext) == 1
        assert not ext & base

    def test_extend_zero_budget_returns_none(self, chain_topology, chain_rates):
        planner = FullTopologyPlanner()
        ctx = PlanningContext(chain_topology, chain_rates)
        assert planner.extend(ctx, frozenset(), 0) is None

    def test_plan_budget_below_operator_count_is_empty(self, chain_topology,
                                                       chain_rates):
        plan = FullTopologyPlanner().plan(chain_topology, chain_rates, 3)
        assert plan.usage == 0

    def test_plan_monotone_in_budget(self, chain_topology, chain_rates):
        planner = FullTopologyPlanner()
        values = [
            worst_case_fidelity(
                chain_topology, chain_rates,
                planner.plan(chain_topology, chain_rates, b).replicated,
            )
            for b in (4, 6, 8, 11)
        ]
        assert values == sorted(values)
        assert values[-1] == 1.0


class TestStructureAwarePlanner:
    def test_delegates_to_full_on_full_chain(self, chain_topology, chain_rates):
        sa = StructureAwarePlanner().plan(chain_topology, chain_rates, 6)
        full = FullTopologyPlanner().plan(chain_topology, chain_rates, 6)
        sa_value = worst_case_fidelity(chain_topology, chain_rates, sa.replicated)
        full_value = worst_case_fidelity(chain_topology, chain_rates, full.replicated)
        assert sa_value == pytest.approx(full_value)

    def test_handles_mixed_topology(self):
        topo = (
            TopologyBuilder()
            .source("S", 4)
            .operator("A", 4)
            .operator("B", 2)
            .operator("C", 2)
            .operator("D", 1)
            .connect("S", "A", Partitioning.ONE_TO_ONE)
            .connect("A", "B", Partitioning.MERGE)
            .connect("B", "C", Partitioning.FULL)
            .connect("C", "D", Partitioning.FULL)
            .build()
        )
        rates = propagate_rates(topo, uniform_source_rates(topo, 10.0))
        plan = StructureAwarePlanner().plan(topo, rates, 8)
        assert plan.usage <= 8
        assert worst_case_fidelity(topo, rates, plan.replicated) > 0.0

    def test_empty_when_budget_below_bases(self, join_topology, join_rates):
        plan = StructureAwarePlanner().plan(join_topology, join_rates, 2)
        assert plan.usage == 0

    def test_trajectory_is_monotone(self, join_topology, join_rates):
        trajectory = StructureAwarePlanner().plan_trajectory(
            join_topology, join_rates, join_topology.num_tasks
        )
        usages = [p.usage for p in trajectory]
        assert usages == sorted(usages)
        values = [
            worst_case_fidelity(join_topology, join_rates, p.replicated)
            for p in trajectory
        ]
        assert values == sorted(values)

    def test_beats_greedy_on_random_topologies_in_aggregate(self):
        """The Fig. 14 headline: SA > Greedy on average at small budgets.

        Per-instance SA may lose a little (Algorithm 5 only spends budget on
        complete MC-trees, so leftover units can go unused), but the mean
        over topologies must favour SA clearly.
        """
        spec = TopologySpec(n_operators=(4, 6), parallelism=(2, 4))
        sa_values, greedy_values = [], []
        for seed in range(12):
            topo = generate_topology(spec, seed)
            rates = propagate_rates(topo, generate_source_rates(topo, seed))
            budget = max(1, topo.num_tasks // 4)
            sa = StructureAwarePlanner().plan(topo, rates, budget)
            greedy = GreedyPlanner().plan(topo, rates, budget)
            sa_values.append(worst_case_fidelity(topo, rates, sa.replicated))
            greedy_values.append(worst_case_fidelity(topo, rates, greedy.replicated))
        sa_mean = sum(sa_values) / len(sa_values)
        greedy_mean = sum(greedy_values) / len(greedy_values)
        assert sa_mean > greedy_mean
        wins = sum(s > g + 1e-9 for s, g in zip(sa_values, greedy_values))
        losses = sum(s < g - 1e-9 for s, g in zip(sa_values, greedy_values))
        assert wins > losses

    def test_deterministic(self, join_topology, join_rates):
        a = StructureAwarePlanner().plan(join_topology, join_rates, 8)
        b = StructureAwarePlanner().plan(join_topology, join_rates, 8)
        assert a.replicated == b.replicated

    def test_full_budget_reaches_full_fidelity(self, join_topology, join_rates):
        plan = StructureAwarePlanner().plan(
            join_topology, join_rates, join_topology.num_tasks
        )
        assert worst_case_fidelity(
            join_topology, join_rates, plan.replicated
        ) == pytest.approx(1.0)


class TestPlannerInstanceReuse:
    """One planner instance across topologies and rates plans like fresh ones.

    The δ ranking depends on the rates and the segments on the topology; the
    memo of either must never be served to a different pair.
    """

    @staticmethod
    def _skewed(topology, heavy: int):
        sources = topology.source_tasks()
        return propagate_rates(topology, SourceRates(per_task={
            t: (9.0 if t.index == heavy else 1.0) for t in sources
        }))

    def test_full_topology_planner(self):
        chain = linear_chain([2, 2, 1])
        wide = linear_chain([3, 2, 2])
        cases = [
            (chain, self._skewed(chain, 0)),
            (chain, self._skewed(chain, 1)),  # same topology, new rates
            (wide, self._skewed(wide, 2)),
            (chain, self._skewed(chain, 0)),
        ]
        shared = FullTopologyPlanner()
        for topology, rates in cases:
            for budget in (3, 4):
                assert shared.plan(topology, rates, budget).replicated == \
                    FullTopologyPlanner().plan(topology, rates, budget).replicated
        # The heavy source is the one kept alive, whichever it is.
        assert TaskId("S", 1) in shared.plan(chain, cases[1][1], 3).replicated

    def test_structured_topology_planner(self):
        small = linear_chain([4, 2, 1], pattern=Partitioning.MERGE)
        large = linear_chain([8, 4, 2, 1], pattern=Partitioning.MERGE)
        cases = [
            (small, self._skewed(small, 0)),
            (large, self._skewed(large, 5)),
            (small, self._skewed(small, 3)),
        ]
        shared = StructuredTopologyPlanner()
        for topology, rates in cases:
            for budget in (3, 6):
                assert shared.plan(topology, rates, budget).replicated == \
                    StructuredTopologyPlanner().plan(topology, rates, budget).replicated


class TestFig14Shape:
    """The paper's Fig. 14 claim on the pool the benchmark's planner sweep uses.

    Random Sec. VI-C topologies (5-10 operators, parallelism 10-20, Zipf task
    weights), structured and full, with 0 % and 50 % joins; greedy and
    structure-aware plans at replication fractions 0.1, 0.3 and 0.5.  Summed
    over the pool, structure-aware keeps at least the fidelity greedy does
    (single topologies can go either way by a hair), and no plan exceeds its
    budget.
    """

    def test_structure_aware_at_least_greedy_in_aggregate(self):
        of_sum = {"greedy": 0.0, "structure-aware": 0.0}
        for topology_class in ("structured", "full"):
            for join_fraction in (0.0, 0.5):
                bundle = make_bundle(
                    "zipf", seed=2, n_operators=[5, 10], parallelism=[10, 20],
                    zipf_s=0.1, topology_class=topology_class,
                    join_fraction=join_fraction, base_rate=1000.0)
                for fraction in (0.1, 0.3, 0.5):
                    budget = budget_from_fraction(bundle.topology, fraction)
                    for name in of_sum:
                        plan = make_planner(name, OF_OBJECTIVE).plan(
                            bundle.topology, bundle.rates, budget)
                        assert plan.usage <= budget
                        value = worst_case_fidelity(
                            bundle.topology, bundle.rates, plan.replicated)
                        assert 0.0 <= value <= 1.0
                        of_sum[name] += value
        assert of_sum["structure-aware"] >= of_sum["greedy"]
        assert of_sum["structure-aware"] > 0.0
