"""Algorithm 1: exact dynamic programming over MC-trees (Sec. IV-A).

The DP grows candidate plans bottom-up: at resource usage ``u`` it extends
every surviving candidate plan with any MC-tree that contributes *exactly*
``u − |plan|`` new tasks, deduplicating plans by task set.  A candidate is
retired once no remaining tree can ever absorb its budget gap.  The plan with
the maximal objective value (ties broken towards fewer tasks, Theorem 1) is
returned.

Worst-case cost is exponential in the number of MC-trees, exactly as the
paper states; the optional ``beam`` keeps only the best ``beam`` candidates
per usage level, trading optimality for tractability (an extension over the
paper, disabled by default).

:class:`BruteForcePlanner` enumerates every subset of MC-trees and exists as
a test oracle for the DP's optimality.
"""

from __future__ import annotations

import itertools

from repro.core.mc_trees import DEFAULT_LIMIT, enumerate_mc_trees
from repro.core.plans import OF_OBJECTIVE, Planner, PlanObjective, ReplicationPlan
from repro.topology.graph import Topology
from repro.topology.operators import TaskId
from repro.topology.rates import StreamRates


class DynamicProgrammingPlanner(Planner):
    """Exact (optimal) planner; exponential in the number of MC-trees."""

    name = "DP"

    def __init__(self, objective: PlanObjective = OF_OBJECTIVE, *,
                 tree_limit: int = DEFAULT_LIMIT, beam: int | None = None):
        super().__init__(objective)
        self.tree_limit = tree_limit
        self.beam = beam

    def plan(self, topology: Topology, rates: StreamRates, budget: int) -> ReplicationPlan:
        budget = self._check_budget(topology, budget)
        trees = enumerate_mc_trees(topology, limit=self.tree_limit)
        if budget == 0 or not trees:
            return self._finish(frozenset(), budget)

        candidates: set[frozenset[TaskId]] = {frozenset()}
        for usage in range(1, budget + 1):
            additions: set[frozenset[TaskId]] = set()
            retired: set[frozenset[TaskId]] = set()
            for plan in candidates:
                gap = usage - len(plan)
                expandable = False
                for tree in trees:
                    missing = len(tree - plan)
                    if missing == 0:
                        continue
                    if missing > gap:
                        expandable = True  # may fit at a later usage level
                        continue
                    if missing == gap:
                        expandable = True
                        additions.add(plan | tree)
                if not expandable:
                    retired.add(plan)
            candidates -= retired
            candidates |= additions
            if self.beam is not None and len(candidates) > self.beam:
                candidates = set(
                    sorted(
                        candidates,
                        key=lambda p: (-self._value(topology, rates, p), len(p), sorted(p)),
                    )[: self.beam]
                )
            if not candidates:
                candidates = {frozenset()}

        best = max(
            candidates,
            key=lambda p: (self._value(topology, rates, p), -len(p), [str(t) for t in sorted(p)]),
        )
        return self._finish(best, budget)

    def _value(self, topology: Topology, rates: StreamRates,
               plan: frozenset[TaskId]) -> float:
        return self.objective.plan_value(topology, rates, plan)


class BruteForcePlanner(Planner):
    """Test oracle: tries every subset of MC-trees whose union fits the budget."""

    name = "BruteForce"

    def __init__(self, objective: PlanObjective = OF_OBJECTIVE, *,
                 tree_limit: int = 4096):
        super().__init__(objective)
        self.tree_limit = tree_limit

    def plan(self, topology: Topology, rates: StreamRates, budget: int) -> ReplicationPlan:
        budget = self._check_budget(topology, budget)
        trees = enumerate_mc_trees(topology, limit=self.tree_limit)
        best: frozenset[TaskId] = frozenset()
        best_value = self.objective.plan_value(topology, rates, best)
        for size in range(1, len(trees) + 1):
            for combo in itertools.combinations(trees, size):
                union = frozenset().union(*combo)
                if len(union) > budget:
                    continue
                value = self.objective.plan_value(topology, rates, union)
                if value > best_value or (value == best_value and len(union) < len(best)):
                    best, best_value = union, value
        return self._finish(best, budget)
