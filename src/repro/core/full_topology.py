"""Algorithm 4: the planner for full topologies (Sec. IV-C.2).

In a full topology every task feeds every task of its downstream operators,
so *any* selection of one alive task per operator forms a complete MC-tree —
there is no point enumerating the ``Π parallelism`` trees.  The algorithm
instead ranks the tasks of each operator by ``δ``: the objective gain of
keeping that single task alive while the rest of its operator is failed (and
all other operators are alive).  A base plan takes the best task of every
operator; extensions add one task at a time, choosing the operator whose next
best task yields the highest plan value.
"""

from __future__ import annotations

from repro.core.plans import OF_OBJECTIVE, PlanningContext, PlanObjective
from repro.core.subplanner import SubTopologyPlanner
from repro.topology.graph import Topology
from repro.topology.operators import TaskId
from repro.topology.rates import StreamRates


class FullTopologyPlanner(SubTopologyPlanner):
    """Per-operator δ ranking; never enumerates MC-trees."""

    name = "FullTopology"

    def __init__(self, objective: PlanObjective = OF_OBJECTIVE):
        super().__init__(objective)
        #: (topology, rates, ops, δ) of the context planned last.  Holding the
        #: objects themselves means a recycled ``id()`` can never be served
        #: another topology's δ, and new rates on the same topology miss.
        self._delta_memo: tuple[Topology, StreamRates, frozenset[str],
                                dict[TaskId, float]] | None = None

    # ------------------------------------------------------------------
    def _deltas(self, ctx: PlanningContext) -> dict[TaskId, float]:
        """δ of every task in the context (memoised for the latest context)."""
        memo = self._delta_memo
        if (memo is not None and memo[0] is ctx.topology and memo[1] is ctx.rates
                and memo[2] == ctx.ops):
            return memo[3]
        deltas: dict[TaskId, float] = {}
        for name in sorted(ctx.ops):
            op_tasks = ctx.topology.tasks_of(name)
            for task in op_tasks:
                failed = frozenset(t for t in op_tasks if t != task)
                deltas[task] = self.objective.metric(ctx.topology, ctx.rates, failed)
        self._delta_memo = (ctx.topology, ctx.rates, ctx.ops, deltas)
        return deltas

    def _ranked(self, ctx: PlanningContext, name: str) -> list[TaskId]:
        """Tasks of one operator, best δ first, deterministic ties."""
        deltas = self._deltas(ctx)
        return sorted(
            ctx.topology.tasks_of(name),
            key=lambda t: (-deltas[t], t.index),
        )

    # ------------------------------------------------------------------
    def base_plan(self, ctx: PlanningContext) -> frozenset[TaskId] | None:
        """One task per operator: the δ-argmax of each (Algorithm 4, lines 4–8)."""
        chosen = [self._ranked(ctx, name)[0] for name in sorted(ctx.ops)]
        return frozenset(chosen)

    def extend(self, ctx: PlanningContext, current: frozenset[TaskId],
               max_new_tasks: int) -> frozenset[TaskId] | None:
        """Add the single best next task across operators (lines 10–16)."""
        if max_new_tasks < 1:
            return None
        deltas = self._deltas(ctx)
        best_task: TaskId | None = None
        best_key: tuple[float, float, int, str] | None = None
        for name in sorted(ctx.ops):
            remaining = [t for t in self._ranked(ctx, name) if t not in current]
            if not remaining:
                continue
            candidate = remaining[0]
            value = ctx.value(current | {candidate})
            key = (value, deltas[candidate], -candidate.index, candidate.operator)
            if best_key is None or key > best_key:
                best_key, best_task = key, candidate
        if best_task is None:
            return None
        return frozenset((best_task,))
