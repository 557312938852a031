"""Replication plans, planning objectives and the planner interface.

A PPA replication plan (Sec. II-B) is the set of tasks chosen for *active*
replication on the standby nodes; every task is always passively replicated.
Planners maximise a :class:`PlanObjective` — Output Fidelity by default, but
Internal Completeness is pluggable so the metric-validation experiment
(Fig. 12) can optimise plans under either metric.
"""

from __future__ import annotations

import abc
import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import AbstractSet, Callable, Iterable

from repro.core.completeness import internal_completeness
from repro.core.fidelity import output_fidelity
from repro.errors import PlanningError
from repro.topology.graph import Topology
from repro.topology.operators import TaskId
from repro.topology.rates import StreamRates

#: Signature of a metric evaluated on a failed-task set.
MetricFn = Callable[[Topology, StreamRates, AbstractSet[TaskId]], float]


@dataclass(frozen=True)
class PlanObjective:
    """A quality metric a planner maximises under worst-case correlated failure."""

    name: str
    metric: MetricFn

    def plan_value(self, topology: Topology, rates: StreamRates,
                   replicated: AbstractSet[TaskId],
                   mask: AbstractSet[TaskId] | None = None) -> float:
        """Metric value when every unreplicated task inside ``mask`` fails.

        ``mask`` defaults to all tasks (the worst-case correlated failure of
        Sec. IV).  A narrower mask evaluates a sub-topology plan while
        assuming the rest of the topology is alive, which is how the
        structure-aware planner scores sub-plans before merging.
        """
        candidates = mask if mask is not None else topology.tasks()
        failed = frozenset(candidates).difference(replicated)
        return self.metric(topology, rates, failed)

    def single_failure_value(self, topology: Topology, rates: StreamRates,
                             task: TaskId) -> float:
        """Metric value when only ``task`` fails (greedy ranking key)."""
        return self.metric(topology, rates, frozenset((task,)))


#: Maximise Output Fidelity (Eq. 4) — the paper's objective.
OF_OBJECTIVE = PlanObjective("OF", output_fidelity)

#: Maximise Internal Completeness — the baseline objective of [4].
IC_OBJECTIVE = PlanObjective("IC", internal_completeness)


@dataclass(frozen=True)
class ReplicationPlan:
    """An immutable set of actively replicated tasks plus provenance."""

    replicated: frozenset[TaskId]
    planner: str = ""
    budget: int | None = None

    @property
    def usage(self) -> int:
        """Number of actively replicated tasks (resource usage)."""
        return len(self.replicated)

    def __contains__(self, task: TaskId) -> bool:
        return task in self.replicated

    def union(self, tasks: Iterable[TaskId]) -> "ReplicationPlan":
        """A new plan with ``tasks`` added."""
        return ReplicationPlan(self.replicated | frozenset(tasks), self.planner, self.budget)

    def value(self, topology: Topology, rates: StreamRates,
              objective: PlanObjective = OF_OBJECTIVE) -> float:
        """Objective value under the worst-case correlated failure."""
        return objective.plan_value(topology, rates, self.replicated)


@dataclass(frozen=True)
class PlanningContext:
    """Everything a planner needs: topology, rates, objective, operator mask.

    ``ops`` restricts planning to a sub-topology (used by the structure-aware
    planner); the objective is still evaluated on the full topology with
    tasks outside ``ops`` assumed alive.
    """

    topology: Topology
    rates: StreamRates
    objective: PlanObjective = OF_OBJECTIVE
    ops: frozenset[str] = field(default=frozenset())

    def __post_init__(self) -> None:
        if not self.ops:
            object.__setattr__(self, "ops", frozenset(self.topology.operator_names))

    @cached_property
    def mask_tasks(self) -> frozenset[TaskId]:
        """Tasks eligible to fail/replicate in this context."""
        return frozenset(
            t for name in self.ops for t in self.topology.tasks_of(name)
        )

    def value(self, replicated: AbstractSet[TaskId]) -> float:
        """Objective value of a plan within this context's mask."""
        return self.objective.plan_value(
            self.topology, self.rates, replicated, mask=self.mask_tasks
        )


class Planner(abc.ABC):
    """Interface of every replication planner.

    Concrete planners implement :meth:`plan`; they must never exceed the
    budget and must be deterministic for a given topology/rates pair.
    """

    #: Short name used in reports ("DP", "Greedy", "SA", ...).
    name: str = "planner"

    def __init__(self, objective: PlanObjective = OF_OBJECTIVE):
        self.objective = objective

    @abc.abstractmethod
    def plan(self, topology: Topology, rates: StreamRates, budget: int) -> ReplicationPlan:
        """Choose at most ``budget`` tasks for active replication."""

    def _check_budget(self, topology: Topology, budget: int) -> int:
        if budget < 0:
            raise PlanningError(f"budget must be >= 0, got {budget}")
        return min(budget, topology.num_tasks)

    def _finish(self, replicated: AbstractSet[TaskId], budget: int) -> ReplicationPlan:
        return ReplicationPlan(frozenset(replicated), planner=self.name, budget=budget)


def budget_from_fraction(topology: Topology, fraction: float) -> int:
    """Translate a resource-consumption fraction (Fig. 12–14 x-axis) to a budget.

    The paper expresses replication resources as a fraction of the number of
    tasks in the topology; we round to the nearest whole task.
    """
    if not 0.0 <= fraction <= 1.0:
        raise PlanningError(f"fraction must be within [0, 1], got {fraction}")
    return int(math.floor(fraction * topology.num_tasks + 0.5))
