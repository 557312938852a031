"""Cluster model: worker nodes, standby nodes, task placement.

Mirrors the paper's deployment (Sec. V-A, VI): primary tasks run on worker
nodes; a pool of standby nodes stores checkpoints, hosts active replicas and
receives recovered tasks.  A *correlated failure* kills many worker nodes at
once (Sec. VI injects it by killing every node hosting a primary task).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

from repro.errors import SimulationError
from repro.topology.graph import Topology
from repro.topology.operators import TaskId


def placement_node_map(tasks: Sequence[TaskId], nodes: Sequence[str],
                       pins: Mapping[TaskId, str] | None = None
                       ) -> dict[TaskId, str]:
    """Task → node-name map: round-robin over ``nodes`` with explicit pins.

    The single source of truth for the default placement order shared by the
    ``rack-correlated`` failure model and the ``k-safe`` recovery scheme —
    both must agree on which node hosts a task, or a blast radius computed
    by one would not match the kills injected by the other.  ``pins``
    overrides individual tasks; unpinned tasks keep their round-robin slot.
    """
    if not nodes:
        raise SimulationError("placement needs at least one node")
    node_of = {
        task: nodes[position % len(nodes)]
        for position, task in enumerate(tasks)
    }
    if pins:
        node_of.update(pins)
    return node_of


class NodeKind(enum.Enum):
    """Role of a machine: primaries run on workers, replicas on standbys."""

    WORKER = "worker"
    STANDBY = "standby"


@dataclass
class Node:
    """One machine; hosts tasks and can fail."""

    name: str
    kind: NodeKind
    failed: bool = False
    tasks: set[TaskId] = field(default_factory=set)

    def __repr__(self) -> str:  # pragma: no cover - trivial
        state = "FAILED" if self.failed else "up"
        return f"Node({self.name}, {self.kind.value}, {state}, tasks={len(self.tasks)})"


class Cluster:
    """Workers + standbys with a primary-task placement map."""

    def __init__(self, n_workers: int, n_standby: int):
        if n_workers < 1:
            raise SimulationError("cluster needs at least one worker node")
        if n_standby < 0:
            raise SimulationError("standby node count must be >= 0")
        self.workers = [Node(f"worker-{i}", NodeKind.WORKER) for i in range(n_workers)]
        self.standbys = [Node(f"standby-{i}", NodeKind.STANDBY) for i in range(n_standby)]
        self._by_name = {n.name: n for n in self.workers + self.standbys}
        self._primary: dict[TaskId, Node] = {}
        self._standby_for: dict[TaskId, Node] = {}

    # ------------------------------------------------------------------
    def node(self, name: str) -> Node:
        """The node called ``name`` (raises for unknown names)."""
        try:
            return self._by_name[name]
        except KeyError:
            raise SimulationError(f"unknown node {name!r}") from None

    def assign(self, task: TaskId, node_name: str) -> None:
        """Place ``task``'s primary on ``node_name`` (a worker)."""
        node = self.node(node_name)
        if node.kind is not NodeKind.WORKER:
            raise SimulationError(f"primaries must run on workers, not {node_name!r}")
        previous = self._primary.get(task)
        if previous is not None:
            previous.tasks.discard(task)
        node.tasks.add(task)
        self._primary[task] = node

    def place_round_robin(self, topology: Topology,
                          order: Sequence[TaskId] | None = None) -> None:
        """Spread primaries over workers round-robin (the default placement)."""
        tasks = tuple(order) if order is not None else topology.tasks()
        for position, task in enumerate(tasks):
            self.assign(task, self.workers[position % len(self.workers)].name)

    def primary_node(self, task: TaskId) -> Node:
        """The worker hosting ``task``'s primary (raises if unplaced)."""
        try:
            return self._primary[task]
        except KeyError:
            raise SimulationError(f"task {task!r} has no placement") from None

    def standby_node(self, task: TaskId) -> Node:
        """The standby assigned to ``task`` (checkpoints, replica, recovery)."""
        if not self.standbys:
            raise SimulationError("cluster has no standby nodes")
        node = self._standby_for.get(task)
        if node is None:
            node = self.standbys[len(self._standby_for) % len(self.standbys)]
            self._standby_for[task] = node
        return node

    # ------------------------------------------------------------------
    def fail_nodes(self, names: Iterable[str]) -> list[TaskId]:
        """Mark nodes failed; returns the primary tasks that just died."""
        died: list[TaskId] = []
        for name in names:
            node = self.node(name)
            if node.failed:
                continue
            node.failed = True
            died.extend(sorted(node.tasks))
        return died

    def restore_node(self, name: str) -> None:
        """Bring a failed node back (used by repair scenarios in tests)."""
        self.node(name).failed = False

    def nodes_hosting(self, tasks: Iterable[TaskId]) -> list[str]:
        """Names of the worker nodes hosting any of ``tasks`` (dedup, sorted)."""
        return sorted({self.primary_node(t).name for t in tasks})

    def failed_tasks(self) -> list[TaskId]:
        """Primary tasks currently on failed nodes."""
        return sorted(
            t for t, node in self._primary.items() if node.failed
        )
