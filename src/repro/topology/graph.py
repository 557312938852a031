"""Immutable query-topology DAG at operator *and* task granularity.

A :class:`Topology` is built from :class:`~repro.topology.operators.OperatorSpec`
objects plus :class:`StreamEdge` objects and is immutable afterwards.  On
construction it validates the DAG, materialises substream weights for every
edge (via :mod:`repro.topology.partitioning`) and caches task-level adjacency
so that metric computation and planning never have to re-derive structure.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Iterable, NamedTuple, Sequence

from repro.errors import TopologyError
from repro.topology.operators import OperatorKind, OperatorSpec, TaskId
from repro.topology.partitioning import Partitioning, substream_weights


@dataclass(frozen=True)
class StreamEdge:
    """A directed stream between two operators with a partitioning pattern."""

    upstream: str
    downstream: str
    pattern: Partitioning

    def __post_init__(self) -> None:
        if self.upstream == self.downstream:
            raise TopologyError(f"operator {self.upstream!r} cannot subscribe to itself")


class InputStream(NamedTuple):
    """One input stream of a task: all substreams from one upstream operator.

    ``substreams`` maps the upstream task to the *fraction of that upstream
    task's output* routed to the owning task.
    """

    upstream_operator: str
    substreams: tuple[tuple[TaskId, float], ...]


class Topology:
    """Validated, immutable DAG of operators parallelised into tasks."""

    def __init__(self, operators: Sequence[OperatorSpec], edges: Sequence[StreamEdge]):
        self._operators: dict[str, OperatorSpec] = {}
        for spec in operators:
            if spec.name in self._operators:
                raise TopologyError(f"duplicate operator name {spec.name!r}")
            self._operators[spec.name] = spec

        self._edges: tuple[StreamEdge, ...] = tuple(edges)
        self._edge_by_pair: dict[tuple[str, str], StreamEdge] = {}
        for edge in self._edges:
            for end in (edge.upstream, edge.downstream):
                if end not in self._operators:
                    raise TopologyError(f"edge references unknown operator {end!r}")
            pair = (edge.upstream, edge.downstream)
            if pair in self._edge_by_pair:
                raise TopologyError(f"duplicate edge {edge.upstream!r} -> {edge.downstream!r}")
            self._edge_by_pair[pair] = edge

        self._upstream: dict[str, tuple[str, ...]] = {name: () for name in self._operators}
        self._downstream: dict[str, tuple[str, ...]] = {name: () for name in self._operators}
        for edge in self._edges:
            self._upstream[edge.downstream] += (edge.upstream,)
            self._downstream[edge.upstream] += (edge.downstream,)

        self._validate_roles()
        self._topo_order = self._toposort()
        self._validate_connectivity()

        self._weights: dict[tuple[str, str], dict[tuple[int, int], float]] = {}
        for edge in self._edges:
            self._weights[(edge.upstream, edge.downstream)] = substream_weights(
                self._operators[edge.upstream], self._operators[edge.downstream], edge.pattern
            )

        self._tasks: tuple[TaskId, ...] = tuple(
            task for name in self._topo_order for task in self._operators[name].tasks()
        )
        self._sink_tasks: tuple[TaskId, ...] = tuple(
            t for spec in self.sinks() for t in spec.tasks()
        )
        self._build_task_adjacency()

    # ------------------------------------------------------------------
    # Validation helpers
    # ------------------------------------------------------------------
    def _validate_roles(self) -> None:
        if not self._operators:
            raise TopologyError("a topology needs at least one operator")
        for name, spec in self._operators.items():
            has_upstream = bool(self._upstream[name])
            if spec.is_source and has_upstream:
                raise TopologyError(f"source operator {name!r} must not have upstream operators")
            if not spec.is_source and not has_upstream:
                raise TopologyError(
                    f"operator {name!r} has no upstream operators; mark it as a source"
                )

    def _toposort(self) -> tuple[str, ...]:
        indegree = {name: len(self._upstream[name]) for name in self._operators}
        queue = deque(name for name in self._operators if indegree[name] == 0)
        order: list[str] = []
        while queue:
            name = queue.popleft()
            order.append(name)
            for succ in self._downstream[name]:
                indegree[succ] -= 1
                if indegree[succ] == 0:
                    queue.append(succ)
        if len(order) != len(self._operators):
            cyclic = sorted(name for name in self._operators if indegree[name] > 0)
            raise TopologyError(f"topology contains a cycle through {cyclic}")
        return tuple(order)

    def _validate_connectivity(self) -> None:
        # Every operator must be reachable from a source and reach a sink, so
        # rates and losses are well defined everywhere.
        reachable: set[str] = set()
        frontier = [name for name in self._operators if self._operators[name].is_source]
        while frontier:
            name = frontier.pop()
            if name in reachable:
                continue
            reachable.add(name)
            frontier.extend(self._downstream[name])
        unreachable = sorted(set(self._operators) - reachable)
        if unreachable:
            raise TopologyError(f"operators unreachable from any source: {unreachable}")

    def _build_task_adjacency(self) -> None:
        outs: dict[TaskId, list[tuple[TaskId, float]]] = {t: [] for t in self._tasks}
        ins: dict[TaskId, list[InputStream]] = {t: [] for t in self._tasks}
        for edge in self._edges:
            weights = self._weights[(edge.upstream, edge.downstream)]
            per_downstream: dict[int, list[tuple[TaskId, float]]] = {}
            for (i, j), w in sorted(weights.items()):
                src = TaskId(edge.upstream, i)
                dst = TaskId(edge.downstream, j)
                outs[src].append((dst, w))
                per_downstream.setdefault(j, []).append((src, w))
            for j, subs in sorted(per_downstream.items()):
                ins[TaskId(edge.downstream, j)].append(
                    InputStream(edge.upstream, tuple(subs))
                )
        self._task_out: dict[TaskId, tuple[tuple[TaskId, float], ...]] = {
            t: tuple(lst) for t, lst in outs.items()
        }
        self._task_in: dict[TaskId, tuple[InputStream, ...]] = {
            t: tuple(lst) for t, lst in ins.items()
        }

    # ------------------------------------------------------------------
    # Operator-level accessors
    # ------------------------------------------------------------------
    def operators(self) -> tuple[OperatorSpec, ...]:
        """All operator specs in insertion order."""
        return tuple(self._operators.values())

    def operator(self, name: str) -> OperatorSpec:
        """The spec of operator ``name`` (raises if unknown)."""
        try:
            return self._operators[name]
        except KeyError:
            raise TopologyError(f"unknown operator {name!r}") from None

    @property
    def operator_names(self) -> tuple[str, ...]:
        return tuple(self._operators)

    def edges(self) -> tuple[StreamEdge, ...]:
        """All operator-level edges, in declaration order."""
        return self._edges

    def edge(self, upstream: str, downstream: str) -> StreamEdge:
        """The edge between two operators (raises if absent)."""
        try:
            return self._edge_by_pair[(upstream, downstream)]
        except KeyError:
            raise TopologyError(f"no edge {upstream!r} -> {downstream!r}") from None

    def has_edge(self, upstream: str, downstream: str) -> bool:
        """Whether an edge upstream -> downstream exists."""
        return (upstream, downstream) in self._edge_by_pair

    def upstream_of(self, name: str) -> tuple[str, ...]:
        """Upstream neighbouring operators of ``name``, in edge order."""
        self.operator(name)
        return self._upstream[name]

    def downstream_of(self, name: str) -> tuple[str, ...]:
        """Downstream neighbouring operators of ``name``, in edge order."""
        self.operator(name)
        return self._downstream[name]

    def sources(self) -> tuple[OperatorSpec, ...]:
        """Operators with :attr:`OperatorKind.SOURCE` kind."""
        return tuple(s for s in self._operators.values() if s.is_source)

    def sinks(self) -> tuple[OperatorSpec, ...]:
        """Operators with no downstream neighbours (the output operators)."""
        return tuple(s for s in self._operators.values() if not self._downstream[s.name])

    def topological_order(self) -> tuple[str, ...]:
        """Operator names in a topological order (sources first)."""
        return self._topo_order

    # ------------------------------------------------------------------
    # Task-level accessors
    # ------------------------------------------------------------------
    def tasks(self) -> tuple[TaskId, ...]:
        """Every task of the topology, grouped by topological operator order."""
        return self._tasks

    def tasks_of(self, name: str) -> tuple[TaskId, ...]:
        """The tasks of operator ``name``, in index order."""
        return self.operator(name).tasks()

    @property
    def num_tasks(self) -> int:
        return len(self._tasks)

    def sink_tasks(self) -> tuple[TaskId, ...]:
        """All tasks of all sink operators."""
        return self._sink_tasks

    def source_tasks(self) -> tuple[TaskId, ...]:
        """All tasks of all source operators."""
        return tuple(t for spec in self.sources() for t in spec.tasks())

    def input_streams(self, task: TaskId) -> tuple[InputStream, ...]:
        """The input streams of ``task``, one per upstream neighbouring operator."""
        try:
            return self._task_in[task]
        except KeyError:
            raise TopologyError(f"unknown task {task!r}") from None

    def output_substreams(self, task: TaskId) -> tuple[tuple[TaskId, float], ...]:
        """The substreams leaving ``task`` as ``(downstream_task, weight)`` pairs."""
        try:
            return self._task_out[task]
        except KeyError:
            raise TopologyError(f"unknown task {task!r}") from None

    def substream_weight(self, src: TaskId, dst: TaskId) -> float:
        """Fraction of ``src``'s output routed to ``dst`` (0.0 if not connected)."""
        weights = self._weights.get((src.operator, dst.operator))
        if weights is None:
            return 0.0
        return weights.get((src.index, dst.index), 0.0)

    def upstream_tasks(self, task: TaskId) -> tuple[TaskId, ...]:
        """All tasks with a substream into ``task``."""
        return tuple(src for stream in self.input_streams(task) for src, _ in stream.substreams)

    def downstream_tasks(self, task: TaskId) -> tuple[TaskId, ...]:
        """All tasks fed by ``task``."""
        return tuple(dst for dst, _ in self.output_substreams(task))

    # ------------------------------------------------------------------
    # Convenience
    # ------------------------------------------------------------------
    def restricted_upstream(self, name: str, within: Iterable[str]) -> tuple[str, ...]:
        """Upstream neighbours of ``name`` that are inside ``within``."""
        allowed = set(within)
        return tuple(u for u in self.upstream_of(name) if u in allowed)

    def describe(self) -> str:
        """Human-readable multi-line summary used by examples and the CLI."""
        lines = [f"Topology with {len(self._operators)} operators / {self.num_tasks} tasks"]
        for name in self._topo_order:
            spec = self._operators[name]
            role = spec.kind.value
            downs = ", ".join(
                f"{e.downstream}({e.pattern.value})"
                for e in self._edges
                if e.upstream == name
            )
            arrow = f" -> {downs}" if downs else " -> (sink)"
            lines.append(f"  {name} [{role} x{spec.parallelism}]{arrow}")
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return (
            f"Topology(operators={len(self._operators)}, tasks={self.num_tasks}, "
            f"edges={len(self._edges)})"
        )


def linear_chain(parallelisms: Sequence[int], pattern: Partitioning = Partitioning.FULL,
                 kind: OperatorKind = OperatorKind.INDEPENDENT,
                 selectivity: float = 1.0) -> Topology:
    """Build a chain topology ``S -> O1 -> ... -> On`` for tests and demos.

    ``parallelisms[0]`` is the source operator's parallelism; all inner edges
    use ``pattern``.
    """
    if len(parallelisms) < 2:
        raise TopologyError("a chain needs a source and at least one operator")
    specs = [OperatorSpec("S", parallelisms[0], OperatorKind.SOURCE)]
    edges = []
    prev = "S"
    for pos, par in enumerate(parallelisms[1:], start=1):
        name = f"O{pos}"
        specs.append(OperatorSpec(name, par, kind, selectivity=selectivity))
        edges.append(StreamEdge(prev, name, pattern))
        prev = name
    return Topology(specs, edges)
