"""Key-based tuple routing along the four partitioning patterns.

The planner-side substream weights (:mod:`repro.topology.partitioning`) are a
rate model; the engine needs the *actual* routing function.  Keys are hashed
with CRC32 so routing is stable across runs and processes (Python's builtin
``hash`` is salted), and the same key always lands on the same downstream
task — which keeps co-partitioned joins correct.

The router is table-driven: for every ``(source task, downstream operator)``
pair a :class:`_DispatchPlan` is computed once at construction, holding the
interned destination :class:`TaskId` instances and (for hash-partitioned
edges) a memoized ``key -> destination index`` table that grows as keys are
seen.  :meth:`Router.distribute` is then a single pass per downstream
operator — no per-tuple CRC32 for repeated keys, no per-tuple ``TaskId``
allocation, no per-destination re-scan.  The original per-tuple routing
functions are kept as :meth:`Router.distribute_reference` so parity tests can
assert the two paths agree on arbitrary topologies.
"""

from __future__ import annotations

import zlib
from typing import Callable, Sequence

from repro.engine.tuples import SHARED_SEQUENCES, KeyedTuple
from repro.topology.graph import StreamEdge, Topology
from repro.topology.operators import TaskId
from repro.topology.partitioning import Partitioning


def stable_hash(key: str) -> int:
    """Deterministic, process-independent hash of a key."""
    return zlib.crc32(key.encode("utf-8"))


def _split_members(upstream_index: int, n_up: int, n_down: int) -> list[int]:
    return [j for j in range(n_down) if j * n_up // n_down == upstream_index]


#: Per-edge key-memo capacity.  Repeated keys (the common, bounded-key-space
#: workloads) stay memoized; a high-cardinality key stream simply stops
#: inserting once the table is full and falls back to hashing per miss, so
#: routing memory stays bounded whatever the workload emits.
KEY_TABLE_CAPACITY = 1 << 16


class _DispatchPlan:
    """Precomputed routing of one source task onto one downstream operator.

    ``targets`` are the interned destination tasks in downstream-index order
    (exactly the source's substream targets on this edge).  ``key_table``
    memoizes ``key -> position in targets`` for hash-partitioned patterns;
    it is ``None`` for single-target patterns (one-to-one, merge), where
    every tuple goes to ``targets[0]``.  For ``full`` edges the table is
    shared across all source tasks of the edge — the key mapping is
    source-independent there.
    """

    __slots__ = ("targets", "key_table")

    def __init__(self, targets: tuple[TaskId, ...],
                 key_table: dict[str, int] | None):
        self.targets = targets
        self.key_table = key_table


class Router:
    """Per-edge routing: distributes a task's output tuples to batches."""

    def __init__(self, topology: Topology):
        self._topology = topology
        self._route_fns: dict[tuple[str, str], Callable[[TaskId, str], int]] = {}
        for edge in topology.edges():
            self._route_fns[(edge.upstream, edge.downstream)] = self._make_route(edge)
        self._plans: dict[TaskId, tuple[_DispatchPlan, ...]] = {}
        self._build_plans()

    @property
    def topology(self) -> Topology:
        """The topology the routing tables were built for."""
        return self._topology

    # ------------------------------------------------------------------
    # Table construction
    # ------------------------------------------------------------------
    def _build_plans(self) -> None:
        topology = self._topology
        for edge in topology.edges():
            hashed = edge.pattern in (Partitioning.SPLIT, Partitioning.FULL)
            # FULL routes every key identically from any source task, so one
            # memo table serves the whole edge; SPLIT member groups differ
            # per source task and get their own tables.
            shared_table: dict[str, int] | None = (
                {} if edge.pattern is Partitioning.FULL else None
            )
            for src in topology.tasks_of(edge.upstream):
                # The substream targets on this edge, in downstream-index
                # order — the same set the per-tuple route functions hit.
                targets = tuple(
                    dst for dst, _w in topology.output_substreams(src)
                    if dst.operator == edge.downstream
                )
                table: dict[str, int] | None = None
                if hashed:
                    table = shared_table if shared_table is not None else {}
                plan = _DispatchPlan(targets, table)
                self._plans[src] = self._plans.get(src, ()) + (plan,)
        for task in topology.tasks():
            self._plans.setdefault(task, ())

    def _make_route(self, edge: StreamEdge) -> Callable[[TaskId, str], int]:
        n_up = self._topology.operator(edge.upstream).parallelism
        n_down = self._topology.operator(edge.downstream).parallelism

        if edge.pattern is Partitioning.ONE_TO_ONE:
            return lambda src, key: src.index
        if edge.pattern is Partitioning.MERGE:
            return lambda src, key: src.index * n_down // n_up
        if edge.pattern is Partitioning.SPLIT:
            members_of = {i: _split_members(i, n_up, n_down) for i in range(n_up)}

            def route_split(src: TaskId, key: str) -> int:
                members = members_of[src.index]
                return members[stable_hash(key) % len(members)]

            return route_split
        # FULL: hash-partition over all downstream tasks.
        return lambda src, key: stable_hash(key) % n_down

    # ------------------------------------------------------------------
    # Distribution
    # ------------------------------------------------------------------
    def distribute(self, src: TaskId, tuples: Sequence[KeyedTuple]
                   ) -> dict[TaskId, Sequence[KeyedTuple]]:
        """Split ``src``'s output tuples into per-downstream-task buckets.

        Every downstream task that ``src`` feeds gets an entry — possibly an
        empty list — because empty batches still act as punctuations.

        Zero-copy contract: on single-destination edges the *input* sequence
        is returned as the destination's bucket (and several such edges
        share it) when it is one of the
        :data:`~repro.engine.tuples.SHARED_SEQUENCES` — an operator's output
        list, or a source's :class:`~repro.engine.tuples.KeyCycleRun`, whose
        tuples are then never built here.  Callers must treat both the input
        and the returned buckets as immutable — they flow straight into
        :class:`Batch` objects.  Hash-partitioned edges fill fresh lists.
        """
        out: dict[TaskId, Sequence[KeyedTuple]] = {}
        crc32 = zlib.crc32
        for plan in self._plans[src]:
            targets = plan.targets
            table = plan.key_table
            if table is None:
                # Single destination: the whole output is one substream —
                # hand the caller's sequence over instead of copying it.
                out[targets[0]] = (tuples if type(tuples) in SHARED_SEQUENCES
                                   else list(tuples))
                continue
            buckets: list[list[KeyedTuple]] = [[] for _ in targets]
            n = len(targets)
            table_get = table.get
            for item in tuples:
                key = item[0]
                pos = table_get(key)
                if pos is None:
                    pos = crc32(key.encode("utf-8")) % n
                    if len(table) < KEY_TABLE_CAPACITY:
                        table[key] = pos
                buckets[pos].append(item)
            for dst, bucket in zip(targets, buckets):
                out[dst] = bucket
        return out

    def distribute_reference(self, src: TaskId, tuples: Sequence[KeyedTuple]
                             ) -> dict[TaskId, list[KeyedTuple]]:
        """Per-tuple reference implementation of :meth:`distribute`.

        Routes every tuple through the original per-edge routing functions.
        Kept (and exercised by the parity tests) as the executable
        specification the table-driven fast path must match exactly.
        """
        out: dict[TaskId, list[KeyedTuple]] = {
            dst: [] for dst, _w in self._topology.output_substreams(src)
        }
        for downstream_op in self._topology.downstream_of(src.operator):
            route = self._route_fns[(src.operator, downstream_op)]
            for key, value in tuples:
                dst = TaskId(downstream_op, route(src, key))
                # Patterns guarantee dst is one of src's substream targets.
                out[dst].append((key, value))
        return out
