"""Algorithm 3: the planner for structured topologies (Sec. IV-C.1).

The topology is split into units (:mod:`repro.core.units`); the MC-trees of a
unit are its *segments*.  Replicating a segment only helps when the segments
it connects to in the other units are replicated too — a partially replicated
MC-tree contributes nothing — so every candidate expansion is a segment
*completed* into a full MC-tree of the planning context: preferring tasks
that are already replicated, then higher-rate substreams.  Candidates are
ranked by profit density ``(value(P ∪ CG) − value(P)) / |CG − P|`` and the
densest one is applied per step.

Where the published pseudocode of Algorithm 3 and the paper's prose
disagree, this implementation follows the prose.
"""

from __future__ import annotations

from repro.core.mc_trees import enumerate_mc_trees
from repro.core.plans import OF_OBJECTIVE, PlanningContext, PlanObjective
from repro.core.subplanner import SubTopologyPlanner
from repro.core.units import split_into_units
from repro.topology.graph import Topology
from repro.topology.operators import TaskId

_EPSILON = 1e-12


def complete_tree(ctx: PlanningContext, seed: frozenset[TaskId],
                  current: frozenset[TaskId]) -> frozenset[TaskId]:
    """Grow ``seed`` into a complete MC-tree of the planning context.

    The completion walks downstream from the seed's root to a sink of the
    context and satisfies every visited task's input requirement (one
    substream per input stream for correlated tasks, one overall for
    independent tasks), preferring tasks already in ``seed``/``current`` and
    breaking ties towards higher substream rates.  Tasks outside the context
    mask are assumed alive and never added.
    """
    topology, rates, allowed = ctx.topology, ctx.rates, set(ctx.ops)
    tree: set[TaskId] = set(seed)
    satisfied: set[TaskId] = set()

    def pick_source(task: TaskId,
                    substreams: tuple[tuple[TaskId, float], ...]) -> TaskId:
        def score(src: TaskId) -> tuple[int, float, int]:
            membership = 2 if src in tree else (1 if src in current else 0)
            return (membership, rates.substream_rate(src, task), -src.index)

        return max((src for src, _w in substreams), key=score)

    def satisfy(task: TaskId) -> None:
        if task in satisfied:
            return
        satisfied.add(task)
        spec = topology.operator(task.operator)
        if spec.is_source:
            return
        streams = [
            s for s in topology.input_streams(task) if s.upstream_operator in allowed
        ]
        if not streams:
            return  # all inputs come from outside the mask (assumed alive)
        if spec.is_correlated:
            chosen = [pick_source(task, s.substreams) for s in streams]
        else:
            chosen = [pick_source(task, tuple(
                (src, w) for s in streams for src, w in s.substreams
            ))]
        for src in chosen:
            tree.add(src)
            satisfy(src)

    def is_local_sink(task: TaskId) -> bool:
        return not any(
            dst.operator in allowed for dst, _w in topology.output_substreams(task)
        )

    for task in sorted(seed):
        satisfy(task)

    roots = sorted(
        t for t in seed
        if not any(dst in tree for dst, _w in topology.output_substreams(t))
    )
    node = roots[0] if roots else sorted(seed)[0]
    while not is_local_sink(node):
        outs = [
            (dst, w) for dst, w in topology.output_substreams(node)
            if dst.operator in allowed
        ]

        def downstream_score(pair: tuple[TaskId, float]) -> tuple[int, float, int]:
            dst, _w = pair
            membership = 2 if dst in tree else (1 if dst in current else 0)
            return (membership, rates.substream_rate(node, dst), -dst.index)

        node = max(outs, key=downstream_score)[0]
        tree.add(node)
        satisfy(node)
    return frozenset(tree)


class StructuredTopologyPlanner(SubTopologyPlanner):
    """Unit/segment planner with profit-density candidate selection."""

    name = "Structured"

    def __init__(self, objective: PlanObjective = OF_OBJECTIVE, *,
                 segment_limit: int = 50_000):
        super().__init__(objective)
        self.segment_limit = segment_limit
        #: (topology, ops, segments) of the context planned last; holds the
        #: topology itself so a recycled ``id()`` can never alias.
        self._segment_memo: tuple[Topology, frozenset[str],
                                  list[frozenset[TaskId]]] | None = None

    def _segments(self, ctx: PlanningContext) -> list[frozenset[TaskId]]:
        """All segments (unit MC-trees) of the context (memoised for the latest)."""
        memo = self._segment_memo
        if memo is not None and memo[0] is ctx.topology and memo[1] == ctx.ops:
            return memo[2]
        segments: list[frozenset[TaskId]] = []
        for unit in split_into_units(ctx.topology, ctx.ops):
            segments.extend(
                enumerate_mc_trees(ctx.topology, within=unit, limit=self.segment_limit)
            )
        self._segment_memo = (ctx.topology, ctx.ops, segments)
        return segments

    def _best_candidate(self, ctx: PlanningContext, current: frozenset[TaskId],
                        max_new_tasks: int) -> frozenset[TaskId] | None:
        if max_new_tasks < 1:
            return None
        base_value = ctx.value(current)
        seen: set[frozenset[TaskId]] = set()
        best: frozenset[TaskId] | None = None
        best_key: tuple[float, float, int] | None = None
        for segment in self._segments(ctx):
            if segment <= current:
                continue
            completed = complete_tree(ctx, segment, current)
            new_tasks = frozenset(completed - current)
            if not new_tasks or len(new_tasks) > max_new_tasks or new_tasks in seen:
                continue
            seen.add(new_tasks)
            gain = ctx.value(current | new_tasks) - base_value
            if gain <= _EPSILON:
                continue
            density = gain / len(new_tasks)
            key = (density, gain, -len(new_tasks))
            if best_key is None or key > best_key:
                best_key, best = key, new_tasks
        return best

    def base_plan(self, ctx: PlanningContext) -> frozenset[TaskId] | None:
        """The densest single complete MC-tree (minimal useful plan)."""
        return self._best_candidate(ctx, frozenset(), len(ctx.mask_tasks))

    def extend(self, ctx: PlanningContext, current: frozenset[TaskId],
               max_new_tasks: int) -> frozenset[TaskId] | None:
        return self._best_candidate(ctx, current, max_new_tasks)
