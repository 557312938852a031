"""Built-in planner and workload registry entries.

Planner names follow the paper's algorithms — ``"dp"`` (Algorithm 2),
``"greedy"`` (the baseline), ``"structured"`` (Algorithm 3), ``"full"``
(Algorithm 4), ``"structure-aware"`` (Algorithm 5) — plus three scenario
conveniences: ``"none"`` (no active replication), ``"all"`` (replicate every
non-source task) and ``"fixed"`` (an explicit task list).

Workload names cover the paper's evaluation: ``"synthetic"`` (the Fig. 6
recovery workload), ``"worldcup"`` (Q1 top-k), ``"traffic"`` (Q2 incident
join), ``"zipf"`` (a random Sec. VI-C topology with Zipf-skewed task
weights, run with generic windowed logic) and ``"custom"`` (an explicit
:class:`~repro.scenarios.spec.TopologyRecipe` run with the same generic
logic).
"""

from __future__ import annotations

import dataclasses
import statistics
from typing import Iterable, Mapping, Sequence

from repro.core.dp import BruteForcePlanner, DynamicProgrammingPlanner
from repro.core.full_topology import FullTopologyPlanner
from repro.core.greedy import GreedyPlanner
from repro.core.plans import (
    OF_OBJECTIVE,
    Planner,
    PlanObjective,
    ReplicationPlan,
)
from repro.core.structure_aware import StructureAwarePlanner
from repro.core.structured import StructuredTopologyPlanner
from repro.engine.logic import LogicFactory
from repro.errors import ScenarioError
from repro.queries.synthetic import WindowedSelectivityOperator, overlap_accuracy
from repro.scenarios.failures import _task_from_param
from repro.scenarios.registry import PLANNERS, WORKLOADS
from repro.scenarios.spec import TopologyRecipe
from repro.topology.generator import (
    TopologyClass,
    TopologySpec,
    WeightSkew,
    generate_source_rates,
    generate_topology,
)
from repro.topology.graph import Topology
from repro.topology.rates import (
    SourceRates,
    StreamRates,
    propagate_rates,
    uniform_source_rates,
)
from repro.workloads.bundles import (
    QueryBundle,
    calibrated_costs,
    fig6_bundle,
    q1_bundle,
    q2_bundle,
)
from repro.topology.operators import TaskId
from repro.workloads.sources import SquareWaveSource, UniformRateSource

# ----------------------------------------------------------------------
# Planners
# ----------------------------------------------------------------------


class NullPlanner(Planner):
    """Plans no active replication at all (pure passive fault tolerance)."""

    name = "None"

    def plan(self, topology: Topology, rates: StreamRates,
             budget: int) -> ReplicationPlan:
        """The empty plan, whatever the budget."""
        return self._finish(frozenset(), budget)


class ReplicateAllPlanner(Planner):
    """Replicates every non-source task (the paper's PPA-1.0 / Active bars)."""

    name = "All"

    def plan(self, topology: Topology, rates: StreamRates,
             budget: int) -> ReplicationPlan:
        """Every non-source task, ignoring the budget."""
        replicated = frozenset(
            t for t in topology.tasks()
            if not topology.operator(t.operator).is_source
        )
        return self._finish(replicated, len(replicated))


class FixedPlanner(Planner):
    """Replays an explicit, externally chosen task list as the plan."""

    name = "Fixed"

    def __init__(self, objective: PlanObjective = OF_OBJECTIVE, *,
                 tasks: Iterable[object] = ()):
        super().__init__(objective)
        self._raw_tasks = tuple(tasks)
        if not self._raw_tasks:
            raise ScenarioError(
                "'fixed' planner needs planner_params={'tasks': [...]} "
                "with at least one task"
            )

    def plan(self, topology: Topology, rates: StreamRates,
             budget: int) -> ReplicationPlan:
        """Exactly the configured tasks, validated against the topology."""
        replicated = frozenset(
            _task_from_param(topology, t) for t in self._raw_tasks
        )
        return self._finish(replicated, len(replicated))


PLANNERS.register("dp")(DynamicProgrammingPlanner)
PLANNERS.register("brute-force")(BruteForcePlanner)
PLANNERS.register("greedy")(GreedyPlanner)
PLANNERS.register("structured")(StructuredTopologyPlanner)
PLANNERS.register("full")(FullTopologyPlanner)
PLANNERS.register("structure-aware")(StructureAwarePlanner)
PLANNERS.register("none")(NullPlanner)
PLANNERS.register("all")(ReplicateAllPlanner)
PLANNERS.register("fixed")(FixedPlanner)


def make_planner(name: str, objective: PlanObjective = OF_OBJECTIVE,
                 **params: object) -> Planner:
    """Instantiate the registered planner ``name`` for ``objective``."""
    factory = PLANNERS.get(name)
    try:
        return factory(objective, **params)
    except TypeError as exc:
        raise ScenarioError(f"planner {name!r}: {exc}") from None


# ----------------------------------------------------------------------
# Workloads
# ----------------------------------------------------------------------


def generic_bundle(name: str, topology: Topology, source_rates: SourceRates, *,
                   window_seconds: float = 10.0,
                   tuple_scale: float = 8.0) -> QueryBundle:
    """A runnable bundle for an arbitrary topology with generic logic.

    Source operators emit uniform-rate tuples; every other operator runs a
    windowed-selectivity aggregate with the selectivity of its spec.  The
    rate model used for planning comes from :func:`propagate_rates` on the
    real topology, but the run does not realise that model, so measured
    output quality can stray from the fidelity the plan predicts:

    * only the first sink task (``sink_tasks()[0]``) is scored, although a
      generated topology often has several;
    * every source task runs at its operator's mean rate, not at its own
      rate from ``source_rates`` (e.g. :func:`generate_source_rates`);
    * tuples are routed by the CRC32 hash of their key, not split by the
      Zipf-skewed substream weights the rate model assumes.

    The logic keeps a fraction of its input, so a selectivity above 1
    (which the rate model allows) is rejected here, before any run.
    """
    for spec in topology.operators():
        if not spec.is_source and spec.selectivity > 1.0:
            raise ScenarioError(
                f"workload {name!r}: operator {spec.name!r} selectivity must "
                f"be in [0, 1] for the generic windowed logic, got "
                f"{spec.selectivity}"
            )
    rates = propagate_rates(topology, source_rates)

    def make_logic() -> LogicFactory:
        factory = LogicFactory()
        for spec in topology.operators():
            if spec.is_source:
                mean_rate = statistics.fmean(
                    source_rates.rate_of(topology, t) for t in spec.tasks()
                )
                factory.register_source(
                    spec.name, UniformRateSource(mean_rate / tuple_scale)
                )
            else:
                factory.register_operator(
                    spec.name,
                    lambda sel=spec.selectivity: WindowedSelectivityOperator(
                        window_seconds, sel
                    ),
                )
        return factory

    sinks = topology.sink_tasks()
    return QueryBundle(
        name=name,
        topology=topology,
        rates=rates,
        make_logic=make_logic,
        accuracy_fn=overlap_accuracy,
        sink_task=sinks[0] if sinks else None,
        costs=calibrated_costs(tuple_scale),
        window_seconds=window_seconds,
    )


# The Fig. 6 recovery workload (16 sources, 8/4/2/1 merge chain), Q1 top-k
# and the Q2 incident join register as-is; bad parameters are turned into
# ScenarioErrors centrally by make_bundle().
WORKLOADS.register("synthetic")(fig6_bundle)
WORKLOADS.register("worldcup")(q1_bundle)
WORKLOADS.register("traffic")(q2_bundle)


@WORKLOADS.register("zipf")
def zipf_workload(seed: int = 0, n_operators: Sequence[int] = (4, 6),
                  parallelism: Sequence[int] = (2, 4), zipf_s: float = 0.5,
                  join_fraction: float = 0.0,
                  topology_class: str = "structured",
                  base_rate: float = 1000.0, window_seconds: float = 10.0,
                  tuple_scale: float = 8.0) -> QueryBundle:
    """A random Sec. VI-C topology with Zipf-skewed task weights."""
    try:
        topo_class = TopologyClass(topology_class)
    except ValueError:
        choices = ", ".join(repr(c.value) for c in TopologyClass)
        raise ScenarioError(
            f"workload 'zipf': unknown topology_class {topology_class!r}; "
            f"one of {choices}"
        ) from None
    spec = TopologySpec(
        n_operators=(int(n_operators[0]), int(n_operators[1])),
        parallelism=(int(parallelism[0]), int(parallelism[1])),
        weight_skew=WeightSkew.ZIPF, zipf_s=zipf_s,
        join_fraction=join_fraction, topology_class=topo_class,
    )
    topology = generate_topology(spec, seed)
    source_rates = generate_source_rates(topology, seed, base_rate)
    return generic_bundle(
        f"zipf(seed={seed})", topology, source_rates,
        window_seconds=window_seconds, tuple_scale=tuple_scale,
    )


@WORKLOADS.register("custom")
def custom_workload(recipe: TopologyRecipe | Mapping[str, object] | None = None,
                    source_rate: float = 100.0, window_seconds: float = 10.0,
                    tuple_scale: float = 1.0) -> QueryBundle:
    """An explicit :class:`TopologyRecipe` run with generic windowed logic."""
    if recipe is None:
        raise ScenarioError(
            "workload 'custom' needs a topology: set Scenario.topology or "
            "workload_params={'recipe': {...}}"
        )
    if not isinstance(recipe, TopologyRecipe):
        recipe = TopologyRecipe.from_dict(recipe)
    topology = recipe.build()
    return generic_bundle(
        f"custom({len(recipe.operators)} ops)", topology,
        uniform_source_rates(topology, source_rate),
        window_seconds=window_seconds, tuple_scale=tuple_scale,
    )


@WORKLOADS.register("bursty")
def bursty_workload(base: str = "synthetic", period_seconds: float = 20.0,
                    duty: float = 0.5, high_factor: float = 1.5,
                    low_factor: float = 0.5,
                    **base_params: object) -> QueryBundle:
    """A square-wave (burst/trough) rate profile over an existing bundle.

    Builds the ``base`` workload (any registry entry whose sources are
    uniform-rate: ``"synthetic"``, ``"zipf"``, ``"custom"``), then replaces
    every source with a :class:`~repro.workloads.sources.SquareWaveSource`
    bursting at ``high_factor ×`` and idling at ``low_factor ×`` the base
    rate.  ``base_params`` are forwarded to the base workload factory.

    With the default symmetric factors the long-run mean rate equals the
    base rate, so the planning rate model (and therefore plans and fidelity
    predictions) stays representative; what changes is *when* tuples
    arrive — which is exactly the knob for measuring recovery latency at
    burst peaks versus troughs (time the ``FailureSpec`` inside or outside
    a burst phase).
    """
    if base == "bursty":
        raise ScenarioError("workload 'bursty' cannot wrap itself")
    if period_seconds <= 0:
        raise ScenarioError(
            f"workload 'bursty': period_seconds must be positive, got "
            f"{period_seconds}"
        )
    if not 0.0 < duty < 1.0:
        raise ScenarioError(
            f"workload 'bursty': duty must be in (0, 1), got {duty}"
        )
    if high_factor < 0 or low_factor < 0:
        raise ScenarioError(
            f"workload 'bursty': rate factors must be >= 0, got "
            f"high={high_factor}, low={low_factor}"
        )
    bundle = make_bundle(base, **base_params)
    base_make_logic = bundle.make_logic
    topology = bundle.topology

    def make_logic() -> LogicFactory:
        factory = base_make_logic()
        for spec in topology.operators():
            if not spec.is_source:
                continue
            source = factory.source_for(TaskId(spec.name, 0))
            if not isinstance(source, UniformRateSource):
                raise ScenarioError(
                    f"workload 'bursty' needs uniform-rate sources to "
                    f"modulate; base {base!r} source {spec.name!r} is a "
                    f"{type(source).__name__}"
                )
            factory.register_source(spec.name, SquareWaveSource(
                high_rate=source.rate_per_task * high_factor,
                low_rate=source.rate_per_task * low_factor,
                period_batches=max(
                    2, round(period_seconds / source.batch_interval)),
                duty=duty,
                batch_interval=source.batch_interval,
                key_space=source.key_space,
            ))
        return factory

    return dataclasses.replace(
        bundle, name=f"bursty({bundle.name})", make_logic=make_logic,
    )


def make_bundle(name: str, **params: object) -> QueryBundle:
    """Instantiate the registered workload ``name`` with ``params``.

    Parameter mismatches surface as :class:`ScenarioError` naming the
    workload, so a bad scenario file fails with an actionable message
    instead of a traceback.
    """
    factory = WORKLOADS.get(name)
    try:
        return factory(**params)
    except TypeError as exc:
        raise ScenarioError(f"workload {name!r}: {exc}") from None
