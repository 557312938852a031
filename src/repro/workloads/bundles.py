"""Ready-to-run query bundles: topology + logic + rates + accuracy function.

(Historically this module lived at ``repro.experiments.bundles``; it moved
down into :mod:`repro.workloads` so the scenario layer can build on bundles
without depending on the experiment harness.)

Three workloads drive the evaluation (Sec. VI):

* the **Fig. 6 synthetic workload** — 16 source tasks feeding a 8/4/2/1
  merge chain of windowed operators with selectivity 0.5 (recovery
  experiments, Figs. 7–10);
* **Q1** — hierarchical top-100 aggregation over a WorldCup-like access log
  (Figs. 12(a)/13(a));
* **Q2** — the traffic-incident join over synthetic navigation streams
  (Figs. 12(b)/13(b)).

A :class:`QueryBundle` carries everything both the planners (topology +
rates) and the engine (logic factory) need, plus the query-specific accuracy
function comparing tentative and accurate sink outputs.

The ``tuple_scale`` knob divides stream rates by ``scale`` while multiplying
per-tuple costs by the same factor: virtual-time dynamics (utilisation,
backlogs, replay volumes in seconds) are unchanged, but the Python-level
tuple count shrinks, keeping simulations fast.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

from repro.engine.config import CostModel
from repro.engine.logic import LogicFactory
from repro.engine.tuples import KeyedTuple
from repro.queries.incidents import (
    IncidentAggregateOperator,
    IncidentCombineOperator,
    SegmentSpeedOperator,
    SpeedIncidentJoinOperator,
    incident_accuracy,
)
from repro.queries.synthetic import WindowedSelectivityOperator, overlap_accuracy
from repro.queries.topk import (
    GlobalTopKOperator,
    MergeAggregateOperator,
    SliceAggregateOperator,
    topk_accuracy,
)
from repro.topology.builder import TopologyBuilder
from repro.topology.graph import Topology
from repro.topology.operators import TaskId
from repro.topology.partitioning import Partitioning
from repro.topology.rates import SourceRates, StreamRates, propagate_rates
from repro.workloads.sources import UniformRateSource

#: Accuracy function signature: (tentative sink output, accurate sink output).
AccuracyFn = Callable[[Sequence[KeyedTuple], Sequence[KeyedTuple]], float]


def calibrated_costs(tuple_scale: float = 1.0) -> CostModel:
    """The cost model used by the recovery experiments.

    Calibrated so absolute latencies land in the paper's range (active
    replicas in ~1–3 s, checkpoint restores in seconds-to-tens-of-seconds,
    Storm source replay slowest for long windows); see DESIGN.md §2.
    """
    return CostModel(
        per_tuple_process=1.0e-4 * tuple_scale,
        per_tuple_serialize=1.5e-6 * tuple_scale,
        checkpoint_fixed=0.05,
        per_tuple_load=3.0e-6 * tuple_scale,
        per_tuple_resend=2.0e-5 * tuple_scale,
        network_delay=0.02,
        restart_delay=2.0,
        takeover_fixed=1.0,
    )


@dataclass
class QueryBundle:
    """Everything needed to plan for and run one workload."""

    name: str
    topology: Topology
    rates: StreamRates
    make_logic: Callable[[], LogicFactory]
    accuracy_fn: AccuracyFn | None = None
    sink_task: TaskId | None = None
    costs: CostModel = field(default_factory=CostModel)
    #: Longest operator window; tentative quality is only meaningful once the
    #: windows have fully turned over after the failure.
    window_seconds: float = 0.0

    @property
    def synthetic_tasks(self) -> tuple[TaskId, ...]:
        """All non-source tasks (the ones the recovery experiments kill)."""
        return tuple(
            t for t in self.topology.tasks()
            if not self.topology.operator(t.operator).is_source
        )


def fig6_bundle(rate_per_source: float = 1000.0, window_seconds: float = 30.0,
                *, tuple_scale: float = 8.0, selectivity: float = 0.5) -> QueryBundle:
    """The recovery-efficiency workload of Sec. VI-A (Fig. 6).

    16 source tasks; operators O1..O4 with parallelism 8/4/2/1, each task
    merging two upstream tasks; sliding windows with 1 s step.
    """
    topology = (
        TopologyBuilder()
        .source("S", 16)
        .operator("O1", 8, selectivity=selectivity)
        .operator("O2", 4, selectivity=selectivity)
        .operator("O3", 2, selectivity=selectivity)
        .operator("O4", 1, selectivity=selectivity)
        .chain("S", "O1", "O2", "O3", "O4", pattern=Partitioning.MERGE)
        .build()
    )
    scaled_rate = rate_per_source / tuple_scale
    rates = propagate_rates(
        topology, SourceRates(per_task={t: rate_per_source
                                        for t in topology.source_tasks()})
    )

    def make_logic() -> LogicFactory:
        factory = LogicFactory()
        factory.register_source("S", UniformRateSource(scaled_rate))
        for op in ("O1", "O2", "O3", "O4"):
            factory.register_operator(
                op, lambda: WindowedSelectivityOperator(window_seconds, selectivity)
            )
        return factory

    return QueryBundle(
        name=f"fig6(rate={rate_per_source:g},win={window_seconds:g})",
        topology=topology,
        rates=rates,
        make_logic=make_logic,
        accuracy_fn=overlap_accuracy,
        sink_task=TaskId("O4", 0),
        costs=calibrated_costs(tuple_scale),
        window_seconds=window_seconds,
    )


def q1_bundle(rate_per_source: float = 1000.0, *, tuple_scale: float = 4.0,
              pages: int = 800, window_seconds: float = 60.0,
              k: int = 100, seed: int = 7) -> QueryBundle:
    """Q1: hierarchical top-k over the WorldCup-like access log (Fig. 11).

    Topology: 8 server sources -> O1 (8, slice aggregation, one-to-one) ->
    O2 (4, windowed merge, merge) -> O3 (1, global top-k, merge).
    """
    # numpy loads with the Q1/Q2 sources, so only when one is built.
    from repro.workloads.worldcup import WorldCupAccessLog

    topology = (
        TopologyBuilder()
        .source("S", 8)
        .operator("O1", 8, selectivity=0.2)
        .operator("O2", 4, selectivity=0.5)
        .operator("O3", 1, selectivity=0.1)
        .connect("S", "O1", Partitioning.ONE_TO_ONE)
        .connect("O1", "O2", Partitioning.MERGE)
        .connect("O2", "O3", Partitioning.MERGE)
        .build()
    )
    rates = propagate_rates(
        topology, SourceRates(per_task={t: rate_per_source
                                        for t in topology.source_tasks()})
    )
    scaled_rate = rate_per_source / tuple_scale

    def make_logic() -> LogicFactory:
        factory = LogicFactory()
        factory.register_source(
            "S", WorldCupAccessLog(scaled_rate, pages=pages, seed=seed)
        )
        factory.register_operator("O1", SliceAggregateOperator)
        factory.register_operator(
            "O2", lambda: MergeAggregateOperator(window_seconds)
        )
        factory.register_operator(
            "O3", lambda: GlobalTopKOperator(k, window_seconds)
        )
        return factory

    return QueryBundle(
        name="Q1(top-k)",
        topology=topology,
        rates=rates,
        make_logic=make_logic,
        accuracy_fn=topk_accuracy,
        sink_task=TaskId("O3", 0),
        costs=calibrated_costs(tuple_scale),
        window_seconds=window_seconds,
    )


def q2_bundle(location_rate: float = 20_000.0, *, tuple_scale: float = 40.0,
              window_seconds: float = 60.0, jam_speed: float = 20.0,
              seed: int = 11, horizon: float = 600.0) -> QueryBundle:
    """Q2: traffic-incident detection with a join (Fig. 11).

    Topology: location sources (4) -> O1 (4, segment speed, one-to-one);
    incident sources (2) -> O2 (2, dedup, one-to-one); O1 and O2 join at O3
    (2, correlated, full); O4 (1, aggregate, full).

    The paper uses a 5-minute window with a 10 s slide; the default here
    shortens the window to keep simulated runs brief — the join semantics
    and loss behaviour are unchanged.
    """
    from repro.workloads.traffic import (
        IncidentReportSource,
        IncidentSchedule,
        UserLocationSource,
    )

    topology = (
        TopologyBuilder()
        .source("Sloc", 4)
        .source("Sinc", 2)
        .operator("O1", 4, selectivity=0.05)
        .operator("O2", 2, selectivity=0.9)
        .join("O3", 2, selectivity=1e-4)
        .operator("O4", 1, selectivity=1.0)
        .connect("Sloc", "O1", Partitioning.ONE_TO_ONE)
        .connect("Sinc", "O2", Partitioning.ONE_TO_ONE)
        .connect("O1", "O3", Partitioning.FULL)
        .connect("O2", "O3", Partitioning.FULL)
        .connect("O3", "O4", Partitioning.FULL)
        .build()
    )
    incident_rate_per_task = 25.0  # report tuples/s per incident-source task
    rates = propagate_rates(topology, SourceRates(per_task={
        **{t: location_rate / 4 for t in topology.tasks_of("Sloc")},
        **{t: incident_rate_per_task for t in topology.tasks_of("Sinc")},
    }))
    schedule = IncidentSchedule(seed=seed, horizon=horizon,
                                incident_duration=window_seconds / 2)

    def make_logic() -> LogicFactory:
        factory = LogicFactory()
        factory.register_source(
            "Sloc", UserLocationSource(schedule, location_rate / 4 / tuple_scale,
                                       jam_speed=jam_speed / 2)
        )
        factory.register_source("Sinc", IncidentReportSource(schedule, parallelism=2))
        factory.register_operator("O1", SegmentSpeedOperator)
        factory.register_operator(
            "O2", lambda: IncidentCombineOperator(window_seconds)
        )
        factory.register_operator(
            "O3", lambda: SpeedIncidentJoinOperator(window_seconds, jam_speed)
        )
        factory.register_operator(
            "O4", lambda: IncidentAggregateOperator(window_seconds)
        )
        return factory

    return QueryBundle(
        name="Q2(incidents)",
        topology=topology,
        rates=rates,
        make_logic=make_logic,
        accuracy_fn=incident_accuracy,
        sink_task=TaskId("O4", 0),
        costs=calibrated_costs(tuple_scale),
        window_seconds=window_seconds,
    )
