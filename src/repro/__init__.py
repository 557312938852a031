"""PPA: Passive and Partially Active fault tolerance for MPSPEs.

A complete reproduction of Su & Zhou, *"Tolerating Correlated Failures in
Massively Parallel Stream Processing Engines"* (ICDE 2016): the Output
Fidelity metric, the replication planners (dynamic programming, greedy,
structured, full-topology, structure-aware), and a deterministic
discrete-event MPSPE on which the paper's recovery and tentative-output
experiments run — all driveable through one declarative scenario façade.

Quickstart
----------
Describe an experiment as a :class:`Scenario` (workload, planner + budget,
failure schedule) and run it end-to-end:

>>> import repro
>>> result = repro.run_scenario(repro.Scenario(
...     workload="synthetic",
...     workload_params={"rate_per_source": 200.0, "window_seconds": 5.0,
...                      "tuple_scale": 16.0},
...     planner="structure-aware", budget_fraction=0.5,
...     failures=(repro.FailureSpec("correlated", at=10.0),),
...     duration=20.0,
... ))
>>> result.all_recovered and 0.0 <= result.worst_case_fidelity <= 1.0
True

The lower-level pieces (topology builder, rate propagation, planners, the
engine) remain available for hand-wired pipelines:

>>> topo = repro.linear_chain([4, 4, 2, 1])
>>> rates = repro.propagate_rates(topo, repro.uniform_source_rates(topo, 1000.0))
>>> plan = repro.StructureAwarePlanner().plan(topo, rates, budget=6)
>>> 0.0 <= repro.worst_case_fidelity(topo, rates, plan.replicated) <= 1.0
True
"""

from repro.core import (
    IC_OBJECTIVE,
    OF_OBJECTIVE,
    BruteForcePlanner,
    DynamicProgrammingPlanner,
    FullTopologyPlanner,
    GreedyPlanner,
    Planner,
    PlanObjective,
    ReplicationPlan,
    StructureAwarePlanner,
    StructuredTopologyPlanner,
    budget_from_fraction,
    enumerate_mc_trees,
    internal_completeness,
    output_fidelity,
    worst_case_completeness,
    worst_case_fidelity,
)
from repro.errors import (
    ExperimentError,
    MCTreeExplosionError,
    PlanningError,
    RateError,
    ReproError,
    ScenarioError,
    SimulationError,
    TopologyError,
    WorkloadError,
)
from repro.scenarios import (
    EXECUTION_BACKENDS,
    FAILURE_MODELS,
    PLANNERS,
    RECOVERY_SCHEMES,
    RESULT_SINKS,
    WORKLOADS,
    CellError,
    EdgeDef,
    ExecutionBackend,
    FailureSpec,
    FailureWave,
    GridReport,
    GridSession,
    JsonlSink,
    MemorySink,
    OperatorDef,
    ProgressEvent,
    RecoveryScheme,
    ResultSink,
    Scenario,
    ScenarioCache,
    ScenarioResult,
    ScenarioRunner,
    SqliteSink,
    TopologyRecipe,
    expand_grid,
    run_grid,
    run_scenario,
    run_scenarios,
    scenario_digest,
)
from repro.topology import (
    OperatorKind,
    OperatorSpec,
    Partitioning,
    SourceRates,
    StreamEdge,
    StreamRates,
    TaskId,
    Topology,
    TopologyBuilder,
    TopologyClass,
    TopologySpec,
    WeightSkew,
    generate_source_rates,
    generate_topology,
    linear_chain,
    propagate_rates,
    uniform_source_rates,
)

__version__ = "1.1.0"

__all__ = [
    "BruteForcePlanner",
    "CellError",
    "DynamicProgrammingPlanner",
    "EXECUTION_BACKENDS",
    "EdgeDef",
    "ExecutionBackend",
    "ExperimentError",
    "FAILURE_MODELS",
    "FailureSpec",
    "FailureWave",
    "FullTopologyPlanner",
    "GreedyPlanner",
    "GridReport",
    "GridSession",
    "IC_OBJECTIVE",
    "JsonlSink",
    "MCTreeExplosionError",
    "MemorySink",
    "OF_OBJECTIVE",
    "OperatorDef",
    "OperatorKind",
    "OperatorSpec",
    "PLANNERS",
    "Partitioning",
    "PlanObjective",
    "Planner",
    "PlanningError",
    "ProgressEvent",
    "RECOVERY_SCHEMES",
    "RESULT_SINKS",
    "RateError",
    "RecoveryScheme",
    "ReplicationPlan",
    "ReproError",
    "ResultSink",
    "Scenario",
    "ScenarioCache",
    "ScenarioError",
    "ScenarioResult",
    "ScenarioRunner",
    "SimulationError",
    "SourceRates",
    "SqliteSink",
    "StreamEdge",
    "StreamRates",
    "StructureAwarePlanner",
    "StructuredTopologyPlanner",
    "TaskId",
    "Topology",
    "TopologyBuilder",
    "TopologyClass",
    "TopologyError",
    "TopologyRecipe",
    "TopologySpec",
    "WORKLOADS",
    "WeightSkew",
    "WorkloadError",
    "budget_from_fraction",
    "enumerate_mc_trees",
    "expand_grid",
    "generate_source_rates",
    "generate_topology",
    "internal_completeness",
    "linear_chain",
    "output_fidelity",
    "propagate_rates",
    "run_grid",
    "run_scenario",
    "run_scenarios",
    "scenario_digest",
    "uniform_source_rates",
    "worst_case_completeness",
    "worst_case_fidelity",
]
