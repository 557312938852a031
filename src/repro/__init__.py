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

from repro.lazy import lazy_exports

#: exported name -> the module it is imported from on first use.
_EXPORTS = {
    "BruteForcePlanner": "repro.core",
    "CellError": "repro.scenarios",
    "DynamicProgrammingPlanner": "repro.core",
    "EXECUTION_BACKENDS": "repro.scenarios",
    "EdgeDef": "repro.scenarios",
    "ExecutionBackend": "repro.scenarios",
    "ExperimentError": "repro.errors",
    "FAILURE_MODELS": "repro.scenarios",
    "FailureSpec": "repro.scenarios",
    "FailureWave": "repro.scenarios",
    "FullTopologyPlanner": "repro.core",
    "GreedyPlanner": "repro.core",
    "GridReport": "repro.scenarios",
    "GridSession": "repro.scenarios",
    "IC_OBJECTIVE": "repro.core",
    "JsonlSink": "repro.scenarios",
    "MCTreeExplosionError": "repro.errors",
    "MemorySink": "repro.scenarios",
    "OF_OBJECTIVE": "repro.core",
    "OperatorDef": "repro.scenarios",
    "OperatorKind": "repro.topology",
    "OperatorSpec": "repro.topology",
    "PLANNERS": "repro.scenarios",
    "Partitioning": "repro.topology",
    "PlanObjective": "repro.core",
    "Planner": "repro.core",
    "PlanningError": "repro.errors",
    "ProgressEvent": "repro.scenarios",
    "RECOVERY_SCHEMES": "repro.scenarios",
    "RESULT_SINKS": "repro.scenarios",
    "RateError": "repro.errors",
    "RecoveryScheme": "repro.scenarios",
    "ReplicationPlan": "repro.core",
    "ReproError": "repro.errors",
    "ResultSink": "repro.scenarios",
    "Scenario": "repro.scenarios",
    "ScenarioCache": "repro.scenarios",
    "ScenarioError": "repro.errors",
    "ScenarioResult": "repro.scenarios",
    "ScenarioRunner": "repro.scenarios",
    "SimulationError": "repro.errors",
    "SourceRates": "repro.topology",
    "SqliteSink": "repro.scenarios",
    "StreamEdge": "repro.topology",
    "StreamRates": "repro.topology",
    "StructureAwarePlanner": "repro.core",
    "StructuredTopologyPlanner": "repro.core",
    "TaskId": "repro.topology",
    "Topology": "repro.topology",
    "TopologyBuilder": "repro.topology",
    "TopologyClass": "repro.topology",
    "TopologyError": "repro.errors",
    "TopologyRecipe": "repro.scenarios",
    "TopologySpec": "repro.topology",
    "WORKLOADS": "repro.scenarios",
    "WeightSkew": "repro.topology",
    "WorkloadError": "repro.errors",
    "budget_from_fraction": "repro.core",
    "enumerate_mc_trees": "repro.core",
    "expand_grid": "repro.scenarios",
    "generate_source_rates": "repro.topology",
    "generate_topology": "repro.topology",
    "internal_completeness": "repro.core",
    "linear_chain": "repro.topology",
    "output_fidelity": "repro.core",
    "propagate_rates": "repro.topology",
    "run_grid": "repro.scenarios",
    "run_scenario": "repro.scenarios",
    "run_scenarios": "repro.scenarios",
    "scenario_digest": "repro.scenarios",
    "uniform_source_rates": "repro.topology",
    "worst_case_completeness": "repro.core",
    "worst_case_fidelity": "repro.core",
}

__getattr__, __dir__, __all__ = lazy_exports(__name__, _EXPORTS)

__version__ = "1.1.0"
