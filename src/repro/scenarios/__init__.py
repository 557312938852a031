"""Declarative scenarios: one façade from topology spec to recovery metrics.

Instead of hand-wiring the five-step pipeline (build topology → propagate
rates → pick planner → construct ``StreamEngine`` → inject failures), you
describe an experiment as a frozen, JSON-serializable :class:`Scenario` and
hand it to :func:`run_scenario`:

>>> from repro.scenarios import Scenario, FailureSpec, run_scenario
>>> scenario = Scenario(
...     workload="synthetic",
...     workload_params={"rate_per_source": 200.0, "window_seconds": 5.0,
...                      "tuple_scale": 16.0},
...     planner="structure-aware", budget_fraction=0.5,
...     failures=(FailureSpec("correlated", at=10.0),),
...     duration=20.0,
... )
>>> result = run_scenario(scenario)
>>> result.all_recovered and 0.0 <= result.worst_case_fidelity <= 1.0
True

Everything is resolved through string-keyed registries, so new entries plug
in with a ``register()`` decorator without touching the core:

* :data:`PLANNERS`, :data:`WORKLOADS`, :data:`FAILURE_MODELS` — what to
  plan, run and break;
* :data:`RECOVERY_SCHEMES` — how the engine tolerates the failures
  (``"ppa"``, ``"checkpoint-replay"``, ``"source-replay"``,
  ``"active-standby"``), selected per scenario via the ``recovery`` field;
* :data:`EXECUTION_BACKENDS` — how grids execute (``"serial"``,
  ``"processes"`` with work stealing, per-scenario timeouts and
  retry-on-worker-death, ``"cluster"`` across worker agents on many hosts
  — see :mod:`repro.cluster`);
* :data:`RESULT_SINKS` — where outcomes go (``"memory"``, ``"jsonl"``,
  ``"sqlite"``), streamed incrementally so huge grids never materialise
  one giant list.

:func:`run_grid` expands parameter grids over a base scenario and executes
them through a :class:`GridSession`, which can also consult a
content-addressed :class:`ScenarioCache` (keyed on the SHA-256 digest of
``Scenario.to_dict()``) so repeated cells are never simulated twice:

>>> from repro.scenarios import run_grid
>>> results = run_grid(scenario, {"budget_fraction": [0.0, 0.5]},
...                    backend="serial")
>>> len(results)
2

Every record — :class:`Scenario` and its parts, :class:`ScenarioResult`,
:class:`RecoveryOutcome` and :class:`CellError` — serializes through one
field-table :class:`~repro.scenarios.spec.Codec`: ``to_dict()`` /
``from_dict()`` round-trip losslessly (sinks and the cache reload persisted
results bit-for-bit), and a malformed document raises
:class:`~repro.errors.ScenarioError` naming the offending field.
"""

from repro.lazy import lazy_exports
from repro.scenarios import catalog as _catalog  # populate the registries

#: exported name -> the module it is imported from on first use.
_EXPORTS = {
    "CacheStats": "repro.scenarios.cache",
    "CellError": "repro.scenarios.backends",
    "EXECUTION_BACKENDS": "repro.scenarios.backends",
    "EdgeDef": "repro.scenarios.spec",
    "ExecutionBackend": "repro.scenarios.backends",
    "FAILURE_MODELS": "repro.scenarios.registry",
    "FailureSpec": "repro.scenarios.spec",
    "FailureWave": "repro.scenarios.failures",
    "FixedPlanner": "repro.scenarios.catalog",
    "GridReport": "repro.scenarios.session",
    "GridSession": "repro.scenarios.session",
    "JsonlSink": "repro.scenarios.sinks",
    "MemorySink": "repro.scenarios.sinks",
    "NullPlanner": "repro.scenarios.catalog",
    "OperatorDef": "repro.scenarios.spec",
    "PLANNERS": "repro.scenarios.registry",
    "ProcessBackend": "repro.scenarios.backends",
    "ProgressEvent": "repro.scenarios.session",
    "RECOVERY_SCHEMES": "repro.engine.recovery",
    "RESULT_SINKS": "repro.scenarios.sinks",
    "RecoveryOutcome": "repro.scenarios.results",
    "RecoveryScheme": "repro.engine.recovery",
    "Registry": "repro.registry",
    "ReplicateAllPlanner": "repro.scenarios.catalog",
    "ResultSink": "repro.scenarios.sinks",
    "Scenario": "repro.scenarios.spec",
    "ScenarioCache": "repro.scenarios.cache",
    "ScenarioResult": "repro.scenarios.results",
    "ScenarioRunner": "repro.scenarios.runner",
    "SerialBackend": "repro.scenarios.backends",
    "SqliteSink": "repro.scenarios.sinks",
    "TopologyRecipe": "repro.scenarios.spec",
    "WORKLOADS": "repro.scenarios.registry",
    "as_waves": "repro.scenarios.failures",
    "create_scheme": "repro.engine.recovery",
    "expand_grid": "repro.scenarios.grid",
    "generic_bundle": "repro.scenarios.catalog",
    "make_bundle": "repro.scenarios.catalog",
    "make_planner": "repro.scenarios.catalog",
    "prebuilt_workload": "repro.scenarios.prebuilt",
    "resolve_backend": "repro.scenarios.backends",
    "resolve_sink": "repro.scenarios.sinks",
    "run_grid": "repro.scenarios.grid",
    "run_scenario": "repro.scenarios.runner",
    "run_scenarios": "repro.scenarios.grid",
    "scenario_digest": "repro.scenarios.cache",
    "sink_for_path": "repro.scenarios.sinks",
    "synthetic_tasks": "repro.scenarios.failures",
    "workload_key": "repro.scenarios.prebuilt",
}

__getattr__, __dir__, __all__ = lazy_exports(__name__, _EXPORTS)
