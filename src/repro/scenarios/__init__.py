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

from repro.engine.recovery import (
    RECOVERY_SCHEMES,
    RecoveryContext,
    RecoveryScheme,
    create_scheme,
)
from repro.registry import Registry
from repro.scenarios import catalog as _catalog  # populate the registries
from repro.scenarios.backends import (
    EXECUTION_BACKENDS,
    CellError,
    ExecutionBackend,
    ProcessBackend,
    SerialBackend,
    resolve_backend,
)
from repro.scenarios.cache import CacheStats, ScenarioCache, scenario_digest
from repro.scenarios.catalog import (
    FixedPlanner,
    NullPlanner,
    ReplicateAllPlanner,
    generic_bundle,
    make_bundle,
    make_planner,
)
from repro.scenarios.failures import FailureWave, as_waves, synthetic_tasks
from repro.scenarios.grid import expand_grid, run_grid, run_scenarios
from repro.scenarios.prebuilt import prebuilt_workload, workload_key
from repro.scenarios.registry import FAILURE_MODELS, PLANNERS, WORKLOADS
from repro.scenarios.results import RecoveryOutcome, ScenarioResult
from repro.scenarios.runner import ScenarioRunner, run_scenario
from repro.scenarios.session import GridReport, GridSession, ProgressEvent
from repro.scenarios.sinks import (
    RESULT_SINKS,
    JsonlSink,
    MemorySink,
    ResultSink,
    SqliteSink,
    resolve_sink,
    sink_for_path,
)
from repro.scenarios.spec import (
    EdgeDef,
    FailureSpec,
    OperatorDef,
    Scenario,
    TopologyRecipe,
)

__all__ = [
    "CacheStats",
    "CellError",
    "EXECUTION_BACKENDS",
    "EdgeDef",
    "ExecutionBackend",
    "FAILURE_MODELS",
    "FailureSpec",
    "FailureWave",
    "FixedPlanner",
    "GridReport",
    "GridSession",
    "JsonlSink",
    "MemorySink",
    "NullPlanner",
    "OperatorDef",
    "PLANNERS",
    "ProcessBackend",
    "ProgressEvent",
    "RECOVERY_SCHEMES",
    "RESULT_SINKS",
    "RecoveryContext",
    "RecoveryOutcome",
    "RecoveryScheme",
    "Registry",
    "ReplicateAllPlanner",
    "ResultSink",
    "Scenario",
    "ScenarioCache",
    "ScenarioResult",
    "ScenarioRunner",
    "SerialBackend",
    "SqliteSink",
    "TopologyRecipe",
    "WORKLOADS",
    "as_waves",
    "create_scheme",
    "expand_grid",
    "generic_bundle",
    "make_bundle",
    "make_planner",
    "prebuilt_workload",
    "resolve_backend",
    "resolve_sink",
    "run_grid",
    "run_scenario",
    "run_scenarios",
    "scenario_digest",
    "sink_for_path",
    "synthetic_tasks",
    "workload_key",
]
