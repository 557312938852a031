"""String-keyed extension registries behind the declarative scenario API.

A :class:`Scenario <repro.scenarios.spec.Scenario>` names its planner,
workload, failure models and recovery scheme by string; registries resolve
those names to factories.  New entries plug in from *outside* the library
without touching core code:

>>> from repro.scenarios import WORKLOADS
>>> @WORKLOADS.register("tiny")
... def _tiny_bundle():
...     '''A workload someone defined in their own project.'''
...     from repro.workloads import fig6_bundle
...     return fig6_bundle(rate_per_source=100.0, window_seconds=5.0)
>>> "tiny" in WORKLOADS
True
>>> WORKLOADS.unregister("tiny")

The generic :class:`~repro.registry.Registry` class lives at the package
root (:mod:`repro.registry`) so lower layers — notably the engine's
:data:`~repro.engine.recovery.RECOVERY_SCHEMES` — can define registries
without importing the scenario package.
"""

from __future__ import annotations

from repro.registry import Registry

__all__ = ["FAILURE_MODELS", "PLANNERS", "WORKLOADS"]

#: Planner factories: ``fn(objective, **planner_params) -> Planner``.
PLANNERS: Registry = Registry("planner")

#: Workload factories: ``fn(**workload_params) -> QueryBundle``.
WORKLOADS: Registry = Registry("workload")

#: Failure models: ``fn(topology, plan, *, seed, **params) -> tuple[TaskId, ...]``
#: (or a sequence of :class:`~repro.scenarios.failures.FailureWave` for
#: models that stagger their kills over time).
FAILURE_MODELS: Registry = Registry("failure model")
