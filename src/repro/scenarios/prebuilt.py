"""The per-process workload memo every scenario run goes through.

A sweep of failure scenarios typically varies budgets, checkpoint intervals,
failure models, recovery schemes and seeds over a *handful* of distinct
workloads.  Each workload's topology graph, router dispatch tables, query
bundle, plans, source batches and failure-free quality baseline are the
same for all of those runs, so they are built once per process and shared.

:func:`prebuilt_workload` keys each scenario by the part of its spec that
determines the workload artefacts — ``(workload, workload_params,
topology)``, canonically serialized — and memoizes the built
:class:`~repro.workloads.bundles.QueryBundle`, a shared
:class:`~repro.engine.routing.Router` and the workload's
:class:`~repro.scenarios.runner.WorkloadCaches` in a bounded LRU of
:data:`CACHE_CAPACITY` workloads.  Every
:class:`~repro.scenarios.runner.ScenarioRunner` resolves through it, so
:func:`~repro.scenarios.runner.run_scenario` is the one run path of the CLI,
grids, the sweep server, cluster workers and chaos.  :func:`clear` drops the
memo for memory-sensitive callers.

A process fills its memo lazily: the first cell of a workload builds it,
and every later cell of that workload in the same process is a hit.  This
holds alike for the serial backend, process-pool workers and cluster
workers.  A workload that fails to build raises inside the cell that asked
for it, so only its own cells fail.

Reusing a bundle across runs is sound because bundles are pure functions of
their parameters and runs never mutate them: ``make_logic()`` builds fresh
operator instances per engine, topologies and rate models are read-only,
and the shared router's key memo is content-transparent.  The goldens under
``tests/golden`` and ``perf/golden`` pin the results by bytes, and
``tests/test_grid_execution.py`` asserts that a cold memo and a warm one
give identical results.
"""

from __future__ import annotations

import hashlib
import json
import threading
from collections import OrderedDict
from typing import TYPE_CHECKING

from repro.engine.routing import Router
from repro.scenarios.spec import Scenario

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.scenarios.results import ScenarioResult
    from repro.scenarios.runner import WorkloadCaches
    from repro.workloads.bundles import QueryBundle

#: How many distinct workloads stay memoized per process.  Grids normally
#: use a handful; a sweep over hundreds of random topologies simply cycles
#: the LRU without unbounded memory growth.  Each entry holds its bundle,
#: router, plans, bounded source memos and quality baselines; call
#: :func:`clear` to release them all.
CACHE_CAPACITY = 64

_lock = threading.Lock()
#: key -> (workload factory the entry was built by, bundle, router, caches).
#: The factory is kept so re-registering a workload (``register(...,
#: overwrite=True)``) invalidates its memo entries instead of silently
#: serving bundles built by the old factory.
_bundles: "OrderedDict[str, tuple[object, QueryBundle, Router, WorkloadCaches]]" = \
    OrderedDict()

#: The scenario fields that determine the workload artefacts.
_WORKLOAD_FIELDS = ("workload", "workload_params", "topology")


def workload_spec(scenario: Scenario) -> dict:
    """The sub-document of ``scenario`` that determines its workload."""
    data = scenario.to_dict()
    return {field: data[field] for field in _WORKLOAD_FIELDS if field in data}


def workload_key(scenario: Scenario) -> str:
    """Canonical digest of :func:`workload_spec` (the memo key)."""
    canonical = json.dumps(workload_spec(scenario), sort_keys=True,
                           separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def prebuilt_workload(scenario: Scenario
                      ) -> "tuple[QueryBundle, Router, WorkloadCaches]":
    """The memoized ``(bundle, router, caches)`` for ``scenario``'s workload.

    The :class:`~repro.scenarios.runner.WorkloadCaches` carry the
    per-workload memoized plans, objective values and shared source batches.
    Thread-safe (a cluster worker agent runs ``capacity`` cells on a
    thread pool); the build itself happens under the lock, which is fine
    because builds are rare — one per distinct workload per process.

    A hit is only served while the workload's registry entry is still the
    factory that built it; re-registering the workload name rebuilds.  (A
    factory that itself resolves *other* registry entries — e.g. the
    ``bursty`` wrapper over a base workload — cannot be tracked this way;
    call :func:`clear` after re-registering such a nested dependency.)
    """
    from repro.scenarios.registry import WORKLOADS
    from repro.scenarios.runner import WorkloadCaches, build_bundle

    key = workload_key(scenario)
    factory = WORKLOADS.get(scenario.workload)
    with _lock:
        entry = _bundles.get(key)
        if entry is not None and entry[0] is factory:
            _bundles.move_to_end(key)
            return entry[1:]
        bundle = build_bundle(scenario)
        entry = (factory, bundle, Router(bundle.topology), WorkloadCaches())
        _bundles[key] = entry
        _bundles.move_to_end(key)
        while len(_bundles) > CACHE_CAPACITY:
            _bundles.popitem(last=False)
        return entry[1:]


def run_scenario_prebuilt(scenario: Scenario, *,
                          profile: bool = False) -> "ScenarioResult":
    """Former name of :func:`~repro.scenarios.runner.run_scenario`."""
    from repro.scenarios.runner import run_scenario

    return run_scenario(scenario, profile=profile)


def clear() -> None:
    """Drop the process-local memo (tests and memory-sensitive callers)."""
    with _lock:
        _bundles.clear()


def cache_info() -> dict:
    """Diagnostics: memoized workload count and capacity."""
    with _lock:
        return {"entries": len(_bundles), "capacity": CACHE_CAPACITY}
