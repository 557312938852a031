"""Prebuilt workload artefacts: build each distinct topology once per grid.

A grid of failure scenarios typically sweeps budgets, checkpoint intervals,
failure models and seeds over a *handful* of distinct workloads — yet the
naive per-cell runner rebuilds the topology graph, the router's dispatch
tables and the workload bundle for every single cell (and, with the
processes backend, in every worker, for every cell).  This module is the
prebuilt-worker fast path:

* :func:`prebuilt_workload` keys each scenario by the part of its spec that
  determines the workload artefacts — ``(workload, workload_params,
  topology)``, canonically serialized — and memoizes the built
  :class:`~repro.workloads.bundles.QueryBundle` plus a shared
  :class:`~repro.engine.routing.Router` in a bounded, process-local LRU;
* :func:`run_scenario_prebuilt` is the drop-in
  :data:`~repro.scenarios.backends.Runner` that resolves through the memo
  (it is the :class:`~repro.scenarios.session.GridSession` default);
* :func:`warm` / :func:`warm_payload` pre-populate the memo.  The processes
  backend warms workers through their pool initializer: with the ``fork``
  start method workers *inherit* the parent's already-built artefacts for
  free; with ``forkserver`` the module is preloaded into the fork server
  and each worker receives the distinct workload specs exactly once
  (pickle-once — the payload rides along the initializer arguments instead
  of being re-shipped per cell); plain ``spawn`` behaves like forkserver
  without the preload.

Reusing a bundle across runs is sound because bundles are pure functions of
their parameters and runs never mutate them: ``make_logic()`` builds fresh
operator instances per engine, topologies and rate models are read-only,
and the shared router's key memo is content-transparent.  The
``bench_grid_backends`` benchmark and ``tests/test_grid_execution.py``
assert that prebuilt results are digest-identical to the serial backend.
"""

from __future__ import annotations

import hashlib
import json
import threading
from collections import OrderedDict
from typing import TYPE_CHECKING, Iterable, Sequence

from repro.engine.routing import Router
from repro.scenarios.spec import Scenario

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.scenarios.results import ScenarioResult
    from repro.scenarios.runner import WorkloadCaches
    from repro.workloads.bundles import QueryBundle

#: How many distinct workloads stay memoized per process.  Grids normally
#: use a handful; a sweep over hundreds of random topologies simply cycles
#: the LRU without unbounded memory growth.
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
    from repro.scenarios.runner import ScenarioRunner, WorkloadCaches

    key = workload_key(scenario)
    factory = WORKLOADS.get(scenario.workload)
    with _lock:
        entry = _bundles.get(key)
        if entry is not None and entry[0] is factory:
            _bundles.move_to_end(key)
            return entry[1:]
        bundle = ScenarioRunner(scenario).bundle()
        entry = (factory, bundle, Router(bundle.topology), WorkloadCaches())
        _bundles[key] = entry
        _bundles.move_to_end(key)
        while len(_bundles) > CACHE_CAPACITY:
            _bundles.popitem(last=False)
        return entry[1:]


def run_scenario_prebuilt(scenario: Scenario, *,
                          profile: bool = False) -> "ScenarioResult":
    """:func:`~repro.scenarios.runner.run_scenario` through the prebuilt memo.

    Byte-identical results (bundles are pure and unmutated, memoized plans
    and objective values are deterministic, source functions are pure); the
    only difference is that the topology, router tables, workload bundle,
    plans and source batches are computed once per distinct workload
    instead of once per cell.
    """
    from repro.scenarios.runner import ScenarioRunner

    bundle, router, caches = prebuilt_workload(scenario)
    return ScenarioRunner(scenario, profile=profile, bundle=bundle,
                          router=router, caches=caches).run()


#: Marks the runner as memo-aware so the processes backend knows that
#: shipping a warm payload to its workers will actually be used.
run_scenario_prebuilt.prebuilt = True  # type: ignore[attr-defined]


def warm(scenarios: Iterable[Scenario]) -> int:
    """Build every distinct workload of ``scenarios`` into the local memo.

    Returns the number of distinct workloads.  Called in the grid parent
    before a ``fork``-context pool is created, so workers inherit the built
    artefacts without any pickling at all.
    """
    seen: set[str] = set()
    for scenario in scenarios:
        key = workload_key(scenario)
        if key not in seen:
            seen.add(key)
            prebuilt_workload(scenario)
    return len(seen)


def warm_payload(scenarios: Iterable[Scenario]) -> tuple[str, ...]:
    """One canonical JSON spec per distinct workload (the pickle-once payload)."""
    specs: dict[str, str] = {}
    for scenario in scenarios:
        key = workload_key(scenario)
        if key not in specs:
            specs[key] = json.dumps(workload_spec(scenario), sort_keys=True,
                                    separators=(",", ":"))
    return tuple(specs.values())


def warm_from_payload(payload: Sequence[str]) -> None:
    """Worker-side warmup: build each shipped workload spec once.

    Used as the process-pool initializer, so it runs exactly once per
    worker.  Under the ``fork`` start method the parent's memo was inherited
    and every spec is already a cache hit.
    """
    for spec in payload:
        # The spec's keys are (a subset of) Scenario fields, so it loads as
        # a minimal scenario — exactly enough to resolve the bundle.
        prebuilt_workload(Scenario.from_dict(json.loads(spec)))


def clear() -> None:
    """Drop the process-local memo (tests and memory-sensitive callers)."""
    with _lock:
        _bundles.clear()


def cache_info() -> dict:
    """Diagnostics: memoized workload count and capacity."""
    with _lock:
        return {"entries": len(_bundles), "capacity": CACHE_CAPACITY}
