"""The per-process workload memo every scenario run goes through.

A sweep of failure scenarios typically varies budgets, checkpoint intervals,
failure models, recovery schemes and seeds over a *handful* of distinct
workloads.  Each workload's topology graph, router dispatch tables, query
bundle, plans, source batches and failure-free quality baseline are the
same for all of those runs, so they are built once per process and shared:

* :func:`prebuilt_workload` keys each scenario by the part of its spec that
  determines the workload artefacts — ``(workload, workload_params,
  topology)``, canonically serialized — and memoizes the built
  :class:`~repro.workloads.bundles.QueryBundle`, a shared
  :class:`~repro.engine.routing.Router` and the workload's
  :class:`~repro.scenarios.runner.WorkloadCaches` in a bounded LRU of
  :data:`CACHE_CAPACITY` workloads.  Every
  :class:`~repro.scenarios.runner.ScenarioRunner` resolves through it, so
  :func:`~repro.scenarios.runner.run_scenario` is the one run path of the
  CLI, grids, the sweep server, cluster workers and chaos.  :func:`clear`
  drops the memo for memory-sensitive callers.
* :func:`warm` / :func:`warm_payload` pre-populate the memo.  The processes
  backend warms workers through their pool initializer: with the ``fork``
  start method workers *inherit* the parent's already-built artefacts for
  free; with ``forkserver`` the module is preloaded into the fork server
  and each worker receives the distinct workload specs exactly once
  (pickle-once — the payload rides along the initializer arguments instead
  of being re-shipped per cell); plain ``spawn`` behaves like forkserver
  without the preload.  A workload that fails to build is skipped by the
  warm-up and left to fail its own cells.

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
from typing import TYPE_CHECKING, Iterable, Sequence

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


def warm(scenarios: Iterable[Scenario]) -> int:
    """Build every distinct workload of ``scenarios`` into the local memo.

    Returns the number of distinct workloads.  Called in the grid parent
    before a ``fork``-context pool is created, so workers inherit the built
    artefacts without any pickling at all.  A workload that fails to build
    is skipped: its cells raise the same error when they run, and only
    they fail.
    """
    seen: set[str] = set()
    for scenario in scenarios:
        key = workload_key(scenario)
        if key not in seen:
            seen.add(key)
            _try_build(scenario)
    return len(seen)


def _try_build(scenario: Scenario) -> None:
    try:
        prebuilt_workload(scenario)
    except Exception:  # noqa: BLE001 - the cell reports it when it runs
        pass


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
        # a minimal scenario — exactly enough to resolve the bundle.  An
        # initializer that raised would break the whole pool.
        _try_build(Scenario.from_dict(json.loads(spec)))


def clear() -> None:
    """Drop the process-local memo (tests and memory-sensitive callers)."""
    with _lock:
        _bundles.clear()


def cache_info() -> dict:
    """Diagnostics: memoized workload count and capacity."""
    with _lock:
        return {"entries": len(_bundles), "capacity": CACHE_CAPACITY}
