"""Grid execution sessions: backend + sink + cache, wired together.

:class:`GridSession` is the engine room behind
:func:`~repro.scenarios.grid.run_grid` and
:func:`~repro.scenarios.grid.run_scenarios`: it resolves the execution
backend, deduplicates identical cells, consults the content-addressed
:class:`~repro.scenarios.cache.ScenarioCache`, streams outcomes into a
:class:`~repro.scenarios.sinks.ResultSink` **in input order** (whatever
order the backend completes them in), fires progress callbacks in
completion order, and tallies everything into a :class:`GridReport`.

>>> from repro.scenarios import GridSession, Scenario
>>> report = GridSession().run([Scenario(duration=5.0, planner="none",
...                                      workload_params={"window_seconds": 5.0,
...                                                       "rate_per_source": 50.0})])
>>> report.total, report.executed, len(report.results())
(1, 1, 1)
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

from repro.errors import ScenarioError
from repro.scenarios.backends import (
    CellError,
    ExecutionBackend,
    Runner,
    resolve_backend,
)
from repro.scenarios.cache import ScenarioCache, scenario_digest
from repro.scenarios.results import ScenarioResult
from repro.scenarios.runner import run_scenario
from repro.scenarios.sinks import MemorySink, ResultSink, resolve_sink
from repro.scenarios.spec import Scenario


@dataclass(frozen=True)
class ProgressEvent:
    """One completed grid cell, as seen by a progress callback.

    ``source`` says where the outcome came from: ``"executed"`` (the
    backend ran it), ``"cache"`` (content-addressed cache hit),
    ``"deduped"`` (an identical cell already ran in this grid) or
    ``"resumed"`` (already persisted in the sink).  Events fire in
    completion order, which for parallel backends is not input order.
    ``retries`` counts the extra attempts the executing backend needed
    (>0 only when a dead worker forced the cell to restart); duplicates
    of one executed representative all report its retry count.
    """

    done: int
    total: int
    index: int
    scenario: Scenario
    outcome: object
    source: str
    retries: int = 0

    @property
    def ok(self) -> bool:
        """Whether the cell produced a result rather than a CellError."""
        return isinstance(self.outcome, ScenarioResult)

    def to_dict(self) -> dict[str, object]:
        """The event as a progress dict, keyed like the sweep service's
        ``progress`` message; a failed cell adds its ``kind``."""
        event = {"done": self.done, "total": self.total, "index": self.index,
                 "label": self.scenario.name or self.scenario.workload,
                 "ok": self.ok, "source": self.source,
                 "retries": self.retries}
        if not self.ok:
            event["kind"] = self.outcome.kind
        return event


@dataclass
class GridReport:
    """What one :meth:`GridSession.run` did, with per-source tallies.

    ``executed + cache_hits + deduped + resumed == total``; ``errors``
    counts the *cells* whose outcome is a :class:`CellError` — a failed
    representative counts once per duplicate it was fanned out to, so
    ``errors`` can exceed ``executed`` but never ``total``.  ``retries``
    counts extra execution attempts across the whole grid (one per worker
    death that forced a cell restart, charged once per distinct executed
    cell, not per duplicate).  ``degraded`` counts executed cells that a
    degradation-capable backend (the cluster backend with a fallback)
    finished on its in-process fallback rather than the primary fabric —
    the results are identical, but the operator should know the fleet
    was not healthy.  ``outcomes`` lines up with the input scenarios, or
    is ``None`` when the session was created with ``collect=False``.
    """

    total: int
    executed: int
    cache_hits: int
    deduped: int
    resumed: int
    errors: int
    outcomes: list[object] | None
    retries: int = 0
    degraded: int = 0

    def counts(self) -> dict[str, int]:
        """Every tally but ``outcomes``, in field order."""
        return {f.name: getattr(self, f.name)
                for f in dataclasses.fields(self) if f.name != "outcomes"}

    def results(self) -> list[ScenarioResult]:
        """The successful results, in input order (requires ``collect``)."""
        if self.outcomes is None:
            raise ScenarioError(
                "this session ran with collect=False; read the sink instead"
            )
        return [o for o in self.outcomes if isinstance(o, ScenarioResult)]

    def cell_errors(self) -> list[CellError]:
        """The failed cells, in input order (requires ``collect``)."""
        if self.outcomes is None:
            raise ScenarioError(
                "this session ran with collect=False; read the sink instead"
            )
        return [o for o in self.outcomes if isinstance(o, CellError)]


#: Placeholder for outcomes already handed to the sink in streaming mode.
_FLUSHED = object()


def _relabel(result: ScenarioResult, scenario: Scenario) -> ScenarioResult:
    """A copy of ``result`` carrying exactly ``scenario``.

    Cache hits and deduplicated cells may differ from the stored copy in
    the one field the digest ignores — the ``name`` label — so the
    requested scenario is restored before the result is reported.
    """
    if result.scenario == scenario:
        return result
    return dataclasses.replace(result, scenario=scenario)


class GridSession:
    """One configured way of executing scenario grids.

    Parameters
    ----------
    backend:
        Execution strategy — a registry name (``"serial"``,
        ``"processes"``, ``"cluster"``) or an :class:`ExecutionBackend`
        instance.  A backend resolved from a name belongs to the session
        and is closed when :meth:`run` returns (a parallel backend's
        workers would otherwise outlive the grid); an instance belongs
        to the caller.
    sink:
        Where outcomes go — a :class:`ResultSink` instance, ``"memory"``,
        or ``None`` for a fresh in-memory sink.
    cache:
        Optional :class:`ScenarioCache` (or a directory path for one);
        already-simulated cells are loaded instead of re-run.
    timeout:
        Per-scenario wall-clock budget in seconds; overruns become
        ``"timeout"`` :class:`CellError`\\ s.
    retries:
        How many extra attempts a cell gets when its worker dies or its
        timeout expires (parallel backends; default one retry).
    progress:
        Callback receiving a :class:`ProgressEvent` per completed cell, in
        completion order.
    resume:
        Skip cells whose digest the sink already holds (file-backed sinks).
    strict:
        Raise :class:`ScenarioError` for the first failed cell after the
        grid finishes (the façades default to strict; sinks still receive
        every outcome first).
    collect:
        Keep outcomes in memory for :attr:`GridReport.outcomes`.  Turn off
        for huge grids where the sink is the only consumer.
    runner:
        The per-scenario runner; a module-level importable callable for
        the parallel backends, which send it to their workers by name.
        The default, :func:`~repro.scenarios.runner.run_scenario`,
        resolves workloads through the per-process memo of
        :mod:`repro.scenarios.prebuilt`, building each distinct
        topology/router/bundle, plan and quality baseline on its first use
        in each process instead of once per cell.  Tests substitute counting/faulty runners
        here.
    """

    def __init__(self, backend: "str | ExecutionBackend | None" = None,
                 sink: "str | ResultSink | None" = None,
                 cache: "ScenarioCache | str | None" = None, *,
                 timeout: float | None = None,
                 retries: int = 1,
                 progress: Callable[[ProgressEvent], None] | None = None,
                 resume: bool = False,
                 strict: bool = False,
                 collect: bool = True,
                 runner: Runner = run_scenario):
        self.backend = resolve_backend(backend)
        self._owns_backend = not isinstance(backend, ExecutionBackend)
        self.sink = resolve_sink(sink)
        self.cache = ScenarioCache(cache) if isinstance(cache, (str, bytes)) \
            else cache
        if timeout is not None and not 0 < timeout < math.inf:
            raise ScenarioError(
                f"timeout must be positive and finite, got {timeout}")
        if retries < 0:
            raise ScenarioError(f"retries must be >= 0, got {retries}")
        self.timeout = timeout
        self.retries = retries
        self.progress = progress
        self.resume = resume
        self.strict = strict
        self.collect = collect
        self.runner = runner

    # ------------------------------------------------------------------
    def run(self, scenarios: Sequence[Scenario]) -> GridReport:
        """Execute ``scenarios`` and return the :class:`GridReport`.

        Identical cells (same digest) are executed once and fanned out;
        cache hits and sink-resumed cells skip execution entirely.  The
        sink receives outcomes in input order regardless of the backend's
        completion order, so outputs are deterministic.
        """
        scenarios = list(scenarios)
        total = len(scenarios)
        digests = [scenario_digest(s) for s in scenarios]
        outcomes: list[object | None] = [None] * total
        sources: list[str] = [""] * total
        done = 0
        next_flush = 0
        errors = 0
        retries = 0
        degraded = 0
        first_error: CellError | None = None

        persisted: Mapping[str, object] = {}
        try:
            persisted = self.sink.start(resume=self.resume)

            # Resolve what does not need the backend: resumed cells, cache
            # hits, and duplicates of a cell that will be executed anyway.
            pending: dict[str, list[int]] = {}
            for index, (scenario, digest) in enumerate(zip(scenarios, digests)):
                if self.resume and digest in persisted:
                    outcome = persisted[digest]
                    if isinstance(outcome, ScenarioResult):
                        outcome = _relabel(outcome, scenario)
                    outcomes[index] = outcome
                    sources[index] = "resumed"
                    continue
                if self.cache is not None:
                    hit = self.cache.get(digest)
                    if hit is not None:
                        outcomes[index] = _relabel(hit, scenario)
                        sources[index] = "cache"
                        continue
                slots = pending.setdefault(digest, [])
                if slots:
                    sources[index] = "deduped"
                slots.append(index)

            # Announce the cells that were ready before execution started.
            for index in range(total):
                if outcomes[index] is not None:
                    done += 1
                    self._announce(done, total, index, scenarios[index],
                                   outcomes[index], sources[index])
            next_flush = self._flush(outcomes, sources, digests, next_flush)

            # Execute one representative per distinct digest; completion
            # order is backend-dependent, input order is restored on write.
            representatives = sorted(slots[0] for slots in pending.values())
            to_run = [scenarios[i] for i in representatives]
            for position, outcome, attempts in self.backend.execute(
                    to_run, self.runner,
                    timeout=self.timeout, retries=self.retries):
                cell_retries = max(0, attempts - 1)
                retries += cell_retries
                if position in self.backend.degraded_positions:
                    degraded += 1
                rep_index = representatives[position]
                digest = digests[rep_index]
                if isinstance(outcome, ScenarioResult) and self.cache is not None:
                    self.cache.put(digest, outcome)
                for index in pending[digest]:
                    cell_outcome = outcome
                    if isinstance(outcome, ScenarioResult):
                        cell_outcome = _relabel(outcome, scenarios[index])
                    elif index != rep_index:
                        cell_outcome = dataclasses.replace(
                            outcome, scenario=scenarios[index])
                    if isinstance(cell_outcome, CellError):
                        errors += 1
                        first_error = first_error or cell_outcome
                    outcomes[index] = cell_outcome
                    sources[index] = sources[index] or "executed"
                    done += 1
                    self._announce(done, total, index, scenarios[index],
                                   cell_outcome, sources[index],
                                   retries=cell_retries)
                next_flush = self._flush(outcomes, sources, digests, next_flush)

            if next_flush != total:  # pragma: no cover - backend bug guard
                missing = [i for i in range(total) if outcomes[i] is None]
                raise ScenarioError(
                    f"backend {self.backend.name!r} returned no outcome for "
                    f"cells {missing}"
                )
        finally:
            if self._owns_backend:
                self.backend.close()
            self.sink.finish()

        report = GridReport(
            total=total,
            executed=sum(1 for s in sources if s == "executed"),
            cache_hits=sum(1 for s in sources if s == "cache"),
            deduped=sum(1 for s in sources if s == "deduped"),
            resumed=sum(1 for s in sources if s == "resumed"),
            errors=errors,
            outcomes=list(outcomes) if self.collect else None,
            retries=retries,
            degraded=degraded,
        )
        if self.strict and first_error is not None:
            name = first_error.scenario.name or first_error.scenario.workload
            raise ScenarioError(
                f"grid cell {name!r} failed ({first_error.kind}): "
                f"{first_error.message}"
            )
        return report

    # ------------------------------------------------------------------
    def _announce(self, done: int, total: int, index: int, scenario: Scenario,
                  outcome: object, source: str, *, retries: int = 0) -> None:
        if self.progress is not None:
            self.progress(ProgressEvent(done, total, index, scenario,
                                        outcome, source, retries))

    def _flush(self, outcomes: list, sources: Sequence[str],
               digests: Sequence[str], next_flush: int) -> int:
        """Write the contiguous ready prefix to the sink, in input order."""
        while next_flush < len(outcomes) and outcomes[next_flush] is not None:
            if sources[next_flush] != "resumed":  # resumed rows already exist
                self.sink.write(next_flush, digests[next_flush],
                                outcomes[next_flush])
            if not self.collect:
                # Streaming mode: the sink is the only consumer, so written
                # outcomes are dropped to keep memory flat on huge grids.
                outcomes[next_flush] = _FLUSHED
            next_flush += 1
        return next_flush

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return (f"GridSession(backend={self.backend.name!r}, "
                f"sink={self.sink.name!r}, cache={self.cache!r})")
