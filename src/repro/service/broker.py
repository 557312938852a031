"""The sweep broker: per-client queues, digest dedup, fair scheduling.

:class:`SweepBroker` is the socket-free heart of the service — the
:class:`~repro.service.server.SweepServer` feeds it submissions from
handler threads and drains it from one dispatcher thread; tests drive it
directly.  It owns four responsibilities:

* **Dedup by digest.**  Every submitted cell is keyed by
  :func:`~repro.scenarios.cache.scenario_digest`.  A cell whose digest is
  already queued or in flight — whether submitted by the same client or a
  different one — attaches as an extra *subscriber* instead of queueing a
  second execution; when the one execution completes, the outcome fans out
  to every subscriber.  Cells whose digest the shared
  :class:`~repro.scenarios.cache.ScenarioCache` already holds are answered
  immediately without queueing at all.

* **Fair scheduling.**  Each client has its own FIFO queue;
  :meth:`take` hands the dispatcher batches assembled round-robin over the
  clients that currently have queued work (one cell per client per turn),
  so a client submitting a 10 000-cell sweep cannot starve one submitting
  a single scenario.

* **Event fan-out.**  Completions become ``progress`` + ``result``
  messages pushed through the server-supplied ``publish`` callback, one
  stream per subscribed client, and a ``job-done`` summary once a job's
  last cell resolves.

* **Accounting.**  Per-client and aggregate :class:`SweepCounters`
  (submitted / executed / cache hits / deduped / failed / retried /
  resumed) back the ``status`` request.
"""

from __future__ import annotations

import dataclasses
import threading
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Sequence

from repro.errors import ServiceError
from repro.scenarios.backends import CellError
from repro.scenarios.cache import ScenarioCache, scenario_digest
from repro.scenarios.results import ScenarioResult
from repro.scenarios.session import ProgressEvent
from repro.scenarios.spec import Scenario
from repro.service.journal import SweepJournal
from repro.service.protocol import outcome_to_wire

#: The pseudo-client that owns cells resumed from a journal: nobody is
#: connected to receive their events, but their results land in the shared
#: cache, so re-submitting clients get instant hits.
JOURNAL_CLIENT = "__journal__"

#: ``publish(client_id, message)`` — the server routes ``message`` to the
#: client's outbound stream (a no-op for disconnected clients).
Publish = Callable[[str, dict], None]


@dataclass
class SweepCounters:
    """What one client (or the whole server) has caused so far."""

    submitted: int = 0      #: cells received in submit requests
    executed: int = 0       #: cells this client's queue actually ran
    cache_hits: int = 0     #: cells answered straight from the cache
    deduped: int = 0        #: cells attached to an existing execution
    failed: int = 0         #: cell outcomes that were CellErrors
    retried: int = 0        #: extra attempts caused by worker deaths
    resumed: int = 0        #: cells re-enqueued from the journal
    degraded: int = 0       #: cells that ran on a fallback backend

    def to_dict(self) -> dict[str, int]:
        return dataclasses.asdict(self)


@dataclass
class _Subscriber:
    """One (client, job, index) waiting for a cell's outcome."""

    client: str
    job: str
    index: int
    scenario: Scenario
    source: str             #: "executed" | "deduped" (at submit time)


@dataclass
class _Cell:
    """One unique queued/in-flight execution, fanned out to subscribers."""

    digest: str
    scenario: Scenario
    owner: str
    subscribers: list[_Subscriber] = field(default_factory=list)
    state: str = "queued"   #: "queued" -> "inflight" -> gone


@dataclass
class _Job:
    """Per-job progress so ``job-done`` can carry a GridReport-like tally."""

    client: str
    job_id: str
    total: int
    stream_results: bool = True
    done: int = 0
    errors: int = 0
    retries: int = 0
    by_source: dict[str, int] = field(default_factory=dict)

    def tally(self) -> dict[str, Any]:
        return {"total": self.total, "done": self.done,
                "errors": self.errors, "retries": self.retries,
                "executed": self.by_source.get("executed", 0),
                "cache_hits": self.by_source.get("cache", 0),
                "deduped": self.by_source.get("deduped", 0)}


class SweepBroker:
    """Thread-safe scheduling state shared by handler and dispatcher threads."""

    def __init__(self, *, cache: ScenarioCache | None = None,
                 journal: SweepJournal | None = None,
                 publish: Publish | None = None):
        self.cache = cache
        self.journal = journal
        self.publish: Publish = publish or (lambda client, message: None)
        self._lock = threading.Lock()
        self._work = threading.Condition(self._lock)
        self._queues: dict[str, deque[_Cell]] = {}
        self._rotation: deque[str] = deque()
        self._by_digest: dict[str, _Cell] = {}
        self._jobs: dict[tuple[str, str], _Job] = {}
        self._job_seq = 0
        self._queued = 0
        self._inflight = 0
        self._draining = False
        self._stopped = False
        self.totals = SweepCounters()
        self.per_client: dict[str, SweepCounters] = {}

    # -- submission ------------------------------------------------------
    def submit(self, client: str, scenarios: Sequence[Scenario], *,
               job: str | None = None,
               stream_results: bool = True) -> dict[str, Any]:
        """Queue ``scenarios`` for ``client``; returns the ``accepted`` body.

        The ``accepted`` message is published through the client's event
        stream (not returned to the caller) so it is guaranteed to precede
        every event of the job — cells resolved without execution (cache
        hits) are announced immediately, before this method returns, and a
        fully-cached job can be accepted and completed in one breath.
        """
        scenarios = list(scenarios)
        if not scenarios:
            raise ServiceError("a submission needs at least one scenario")
        with self._work:
            if self._draining:
                raise ServiceError("server is draining; submission refused")
            self._job_seq += 1
            job_id = job or f"job-{self._job_seq}"
            key = (client, job_id)
            if key in self._jobs:
                raise ServiceError(
                    f"client {client!r} already has an active job {job_id!r}"
                )
            state = _Job(client, job_id, len(scenarios),
                         stream_results=stream_results)
            self._jobs[key] = state
            counters = self.per_client.setdefault(client, SweepCounters())
            digests = [scenario_digest(s) for s in scenarios]
            self.publish(client, {"type": "accepted", "job": job_id,
                                  "total": len(scenarios),
                                  "digests": digests})
            announce: list[tuple[_Subscriber, object, int]] = []
            for index, (scenario, digest) in enumerate(zip(scenarios, digests)):
                counters.submitted += 1
                self.totals.submitted += 1
                hit = self.cache.get(digest) if self.cache is not None else None
                if hit is not None:
                    counters.cache_hits += 1
                    self.totals.cache_hits += 1
                    announce.append((_Subscriber(client, job_id, index,
                                                 scenario, "cache"), hit, 0))
                    continue
                cell = self._by_digest.get(digest)
                if cell is not None:
                    counters.deduped += 1
                    self.totals.deduped += 1
                    cell.subscribers.append(
                        _Subscriber(client, job_id, index, scenario, "deduped"))
                    continue
                cell = _Cell(digest, scenario, owner=client)
                cell.subscribers.append(
                    _Subscriber(client, job_id, index, scenario, "executed"))
                self._by_digest[digest] = cell
                self._enqueue(cell)
                if self.journal is not None:
                    self.journal.record_queued(digest, scenario)
            for subscriber, outcome, retries in announce:
                self._deliver(subscriber, outcome, retries)
            self._work.notify_all()
            return {"job": job_id, "total": len(scenarios), "digests": digests}

    def resume_from_journal(self) -> int:
        """Re-enqueue the journal's pending cells under the journal client."""
        if self.journal is None:
            return 0
        pending = self.journal.load_pending()
        if not pending:
            return 0
        with self._work:
            counters = self.per_client.setdefault(JOURNAL_CLIENT,
                                                  SweepCounters())
            resumed = 0
            for digest, scenario in pending:
                if digest in self._by_digest:
                    continue
                if self.cache is not None and digest in self.cache:
                    # Already simulated by a previous life of the server;
                    # nothing to re-run, just retire the journal record.
                    self.journal.record_done(digest)
                    continue
                cell = _Cell(digest, scenario, owner=JOURNAL_CLIENT)
                self._by_digest[digest] = cell
                self._enqueue(cell)
                resumed += 1
                counters.resumed += 1
                self.totals.resumed += 1
            self._work.notify_all()
            return resumed

    def _enqueue(self, cell: _Cell) -> None:
        queue = self._queues.setdefault(cell.owner, deque())
        if not queue:
            self._rotation.append(cell.owner)
        queue.append(cell)
        self._queued += 1

    # -- dispatch --------------------------------------------------------
    def take(self, limit: int) -> list[tuple[str, Scenario]] | None:
        """Block until work is available; ``None`` once draining/stopped.

        Returns up to ``limit`` ``(digest, scenario)`` pairs assembled
        round-robin over the clients that have queued cells — one cell per
        client per turn — and marks them in flight.
        """
        with self._work:
            while not self._rotation:
                if self._draining or self._stopped:
                    return None
                self._work.wait()
            if self._draining or self._stopped:
                return None
            batch: list[tuple[str, Scenario]] = []
            while self._rotation and len(batch) < limit:
                client = self._rotation.popleft()
                queue = self._queues[client]
                cell = queue.popleft()
                cell.state = "inflight"
                self._queued -= 1
                self._inflight += 1
                batch.append((cell.digest, cell.scenario))
                if queue:
                    self._rotation.append(client)
            return batch

    def complete(self, digest: str, outcome: object, attempts: int = 1, *,
                 degraded: bool = False) -> None:
        """Record one finished execution and fan it out to subscribers.

        ``degraded=True`` marks a cell a degraded cluster backend handed
        to its in-process fallback; it surfaces in the ``status``
        counters so operators can see a sweep quietly running without
        its fleet.
        """
        if isinstance(outcome, ScenarioResult) and self.cache is not None:
            self.cache.put(digest, outcome)
        with self._work:
            cell = self._by_digest.pop(digest, None)
            if cell is None:  # pragma: no cover - dispatcher/broker bug guard
                raise ServiceError(f"completion for unknown digest {digest!r}")
            self._inflight -= 1
            retries = max(0, attempts - 1)
            owner = self.per_client.setdefault(cell.owner, SweepCounters())
            owner.executed += 1
            owner.retried += retries
            self.totals.executed += 1
            self.totals.retried += retries
            if degraded:
                owner.degraded += 1
                self.totals.degraded += 1
            if self.journal is not None:
                self.journal.record_done(digest)
            for subscriber in cell.subscribers:
                self._deliver(subscriber, outcome, retries)
            self._work.notify_all()

    def _deliver(self, subscriber: _Subscriber, outcome: object,
                 retries: int) -> None:
        """Publish progress (+ result) for one subscriber, under the lock."""
        job = self._jobs[(subscriber.client, subscriber.job)]
        job.done += 1
        job.retries += retries
        job.by_source[subscriber.source] = \
            job.by_source.get(subscriber.source, 0) + 1
        ok = isinstance(outcome, ScenarioResult)
        if not ok:
            job.errors += 1
            counters = self.per_client.setdefault(subscriber.client,
                                                  SweepCounters())
            counters.failed += 1
            self.totals.failed += 1
        delivered = outcome
        if isinstance(outcome, ScenarioResult):
            if outcome.scenario != subscriber.scenario:
                delivered = dataclasses.replace(
                    outcome, scenario=subscriber.scenario)
        elif isinstance(outcome, CellError) \
                and outcome.scenario != subscriber.scenario:
            delivered = dataclasses.replace(
                outcome, scenario=subscriber.scenario)
        event = ProgressEvent(job.done, job.total, subscriber.index,
                              subscriber.scenario, outcome,
                              subscriber.source, retries)
        self.publish(subscriber.client, {
            "type": "progress", "job": subscriber.job, **event.to_dict()})
        if job.stream_results:
            self.publish(subscriber.client, {
                "type": "result", "job": subscriber.job,
                "index": subscriber.index, "source": subscriber.source,
                "retries": retries, "outcome": outcome_to_wire(delivered),
            })
        if job.done == job.total:
            del self._jobs[(subscriber.client, subscriber.job)]
            self.publish(subscriber.client,
                         {"type": "job-done", "job": subscriber.job,
                          **job.tally()})

    def requeue_inflight(self, digests: Sequence[str]) -> None:
        """Put un-reported in-flight cells back in their queues.

        The dispatcher calls this when a backend dies wholesale mid-batch:
        cells it already reported are gone from ``_by_digest``; the rest
        go back to the front of the line as if never taken.
        """
        with self._work:
            for digest in digests:
                cell = self._by_digest.get(digest)
                if cell is not None and cell.state == "inflight":
                    cell.state = "queued"
                    self._inflight -= 1
                    self._enqueue(cell)
            self._work.notify_all()

    # -- lifecycle -------------------------------------------------------
    def drain(self) -> None:
        """Stop handing out new work; queued cells stay for the journal."""
        with self._work:
            self._draining = True
            self._work.notify_all()

    def stop(self) -> None:
        with self._work:
            self._stopped = True
            self._work.notify_all()

    @property
    def draining(self) -> bool:
        return self._draining

    def pending_scenarios(self) -> list[tuple[str, Scenario]]:
        """The still-queued (digest, scenario) pairs — what a drain journals."""
        with self._lock:
            return [(cell.digest, cell.scenario)
                    for queue in self._queues.values() for cell in queue]

    def idle(self) -> bool:
        """Whether nothing is queued or in flight."""
        with self._lock:
            return self._queued == 0 and self._inflight == 0

    def status(self) -> dict[str, Any]:
        """The body of a ``status`` reply."""
        with self._lock:
            return {
                "queued": self._queued,
                "inflight": self._inflight,
                "active_jobs": len(self._jobs),
                "draining": self._draining,
                "totals": self.totals.to_dict(),
                "clients": {client: counters.to_dict()
                            for client, counters in
                            sorted(self.per_client.items())},
            }
