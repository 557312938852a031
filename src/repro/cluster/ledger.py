"""The cell ledger: leases, retries and worker accounting, socket-free.

:class:`CellLedger` is to the cluster what
:class:`~repro.service.broker.SweepBroker` is to the sweep service — the
single-lock scheduling heart that the TCP layer stays out of.  It tracks
one batch of grid cells at a time through a small state machine:

``queued`` → ``leased`` → done (an outcome on the outcome queue)

* **Leasing** hands queued cells to registered workers with free slots,
  round-robin across workers so one fast registrant does not starve the
  rest.  Every lease charges the cell an attempt and (when the batch has
  a timeout) arms a deadline.
* **Worker death** (socket EOF, missed heartbeats, or a clean ``bye``
  with leases outstanding) requeues the worker's leased cells while the
  retry budget lasts, then emits a ``"worker-death"``
  :class:`~repro.scenarios.backends.CellError` whose ``attempts`` count
  surfaces as ``GridReport.retries`` — exactly the processes backend's
  semantics, stretched across hosts.
* **Lease expiry** (a hung-but-heartbeating worker) requeues the same
  way with kind ``"timeout"`` once the budget runs out.
* **Late results** for a cell that was already requeued still retire it
  (first completion wins); results for unknown cells — a prior batch, a
  double send — are ignored, so duplicated effort is never double
  reported.
* **Durability** (optional): with a
  :class:`~repro.cluster.journal.LedgerJournal` attached, batch
  admission, every lease grant, and every completion hit an fsync'd WAL
  *before* they take effect on the wire.  A coordinator that is
  SIGKILLed mid-grid restarts, :meth:`restore_from_journal` re-admits
  the unfinished cells (attempt counts intact) and re-emits completed
  outcomes the old consumer never drained, and first-completion-wins
  keeps holding across the restart.  A fresh :meth:`submit` of the
  *same* batch adopts the restored state instead of recomputing it.

The ledger publishes leases through a caller-supplied ``publish(worker_id,
message)`` callback (the coordinator routes it onto the worker's outbound
queue), which must never block: assignment happens under the ledger lock.
"""

from __future__ import annotations

import queue
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Mapping, Sequence

from repro.cluster.journal import LedgerJournal
from repro.errors import ClusterError
from repro.scenarios.backends import CellError
from repro.scenarios.spec import Scenario
from repro.service.protocol import outcome_from_wire, outcome_to_wire


@dataclass
class WorkerInfo:
    """One registered worker's lease accounting."""

    worker_id: str
    capacity: int
    inflight: int = 0
    completed: int = 0
    last_seen: float = field(default_factory=time.monotonic)


@dataclass
class _TrackedCell:
    """One grid cell's journey through the ledger."""

    cell_id: int
    index: int
    scenario: Scenario
    attempts: int = 0
    state: str = "queued"  # "queued" | "leased"
    worker: str | None = None
    deadline: float | None = None


class CellLedger:
    """Lease/retry bookkeeping for one batch of cells at a time.

    ``publish(worker_id, message)`` delivers a lease to a worker's stream
    and must not block.  ``heartbeat_timeout`` is how long a silent
    worker survives before its leases requeue.  ``journal`` (optional)
    makes the ledger crash-safe — see :meth:`restore_from_journal`.
    """

    def __init__(self, publish: Callable[[str, Mapping[str, Any]], None], *,
                 heartbeat_timeout: float = 10.0,
                 journal: LedgerJournal | None = None):
        if heartbeat_timeout <= 0:
            raise ClusterError(
                f"heartbeat_timeout must be > 0, got {heartbeat_timeout}"
            )
        self.publish = publish
        self.heartbeat_timeout = heartbeat_timeout
        self.journal = journal
        #: ``{index: scenario_dict}`` of a journal-restored batch that a
        #: matching :meth:`submit` may adopt; ``None`` otherwise.
        self._adoptable: dict[int, dict] | None = None
        self._lock = threading.Lock()
        self._workers: dict[str, WorkerInfo] = {}
        self._rotation: deque[str] = deque()
        self._cells: dict[int, _TrackedCell] = {}
        self._queue: deque[int] = deque()
        self._outcomes: "queue.SimpleQueue[tuple[int, object, int]]" = \
            queue.SimpleQueue()
        self._cell_seq = 0
        self._outstanding = 0
        self._timeout: float | None = None
        self._retries = 1
        self._runner: str | None = None
        self._last_worker_present = time.monotonic()

    # -- workers ---------------------------------------------------------
    def register_worker(self, worker_id: str, capacity: int, *,
                        resume: bool = False) -> None:
        """Admit a worker and immediately lease queued cells to it.

        The caller (the coordinator) owns id uniqueness and must be able
        to route ``publish(worker_id, ...)`` *before* calling this —
        leases can flow the moment the worker is admitted.  With
        ``resume=True`` an already-registered id is not an error: the
        worker reconnected before its old entry was torn down, so its
        leases are still valid — just refresh liveness and capacity.
        """
        if capacity < 1:
            raise ClusterError(f"worker capacity must be >= 1, got {capacity}")
        with self._lock:
            existing = self._workers.get(worker_id)
            if existing is not None:
                if not resume:
                    raise ClusterError(
                        f"worker id {worker_id!r} is already registered"
                    )
                existing.capacity = capacity
                existing.last_seen = time.monotonic()
            else:
                self._workers[worker_id] = WorkerInfo(worker_id, capacity)
                self._rotation.append(worker_id)
            self._last_worker_present = time.monotonic()
            self._assign()

    def heartbeat(self, worker_id: str) -> None:
        """Record a liveness beacon (unknown workers are ignored)."""
        with self._lock:
            worker = self._workers.get(worker_id)
            if worker is not None:
                worker.last_seen = time.monotonic()

    def remove_worker(self, worker_id: str, *, reason: str) -> None:
        """Drop a worker; its leased cells requeue or fail (charged)."""
        with self._lock:
            self._remove_worker_locked(worker_id, reason=reason,
                                       kind="worker-death")
            self._assign()

    def worker_count(self) -> int:
        with self._lock:
            return len(self._workers)

    def seconds_without_workers(self) -> float:
        """How long the ledger has been workerless (0.0 while staffed)."""
        with self._lock:
            if self._workers:
                return 0.0
            return time.monotonic() - self._last_worker_present

    # -- batches ---------------------------------------------------------
    def restore_from_journal(self) -> int:
        """Replay the WAL: re-admit the crashed batch (pending cell count).

        Unfinished cells re-queue with their original ids (so late
        results from pre-crash workers still retire them — first
        completion wins across the restart) and their lease-derived
        attempt counts; already-completed outcomes are re-emitted on the
        outcome queue for the consumer to (re-)drain.  The restored
        batch stays *adoptable*: a subsequent :meth:`submit` of the same
        scenarios continues it instead of starting over, while a
        different batch discards it.
        """
        if self.journal is None:
            return 0
        replay = self.journal.replay()
        with self._lock:
            if replay.empty:
                return 0
            self._timeout = replay.timeout
            self._retries = max(0, int(replay.retries))
            self._runner = replay.runner
            self._adoptable = {cell.index: cell.scenario.to_dict()
                               for cell in replay.cells.values()}
            for index, attempts, wire in replay.outcomes:
                self._outcomes.put((index, outcome_from_wire(wire),
                                    max(1, attempts)))
            for cell in replay.pending:
                tracked = _TrackedCell(cell.cell_id, cell.index,
                                       cell.scenario, attempts=cell.attempts)
                self._cells[tracked.cell_id] = tracked
                self._queue.append(tracked.cell_id)
            self._cell_seq = max(self._cell_seq, *replay.cells)
            self._outstanding = len(self._cells)
            self._assign()
            return self._outstanding

    def submit(self, scenarios: Sequence[Scenario], *,
               runner: str | None = None,
               timeout: float | None = None,
               retries: int = 1) -> int:
        """Queue one batch of cells; returns the batch size.

        One batch at a time: the backend serialises grids, and stale
        results from an abandoned batch must never leak into the next.
        A batch restored by :meth:`restore_from_journal` is *adopted*
        when the submitted scenarios match it index-for-index (same
        runner spec), so a rerun of a crashed grid command resumes
        instead of recomputing; a mismatched submit discards the
        restored remnant and starts clean.
        """
        scenarios = list(scenarios)
        with self._lock:
            if self._adoptable is not None:
                if self._matches_adoptable_locked(scenarios, runner):
                    self._adoptable = None
                    self._timeout = timeout
                    self._retries = max(0, int(retries))
                    self._assign()
                    return len(scenarios)
                self._clear_batch_locked()
            if self._outstanding:
                raise ClusterError(
                    f"the cluster ledger already has {self._outstanding} "
                    f"outstanding cells; one grid at a time"
                )
            self._timeout = timeout
            self._retries = max(0, int(retries))
            self._runner = runner
            admitted: list[tuple[int, int, Scenario]] = []
            for index, scenario in enumerate(scenarios):
                self._cell_seq += 1
                cell = _TrackedCell(self._cell_seq, index, scenario)
                self._cells[cell.cell_id] = cell
                self._queue.append(cell.cell_id)
                admitted.append((cell.cell_id, index, scenario))
            self._outstanding = len(self._cells)
            if self.journal is not None:
                self.journal.record_batch(admitted, runner=runner,
                                          timeout=timeout,
                                          retries=self._retries)
            self._assign()
            return self._outstanding

    def abandon(self) -> None:
        """Forget the current batch (a consumer gave up mid-grid)."""
        with self._lock:
            self._clear_batch_locked()

    def _matches_adoptable_locked(self, scenarios: Sequence[Scenario],
                                  runner: str | None) -> bool:
        if runner != self._runner or self._adoptable is None:
            return False
        if len(scenarios) != len(self._adoptable):
            return False
        return all(self._adoptable.get(index) == scenario.to_dict()
                   for index, scenario in enumerate(scenarios))

    def _clear_batch_locked(self) -> None:
        for cell in self._cells.values():
            if cell.state == "leased":
                worker = self._workers.get(cell.worker or "")
                if worker is not None:
                    worker.inflight = max(0, worker.inflight - 1)
        self._cells.clear()
        self._queue.clear()
        self._outstanding = 0
        self._adoptable = None
        if self.journal is not None:
            self.journal.reset()
        while True:  # drain stale outcomes
            try:
                self._outcomes.get_nowait()
            except queue.Empty:
                break

    def complete(self, worker_id: str, cell_id: int, outcome: object) -> bool:
        """Retire a cell with a worker-reported outcome (first one wins).

        Returns ``False`` for stale completions (already retired, or a
        prior batch) — those are ignored, not errors: an expired lease
        whose worker finished anyway is expected traffic.
        """
        with self._lock:
            cell = self._cells.get(cell_id)
            if cell is None:
                return False
            if cell.state == "leased" and cell.worker is not None:
                worker = self._workers.get(cell.worker)
                if worker is not None:
                    worker.inflight = max(0, worker.inflight - 1)
                    worker.completed += 1
            if isinstance(outcome, CellError) \
                    and outcome.attempts != cell.attempts:
                # Workers report attempts=1 (they only see their own try);
                # the ledger owns the true count.
                outcome = CellError(outcome.scenario, outcome.kind,
                                    outcome.message, cell.attempts)
            self._finish_locked(cell, outcome)
            self._assign()
            return True

    def next_outcome(self, timeout: float | None = None) \
            -> tuple[int, object, int] | None:
        """Pop one ``(index, outcome, attempts)`` triple, or ``None``."""
        try:
            item = self._outcomes.get(timeout=timeout)
        except queue.Empty:
            return None
        if self.journal is not None:
            with self._lock:
                # Reset the WAL only once the batch is fully retired AND
                # fully drained — a crash right now must still be able to
                # re-emit every undrained outcome.
                if not self._outstanding and not self._cells \
                        and self._outcomes.empty():
                    self._adoptable = None
                    self.journal.reset()
        return item

    def outstanding(self) -> int:
        with self._lock:
            return self._outstanding

    # -- liveness sweep --------------------------------------------------
    def tick(self, now: float | None = None) -> list[str]:
        """Expire stale leases and silent workers; returns dead worker ids.

        Called periodically by the coordinator's monitor thread.  The
        returned ids let the transport close the matching sockets.
        """
        if now is None:
            now = time.monotonic()
        dead: list[str] = []
        with self._lock:
            for worker_id, worker in list(self._workers.items()):
                if now - worker.last_seen > self.heartbeat_timeout:
                    dead.append(worker_id)
                    self._remove_worker_locked(
                        worker_id, kind="worker-death",
                        reason=f"no heartbeat for "
                               f"{self.heartbeat_timeout:g}s")
            for cell in list(self._cells.values()):
                if cell.state == "leased" and cell.deadline is not None \
                        and now >= cell.deadline:
                    worker = self._workers.get(cell.worker or "")
                    if worker is not None:
                        worker.inflight = max(0, worker.inflight - 1)
                    self._fail_or_requeue_locked(
                        cell, kind="timeout",
                        reason=f"lease expired after "
                               f"{self._timeout:g}s on worker "
                               f"{cell.worker!r}")
            if self._workers:
                self._last_worker_present = now
            self._assign()
        return dead

    def status(self) -> dict[str, Any]:
        """Counters for logging and tests."""
        with self._lock:
            return {
                "workers": {w.worker_id: {"capacity": w.capacity,
                                          "inflight": w.inflight,
                                          "completed": w.completed}
                            for w in self._workers.values()},
                "queued": len(self._queue),
                "leased": sum(1 for c in self._cells.values()
                              if c.state == "leased"),
                "outstanding": self._outstanding,
            }

    # -- internals (all hold self._lock) ---------------------------------
    def _assign(self) -> None:
        """Lease queued cells to free worker slots, round-robin."""
        while self._queue and self._rotation:
            worker = None
            for _ in range(len(self._rotation)):
                candidate = self._workers.get(self._rotation[0])
                self._rotation.rotate(-1)
                if candidate is not None \
                        and candidate.inflight < candidate.capacity:
                    worker = candidate
                    break
            if worker is None:
                break  # every worker is saturated
            cell = self._cells.get(self._queue.popleft())
            if cell is None or cell.state != "queued":
                continue  # lazily retired while queued
            cell.state = "leased"
            cell.worker = worker.worker_id
            cell.attempts += 1
            cell.deadline = (time.monotonic() + self._timeout
                             if self._timeout is not None else None)
            worker.inflight += 1
            if self.journal is not None:
                # WAL before wire: a lease that reached a worker must be
                # charged to the cell after a crash, never the reverse.
                self.journal.record_lease(cell.cell_id, worker.worker_id)
            self.publish(worker.worker_id, {
                "type": "cell", "cell": cell.cell_id, "index": cell.index,
                "attempt": cell.attempts,
                "scenario": cell.scenario.to_dict(), "runner": self._runner,
            })

    def _remove_worker_locked(self, worker_id: str, *, kind: str,
                              reason: str) -> None:
        if self._workers.pop(worker_id, None) is None:
            return
        try:
            self._rotation.remove(worker_id)
        except ValueError:  # pragma: no cover - defensive
            pass
        for cell in list(self._cells.values()):
            if cell.state == "leased" and cell.worker == worker_id:
                self._fail_or_requeue_locked(
                    cell, kind=kind,
                    reason=f"worker {worker_id!r} died mid-cell ({reason})")

    def _fail_or_requeue_locked(self, cell: _TrackedCell, *, kind: str,
                                reason: str) -> None:
        """A charged failure: retry while the budget lasts, then report."""
        if cell.attempts <= self._retries:
            cell.state = "queued"
            cell.worker = None
            cell.deadline = None
            self._queue.append(cell.cell_id)
        else:
            self._finish_locked(
                cell, CellError(cell.scenario, kind, reason, cell.attempts))

    def _finish_locked(self, cell: _TrackedCell, outcome: object) -> None:
        del self._cells[cell.cell_id]
        self._outstanding -= 1
        if self.journal is not None:
            self.journal.record_done(cell.cell_id, cell.index,
                                     max(1, cell.attempts),
                                     outcome_to_wire(outcome))
        self._outcomes.put((cell.index, outcome, max(1, cell.attempts)))

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return (f"CellLedger(workers={len(self._workers)}, "
                f"outstanding={self._outstanding})")
