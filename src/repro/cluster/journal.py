"""The coordinator's write-ahead ledger journal: crash-safe batch state.

:class:`LedgerJournal` makes the :class:`~repro.cluster.ledger.CellLedger`
durable on the same fsync'd, torn-line-tolerant
:class:`~repro.fabric.journal.Journal` as the sweep service's
:class:`~repro.service.journal.SweepJournal`.  Three record shapes, one
per line, flushed + fsync'd before the action they describe takes effect
on the wire::

    {"event": "batch", "runner": SPEC|null, "timeout": T|null,
     "retries": R, "cells": [{"cell": ID, "index": I, "scenario": {...}}]}
    {"event": "lease", "cell": ID, "worker": WID}
    {"event": "done", "cell": ID, "index": I, "attempts": A,
     "outcome": {"result": ...} | {"error": ...}}

``batch`` is written at admission (before any lease flows), ``lease``
before each lease is published (so replayed attempt counts never
under-count), and ``done`` when a completion retires a cell — carrying
the full wire-encoded outcome, so a restarted coordinator can re-emit
results the previous life collected but its consumer never drained.
When the batch fully completes (or is abandoned) the file is reset, so
an idle coordinator leaves an empty journal behind.

:meth:`replay` folds the file into a :class:`LedgerReplay`: the batch
parameters, the cells still pending (admitted minus done, with their
lease-derived attempt counts) and the retired outcomes in completion
order.  Duplicate ``done`` records for one cell keep the *first* —
first-completion-wins holds across a coordinator restart exactly as it
does within one life.  Torn or unparsable lines (a SIGKILL mid-write)
are dropped and counted in :attr:`LedgerJournal.corrupt_records`, never
poisoning the resume.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Mapping, Sequence

from repro.errors import ClusterError
from repro.fabric.journal import Journal
from repro.scenarios.spec import Scenario


@dataclass
class ReplayCell:
    """One admitted cell as reconstructed from the journal."""

    cell_id: int
    index: int
    scenario: Scenario
    attempts: int = 0           #: lease records seen (true attempt count)
    done: bool = False


@dataclass
class LedgerReplay:
    """Everything :meth:`LedgerJournal.replay` recovered from disk."""

    runner: str | None = None
    timeout: float | None = None
    retries: int = 1
    cells: dict[int, ReplayCell] = field(default_factory=dict)
    #: Retired ``(index, attempts, wire_outcome)`` in completion order.
    outcomes: list[tuple[int, int, Any]] = field(default_factory=list)

    @property
    def pending(self) -> list[ReplayCell]:
        """The admitted-but-unretired cells, in admission order."""
        return [c for c in self.cells.values() if not c.done]

    @property
    def empty(self) -> bool:
        return not self.cells


class LedgerJournal(Journal):
    """Append-only WAL for one :class:`~repro.cluster.ledger.CellLedger`."""

    error = ClusterError

    # -- writes ----------------------------------------------------------
    def record_batch(self, cells: Sequence[tuple[int, int, Scenario]], *,
                     runner: str | None, timeout: float | None,
                     retries: int) -> None:
        """A new batch was admitted; resets the file first (one batch/WAL)."""
        with self._lock:
            self.reset()
            self.append({
                "event": "batch", "runner": runner, "timeout": timeout,
                "retries": retries,
                "cells": [{"cell": cell_id, "index": index,
                           "scenario": scenario.to_dict()}
                          for cell_id, index, scenario in cells],
            })

    def record_lease(self, cell_id: int, worker_id: str) -> None:
        """A lease is about to be published (charges a replayed attempt)."""
        self.append({"event": "lease", "cell": cell_id, "worker": worker_id})

    def record_done(self, cell_id: int, index: int, attempts: int,
                    outcome_wire: Mapping[str, Any]) -> None:
        """A cell retired with ``outcome_wire`` (the NDJSON envelope)."""
        self.append({"event": "done", "cell": cell_id, "index": index,
                     "attempts": attempts, "outcome": outcome_wire})

    # -- replay ----------------------------------------------------------
    def replay(self) -> LedgerReplay:
        """Fold the journal into a :class:`LedgerReplay` (no side effects).

        Must run before this instance has written anything; a missing or
        empty file replays to an empty state.
        """
        replay = LedgerReplay()
        self.scan(lambda record: self._fold(replay, record))
        return replay

    @staticmethod
    def _fold(replay: LedgerReplay, record: Mapping[str, Any]) -> None:
        event = record["event"]
        if event == "batch":
            # A later batch record supersedes everything before it.
            replay.runner = record.get("runner")
            timeout = record.get("timeout")
            replay.timeout = float(timeout) if timeout is not None else None
            replay.retries = int(record.get("retries", 1))
            replay.cells = {}
            replay.outcomes = []
            for item in record["cells"]:
                cell = ReplayCell(int(item["cell"]), int(item["index"]),
                                  Scenario.from_dict(item["scenario"]))
                replay.cells[cell.cell_id] = cell
        elif event == "lease":
            cell = replay.cells.get(int(record["cell"]))
            if cell is not None:
                cell.attempts += 1
        elif event == "done":
            cell = replay.cells.get(int(record["cell"]))
            if cell is None or cell.done:
                return  # unknown cell or a duplicate: first one won
            cell.done = True
            replay.outcomes.append((int(record["index"]),
                                    int(record["attempts"]),
                                    record["outcome"]))
        else:
            raise ClusterError(f"unknown journal event {event!r}")
