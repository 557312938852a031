"""Resumable submission journal: what a draining server owes the future.

The journal is an append-only JSONL file with two record shapes::

    {"event": "queued", "digest": "...", "scenario": {...}}
    {"event": "done", "digest": "..."}

The broker appends a ``queued`` record the moment a unique cell enters a
queue and a ``done`` record when its execution completes, flushing after
every line — so at any instant (including a SIGKILL) the set *queued minus
done* is exactly the work the server has accepted but not finished.  A
graceful drain simply stops executing; no extra bookkeeping is needed at
shutdown beyond compacting the file.

On restart, :meth:`load_pending` replays the file, compacts it down to the
still-pending records and hands the pending cells back so the broker can
re-enqueue them under the ``__journal__`` pseudo-client.  Their results
land in the shared :class:`~repro.scenarios.cache.ScenarioCache`, so the
original submitters get instant cache hits when they reconnect and
resubmit.

The file discipline itself — fsync per record, torn-line-tolerant replay,
atomic rewrite — is the shared :class:`~repro.fabric.journal.Journal`;
this module adds the two record shapes and the queued-minus-done fold.
"""

from __future__ import annotations

from repro.errors import ServiceError
from repro.fabric.journal import Journal
from repro.scenarios.spec import Scenario


def _queued(digest: str, scenario: Scenario) -> dict:
    return {"event": "queued", "digest": digest,
            "scenario": scenario.to_dict()}


class SweepJournal(Journal):
    """Append-only queued/done journal backing graceful drain + resume."""

    error = ServiceError

    # -- writes ----------------------------------------------------------
    def record_queued(self, digest: str, scenario: Scenario) -> None:
        """A unique cell entered a queue; it is now owed to the future."""
        self.append(_queued(digest, scenario))

    def record_done(self, digest: str) -> None:
        """The cell's execution finished (in any outcome); debt repaid."""
        self.append({"event": "done", "digest": digest})

    # -- resume ----------------------------------------------------------
    def load_pending(self) -> list[tuple[str, Scenario]]:
        """The queued-minus-done cells, compacting the file as a side effect.

        Returns ``(digest, scenario)`` pairs in original submission order.
        Unparsable records (torn writes) are skipped and counted in
        :attr:`corrupt_records`.
        """
        pending: dict[str, Scenario] = {}

        def fold(record: dict) -> None:
            event, digest = record["event"], record["digest"]
            if event == "queued":
                pending[digest] = Scenario.from_dict(record["scenario"])
            elif event == "done":
                pending.pop(digest, None)
            else:
                raise ServiceError(f"unknown journal event {event!r}")

        with self._lock:
            self.scan(fold)
            items = list(pending.items())
            self.compact(items)
            return items

    def compact(self, pending: list[tuple[str, Scenario]]) -> None:
        """Atomically rewrite the journal to exactly ``pending``."""
        self.rewrite(_queued(digest, scenario)
                     for digest, scenario in pending)
