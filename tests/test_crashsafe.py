"""Crash-safety tests: the coordinator WAL, replay, and restart semantics.

Covers the durable-coordinator tentpole end to end, socket-free where
possible (journal + ledger) and over real loopback TCP for the
SIGKILL-equivalent coordinator restart:

* journal edge cases — torn final line, duplicate completion records,
  replay-before-write discipline, reset-on-retire;
* ledger restore — re-admission with attempt counts, re-emission of
  undrained outcomes, batch adoption on identical resubmit, and
  first-completion-wins across a restart (the late-result race, both
  the heartbeat-staleness flavour and the restart flavour);
* a live coordinator crash mid-grid with a self-healing worker that
  redials, resumes its id, and finishes the batch on the successor.
"""

import threading
import time

import pytest

from repro.cluster import CellLedger, ClusterCoordinator, ClusterWorkerAgent
from repro.cluster.journal import LedgerJournal
from repro.errors import ClusterError
from repro.resilience import RetryPolicy
from repro.scenarios import (
    CellError,
    Scenario,
    ScenarioResult,
    run_scenario,
)


def cell(seed: int) -> Scenario:
    """A fast scenario whose digest is distinct per seed."""
    return Scenario(name=f"cell-{seed}", seed=seed, duration=5.0,
                    planner="none",
                    workload_params={"window_seconds": 5.0,
                                     "rate_per_source": 50.0})


def slow_runner(scenario):
    """Importable runner that stretches cells so crashes land mid-grid."""
    time.sleep(0.15)
    return run_scenario(scenario)


# ---------------------------------------------------------------------------
# LedgerJournal
# ---------------------------------------------------------------------------

class TestLedgerJournal:
    def test_round_trips_batch_leases_and_done(self, tmp_path):
        path = tmp_path / "wal.jsonl"
        journal = LedgerJournal(path)
        journal.record_batch([(1, 0, cell(0)), (2, 1, cell(1))],
                             runner=None, timeout=4.5, retries=2)
        journal.record_lease(1, "w1")
        journal.record_lease(2, "w1")
        journal.record_lease(1, "w2")      # a requeue: second attempt
        journal.record_done(2, 1, 1, {"error": {
            "scenario": cell(1).to_dict(), "kind": "error",
            "message": "boom", "attempts": 1}})
        journal.close()

        replay = LedgerJournal(path).replay()
        assert replay.timeout == 4.5 and replay.retries == 2
        assert replay.cells[1].attempts == 2
        assert replay.cells[2].done
        pending = replay.pending
        assert [c.cell_id for c in pending] == [1]
        assert pending[0].scenario.to_dict() == cell(0).to_dict()
        assert [(index, attempts) for index, attempts, _w in replay.outcomes] \
            == [(1, 1)]

    def test_torn_final_line_is_skipped_and_counted(self, tmp_path):
        path = tmp_path / "wal.jsonl"
        journal = LedgerJournal(path)
        journal.record_batch([(1, 0, cell(0)), (2, 1, cell(1))],
                             runner=None, timeout=None, retries=1)
        journal.record_lease(1, "w1")
        journal.close()
        # A SIGKILL mid-write leaves a torn, newline-less tail.
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"event":"done","cell":1,"index":0,"att')

        fresh = LedgerJournal(path)
        replay = fresh.replay()
        assert fresh.corrupt_records == 1
        # The torn 'done' never happened: cell 1 is still pending.
        assert [c.cell_id for c in replay.pending] == [1, 2]
        assert replay.cells[1].attempts == 1

    def test_duplicate_done_records_keep_the_first(self, tmp_path):
        path = tmp_path / "wal.jsonl"
        journal = LedgerJournal(path)
        journal.record_batch([(1, 0, cell(0))],
                             runner=None, timeout=None, retries=1)
        journal.record_lease(1, "w1")
        first = {"error": {"scenario": cell(0).to_dict(), "kind": "timeout",
                           "message": "first", "attempts": 1}}
        second = {"error": {"scenario": cell(0).to_dict(), "kind": "error",
                            "message": "second", "attempts": 2}}
        journal.record_done(1, 0, 1, first)
        journal.record_done(1, 0, 2, second)   # a replayed-life duplicate
        journal.close()

        replay = LedgerJournal(path).replay()
        assert len(replay.outcomes) == 1
        index, attempts, wire = replay.outcomes[0]
        assert (index, attempts) == (0, 1)
        assert wire["error"]["message"] == "first"

    def test_replay_refuses_to_run_after_writes(self, tmp_path):
        journal = LedgerJournal(tmp_path / "wal.jsonl")
        journal.record_lease(1, "w1")
        with pytest.raises(ClusterError, match="before"):
            journal.replay()

    def test_missing_file_replays_empty(self, tmp_path):
        replay = LedgerJournal(tmp_path / "nope.jsonl").replay()
        assert replay.empty

    def test_new_batch_resets_the_file(self, tmp_path):
        path = tmp_path / "wal.jsonl"
        journal = LedgerJournal(path)
        journal.record_batch([(1, 0, cell(0))],
                             runner=None, timeout=None, retries=1)
        journal.record_lease(1, "w1")
        journal.record_batch([(2, 0, cell(9))],
                             runner=None, timeout=None, retries=1)
        journal.close()
        replay = LedgerJournal(path).replay()
        assert list(replay.cells) == [2]
        assert replay.cells[2].attempts == 0   # the old lease died with it


# ---------------------------------------------------------------------------
# CellLedger + journal: crash/restore, socket-free
# ---------------------------------------------------------------------------

class RecordingPublish:
    def __init__(self):
        self.messages: list[tuple[str, dict]] = []

    def __call__(self, worker_id: str, message: dict) -> None:
        self.messages.append((worker_id, dict(message)))

    def leases(self) -> list[dict]:
        return [m for _w, m in self.messages if m.get("type") == "cell"]


def drain(ledger: CellLedger) -> list[tuple[int, object, int]]:
    items = []
    while True:
        item = ledger.next_outcome(timeout=0.05)
        if item is None:
            return items
        items.append(item)


class TestLedgerRestore:
    def make(self, path, **kwargs):
        publish = RecordingPublish()
        ledger = CellLedger(publish, journal=LedgerJournal(path), **kwargs)
        return ledger, publish

    def test_restore_reemits_done_and_readmits_pending(self, tmp_path):
        path = tmp_path / "wal.jsonl"
        led1, pub1 = self.make(path)
        led1.register_worker("w1", 1)
        led1.submit([cell(0), cell(1), cell(2)], retries=1)
        lease = pub1.leases()[0]
        result = run_scenario(cell(0))
        assert led1.complete("w1", lease["cell"], result)
        led1.journal.close()   # the SIGKILL: nothing else is torn down

        led2, pub2 = self.make(path)
        restored = led2.restore_from_journal()
        assert restored == 2
        # The completed-but-undrained outcome is re-emitted...
        emitted = drain(led2)
        assert [(i, a) for i, _o, a in emitted] == [(0, 1)]
        assert isinstance(emitted[0][1], ScenarioResult)
        # ...and a worker registering now is leased both pending cells
        # under their original ids (so pre-crash stragglers still count).
        led2.register_worker("w2", 2)
        new_leases = {m["cell"]: m["attempt"] for m in pub2.leases()}
        assert len(new_leases) == 2
        done_id = pub1.leases()[0]["cell"]
        leased_id = pub1.leases()[1]["cell"]
        assert done_id not in new_leases
        # The cell that was in flight at the crash had its lease charged
        # by replay (attempt 2); the never-leased one starts fresh.
        assert new_leases[leased_id] == 2
        assert {new_leases[c] for c in new_leases if c != leased_id} == {1}

    def test_identical_resubmit_adopts_the_restored_batch(self, tmp_path):
        path = tmp_path / "wal.jsonl"
        grid = [cell(0), cell(1)]
        led1, pub1 = self.make(path)
        led1.register_worker("w1", 2)
        led1.submit(grid, retries=1)
        led1.journal.close()

        led2, pub2 = self.make(path)
        assert led2.restore_from_journal() == 2
        assert led2.submit(grid, retries=1) == 2   # adopted, not re-admitted
        assert led2.outstanding() == 2
        led2.register_worker("w2", 2)
        for lease in pub2.leases():
            led2.complete("w2", lease["cell"],
                          run_scenario(cell(0)))
        assert {i for i, _o, _a in drain(led2)} == {0, 1}

    def test_different_resubmit_discards_the_remnant(self, tmp_path):
        path = tmp_path / "wal.jsonl"
        led1, _pub1 = self.make(path)
        led1.register_worker("w1", 2)
        led1.submit([cell(0), cell(1)], retries=1)
        led1.journal.close()

        led2, pub2 = self.make(path)
        assert led2.restore_from_journal() == 2
        led2.register_worker("w2", 4)
        assert led2.submit([cell(7)], retries=1) == 1
        assert led2.outstanding() == 1
        # Only the new batch's cell is leased after the discard.
        lease = pub2.leases()[-1]
        assert lease["scenario"] == cell(7).to_dict()

    def test_late_result_beats_requeue_across_restart(self, tmp_path):
        """Satellite: a pre-crash worker's result races the requeue."""
        path = tmp_path / "wal.jsonl"
        led1, pub1 = self.make(path)
        led1.register_worker("w1", 1)
        led1.submit([cell(0)], retries=3)
        cell_id = pub1.leases()[0]["cell"]
        led1.journal.close()

        led2, pub2 = self.make(path)
        assert led2.restore_from_journal() == 1
        led2.register_worker("w2", 1)          # requeued: leased to w2
        assert pub2.leases()[0]["cell"] == cell_id
        # The OLD worker (still running its executor) reports first.
        late = run_scenario(cell(0))
        assert led2.complete("w1", cell_id, late) is True
        # w2's duplicate completion is stale traffic, not an error.
        assert led2.complete("w2", cell_id,
                             run_scenario(cell(0))) is False
        emitted = drain(led2)
        assert len(emitted) == 1
        index, outcome, attempts = emitted[0]
        assert index == 0 and outcome is late
        assert attempts == 2                   # both lives' leases charged

    def test_heartbeat_staleness_requeue_races_late_result(self, tmp_path):
        """Satellite: same race inside one life, via the liveness sweep."""
        path = tmp_path / "wal.jsonl"
        ledger, publish = self.make(path, heartbeat_timeout=0.2)
        ledger.register_worker("w1", 1)
        ledger.submit([cell(0)], retries=3)
        cell_id = publish.leases()[0]["cell"]
        ledger.register_worker("w2", 1)
        ledger.heartbeat("w2")
        # w1 goes silent past the heartbeat window; its lease requeues
        # and immediately re-leases to w2 (attempt 2).
        time.sleep(0.3)
        ledger.heartbeat("w2")
        assert ledger.tick() == ["w1"]
        release = publish.leases()[-1]
        assert (release["cell"], release["attempt"]) == (cell_id, 2)
        # w1 was only *slow*: its result arrives after the requeue and
        # still wins; w2's later one is ignored.
        late = run_scenario(cell(0))
        assert ledger.complete("w1", cell_id, late) is True
        assert ledger.complete("w2", cell_id,
                               run_scenario(cell(0))) is False
        (index, outcome, attempts), = drain(ledger)
        assert index == 0 and outcome is late and attempts == 2

    def test_journal_resets_once_batch_retires_and_drains(self, tmp_path):
        path = tmp_path / "wal.jsonl"
        ledger, publish = self.make(path)
        ledger.register_worker("w1", 2)
        ledger.submit([cell(0), cell(1)], retries=1)
        for lease in publish.leases():
            ledger.complete("w1", lease["cell"],
                            run_scenario(cell(0)))
        assert len(drain(ledger)) == 2
        ledger.journal.close()
        # Fully retired and fully drained: the WAL is empty again.
        assert LedgerJournal(path).replay().empty

    def test_worker_death_error_attempts_survive_restart(self, tmp_path):
        path = tmp_path / "wal.jsonl"
        led1, pub1 = self.make(path)
        led1.register_worker("w1", 1)
        led1.submit([cell(0)], retries=1)
        led1.journal.close()

        led2, _pub2 = self.make(path)
        led2.restore_from_journal()
        led2.register_worker("w2", 1)   # attempt 2 (the budget's last)
        led2.remove_worker("w2", reason="died")
        (index, outcome, attempts), = drain(led2)
        assert isinstance(outcome, CellError)
        assert outcome.kind == "worker-death"
        assert index == 0 and attempts == 2


# ---------------------------------------------------------------------------
# Live coordinator crash + self-healing worker over loopback TCP
# ---------------------------------------------------------------------------

class TestCoordinatorCrashRestart:
    def test_sigkilled_coordinator_restarts_and_finishes_the_grid(
            self, tmp_path):
        journal = str(tmp_path / "wal.jsonl")
        grid = [cell(i) for i in range(6)]
        coordinator = ClusterCoordinator(
            heartbeat_timeout=5.0, journal=journal).start()
        agent = ClusterWorkerAgent(
            coordinator.address, name="healer", capacity=1,
            heartbeat_interval=0.1,
            reconnect=RetryPolicy(max_attempts=None, base_delay=0.05,
                                  max_delay=0.2, deadline=15.0))
        thread = threading.Thread(target=agent.run, daemon=True)
        thread.start()
        successor = None
        try:
            coordinator.submit(grid, runner="test_crashsafe:slow_runner",
                               retries=2)
            outcomes = {}
            while len(outcomes) < 2:       # let some cells finish first
                item = coordinator.ledger.next_outcome(timeout=5.0)
                assert item is not None, "grid stalled before the crash"
                outcomes[item[0]] = item[1]

            coordinator.crash()            # SIGKILL-equivalent teardown
            host, port = coordinator.address
            successor = ClusterCoordinator(
                host, port, heartbeat_timeout=5.0, journal=journal).start()
            assert successor.restored_cells >= 1

            deadline = time.monotonic() + 30.0
            while len(outcomes) < len(grid):
                assert time.monotonic() < deadline, "restart never finished"
                item = successor.ledger.next_outcome(timeout=5.0)
                if item is not None:
                    # First completion wins across the restart; replayed
                    # duplicates for already-drained indices are fine.
                    outcomes.setdefault(item[0], item[1])
        finally:
            (successor or coordinator).stop()
            thread.join(timeout=10.0)

        assert sorted(outcomes) == list(range(6))
        assert all(isinstance(o, ScenarioResult) for o in outcomes.values())
        # The worker reconnected (session 2+) under its original id.
        assert agent.sessions >= 2
        # The successor's WAL is empty once everything drained.
        assert LedgerJournal(journal).replay().empty
