"""Tests for the sweep service: protocol, journal, broker, server, client.

The broker is exercised socket-free (dedup, fair scheduling, counters,
fan-out); the server/client pairs run real TCP connections on loopback
with OS-assigned ports.  The end-to-end cases mirror the service's
acceptance contract: two concurrent clients with 50 %-overlapping grids
execute each unique digest exactly once while both receive complete,
correctly-ordered streams; a worker killed mid-grid is retried and shows
up in the retry counters; a drain journals the queue and a restarted
server resumes it into the shared cache.
"""

import os
import socket
import threading
import time

import pytest

from repro.errors import ServiceError
from repro.scenarios import (
    CellError,
    ProcessBackend,
    Scenario,
    ScenarioCache,
    ScenarioResult,
    scenario_digest,
)
from repro.scenarios.runner import run_scenario
from repro.service import (
    JOURNAL_CLIENT,
    SweepBroker,
    SweepClient,
    SweepJournal,
    SweepServer,
    dump_message,
    outcome_from_wire,
    outcome_to_wire,
    parse_message,
)


def cell(seed: int, name: str | None = None) -> Scenario:
    """A fast scenario whose digest is distinct per seed."""
    return Scenario(name=name or f"cell-{seed}", seed=seed, duration=5.0,
                    planner="none",
                    workload_params={"window_seconds": 5.0,
                                     "rate_per_source": 50.0})


# ----------------------------------------------------------------------
# Module-level runners: picklable for the processes backend.
# ----------------------------------------------------------------------

_EXECUTIONS: list[str] = []
_EXECUTIONS_LOCK = threading.Lock()


def recording_runner(scenario):
    with _EXECUTIONS_LOCK:
        _EXECUTIONS.append(scenario_digest(scenario))
    return run_scenario(scenario)


def slow_runner(scenario):
    time.sleep(0.25)
    return run_scenario(scenario)


def kill_once_runner(scenario):
    """Die on the first attempt (flag file absent), succeed on the retry."""
    flag = os.environ["REPRO_TEST_KILL_FLAG"]
    if not os.path.exists(flag):
        with open(flag, "w") as handle:
            handle.write("died\n")
        os._exit(3)
    return run_scenario(scenario)


@pytest.fixture(autouse=True)
def _reset_executions():
    with _EXECUTIONS_LOCK:
        _EXECUTIONS.clear()
    yield


# ----------------------------------------------------------------------
class TestProtocol:
    def test_message_round_trip(self):
        message = {"op": "submit", "scenarios": [cell(1).to_dict()]}
        line = dump_message(message)
        assert line.endswith("\n") and "\n" not in line[:-1]
        assert parse_message(line) == message

    def test_non_object_rejected(self):
        with pytest.raises(ServiceError, match="JSON object"):
            parse_message("[1, 2]")
        with pytest.raises(ServiceError, match="undecodable"):
            parse_message("{nope")

    def test_outcome_round_trip(self):
        result = run_scenario(cell(7))
        assert outcome_from_wire(outcome_to_wire(result)) == result
        error = CellError(cell(7), "timeout", "too slow", attempts=2)
        assert outcome_from_wire(outcome_to_wire(error)) == error

    def test_outcome_envelope_rejects_garbage(self):
        with pytest.raises(ServiceError, match="neither"):
            outcome_from_wire({"bogus": 1})


# ----------------------------------------------------------------------
class TestJournal:
    def test_pending_is_queued_minus_done(self, tmp_path):
        journal = SweepJournal(tmp_path / "j.jsonl")
        a, b = cell(1), cell(2)
        journal.record_queued(scenario_digest(a), a)
        journal.record_queued(scenario_digest(b), b)
        journal.record_done(scenario_digest(a))
        journal.close()

        fresh = SweepJournal(tmp_path / "j.jsonl")
        pending = fresh.load_pending()
        assert [digest for digest, _ in pending] == [scenario_digest(b)]
        assert pending[0][1] == b

    def test_load_compacts_the_file(self, tmp_path):
        path = tmp_path / "j.jsonl"
        journal = SweepJournal(path)
        for i in range(5):
            journal.record_queued(scenario_digest(cell(i)), cell(i))
            journal.record_done(scenario_digest(cell(i)))
        journal.close()
        assert len(path.read_text().splitlines()) == 10
        assert SweepJournal(path).load_pending() == []
        assert path.read_text() == ""

    def test_torn_final_line_is_skipped(self, tmp_path):
        path = tmp_path / "j.jsonl"
        journal = SweepJournal(path)
        journal.record_queued(scenario_digest(cell(1)), cell(1))
        journal.close()
        with open(path, "a") as handle:
            handle.write('{"event": "queued", "digest": "abc", "scen')
        fresh = SweepJournal(path)
        pending = fresh.load_pending()
        assert [digest for digest, _ in pending] == [scenario_digest(cell(1))]
        assert fresh.corrupt_records == 1

    def test_load_pending_refused_after_writes(self, tmp_path):
        journal = SweepJournal(tmp_path / "j.jsonl")
        journal.record_queued(scenario_digest(cell(1)), cell(1))
        with pytest.raises(ServiceError, match="before"):
            journal.load_pending()


# ----------------------------------------------------------------------
class TestBroker:
    def make(self, **kwargs):
        log: list[tuple[str, dict]] = []
        broker = SweepBroker(publish=lambda client, message:
                             log.append((client, message)), **kwargs)
        return broker, log

    def test_round_robin_across_clients(self):
        broker, _log = self.make()
        broker.submit("alice", [cell(i) for i in range(4)])
        broker.submit("bob", [cell(i) for i in range(10, 12)])
        batch = broker.take(10)
        owners = []
        for digest, _scenario in batch:
            owners.append("alice" if digest in
                          {scenario_digest(cell(i)) for i in range(4)}
                          else "bob")
        # One cell per client per turn until bob's queue empties.
        assert owners == ["alice", "bob", "alice", "bob", "alice", "alice"]

    def test_dedup_attaches_subscriber_and_fans_out(self):
        broker, log = self.make()
        broker.submit("alice", [cell(1)], job="a")
        broker.submit("bob", [cell(1, name="other-label")], job="b")
        assert broker.totals.deduped == 1
        (digest, scenario), = broker.take(5)
        result = run_scenario(scenario)
        broker.complete(digest, result, attempts=1)

        by_client = {}
        for client, message in log:
            by_client.setdefault(client, []).append(message)
        for client, label in (("alice", "cell-1"), ("bob", "other-label")):
            kinds = [m["type"] for m in by_client[client]]
            assert kinds == ["accepted", "progress", "result", "job-done"]
            # Each subscriber's copy carries its own submitted label.
            wire = by_client[client][2]["outcome"]["result"]
            assert wire["scenario"]["name"] == label
        assert by_client["alice"][1]["source"] == "executed"
        assert by_client["bob"][1]["source"] == "deduped"

    def test_cache_hit_completes_without_queueing(self, tmp_path):
        cache = ScenarioCache(tmp_path)
        result = run_scenario(cell(3))
        cache.put(scenario_digest(cell(3)), result)
        broker, log = self.make(cache=cache)
        broker.submit("alice", [cell(3)], job="a")
        kinds = [m["type"] for _c, m in log]
        assert kinds == ["accepted", "progress", "result", "job-done"]
        assert log[1][1]["source"] == "cache"
        assert broker.idle()

    def test_failed_outcome_counts_and_job_done_tally(self):
        broker, log = self.make()
        broker.submit("alice", [cell(1), cell(2)], job="a")
        for digest, scenario in broker.take(5):
            broker.complete(
                digest, CellError(scenario, "error", "boom"), attempts=2)
        assert broker.totals.failed == 2
        assert broker.totals.retried == 2
        done = [m for _c, m in log if m["type"] == "job-done"]
        assert done[0]["errors"] == 2 and done[0]["retries"] == 2

    def test_drain_refuses_submissions_and_keeps_queue(self):
        broker, _log = self.make()
        broker.submit("alice", [cell(1), cell(2)])
        broker.drain()
        assert broker.take(5) is None
        with pytest.raises(ServiceError, match="draining"):
            broker.submit("bob", [cell(3)])
        assert len(broker.pending_scenarios()) == 2

    def test_duplicate_job_id_rejected(self):
        broker, _log = self.make()
        broker.submit("alice", [cell(1)], job="same")
        with pytest.raises(ServiceError, match="active job"):
            broker.submit("alice", [cell(2)], job="same")

    def test_requeue_inflight_restores_cells(self):
        broker, _log = self.make()
        broker.submit("alice", [cell(1)])
        batch = broker.take(5)
        assert not broker.idle()
        broker.requeue_inflight([digest for digest, _s in batch])
        assert [d for d, _s in broker.take(5)] == [d for d, _s in batch]


# ----------------------------------------------------------------------
def overlapping_grids() -> tuple[list[Scenario], list[Scenario]]:
    """Two 8-cell grids sharing 50% of their digests (seeds 4..7)."""
    return ([cell(i) for i in range(0, 8)],
            [cell(i, name=f"b-{i}") for i in range(4, 12)])


class TestServerEndToEnd:
    def test_two_clients_overlap_executes_each_digest_once(self, tmp_path):
        grids_a, grids_b = overlapping_grids()
        server = SweepServer(cache=ScenarioCache(tmp_path / "cache"),
                             runner=recording_runner, batch_cells=2).start()
        try:
            outcomes = {}

            def run_client(name, grid):
                with SweepClient(server.address, client_id=name) as client:
                    job = client.submit(grid)
                    outcomes[name] = client.wait(job)

            threads = [threading.Thread(target=run_client, args=args)
                       for args in (("alice", grids_a), ("bob", grids_b))]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60.0)
                assert not thread.is_alive()
        finally:
            server.stop()

        # Every unique digest executed exactly once, across both clients.
        unique = {scenario_digest(s) for s in grids_a + grids_b}
        assert len(unique) == 12
        assert sorted(_EXECUTIONS) == sorted(unique)

        for name, grid in (("alice", grids_a), ("bob", grids_b)):
            outcome = outcomes[name]
            # Complete result stream, in input order, correctly labelled.
            assert len(outcome.outcomes) == len(grid)
            for scenario, result in zip(grid, outcome.outcomes):
                assert isinstance(result, ScenarioResult)
                assert result.scenario == scenario
            # Complete, correctly-ordered progress stream.
            assert [e["done"] for e in outcome.events] == \
                list(range(1, len(grid) + 1))
            assert sorted(e["index"] for e in outcome.events) == \
                list(range(len(grid)))
            assert all(e["total"] == len(grid) for e in outcome.events)
            assert outcome.tally["done"] == len(grid)
            assert outcome.tally["errors"] == 0
        # The 4 shared digests were answered by dedup or cache, never re-run.
        shared = sum(outcomes[n].tally["deduped"] +
                     outcomes[n].tally["cache_hits"] for n in outcomes)
        executed = sum(outcomes[n].tally["executed"] for n in outcomes)
        assert shared == 4 and executed == 12

    def test_worker_death_is_retried_and_counted(self, tmp_path, monkeypatch):
        flag = tmp_path / "killed.flag"
        monkeypatch.setenv("REPRO_TEST_KILL_FLAG", str(flag))
        server = SweepServer(backend=ProcessBackend(max_workers=1),
                             cache=ScenarioCache(tmp_path / "cache"),
                             runner=kill_once_runner, retries=1).start()
        try:
            with SweepClient(server.address, client_id="carol") as client:
                job = client.submit([cell(21)])
                outcome = client.wait(job)
        finally:
            server.stop()
        assert flag.exists()  # the worker really died once
        assert isinstance(outcome.outcomes[0], ScenarioResult)
        assert outcome.tally["retries"] == 1
        assert outcome.retries == 1
        assert server.broker.totals.retried == 1

    def test_status_counters_and_client_ids(self, tmp_path):
        server = SweepServer(cache=ScenarioCache(tmp_path / "cache")).start()
        try:
            with SweepClient(server.address, client_id="dora") as client:
                job = client.submit([cell(31), cell(31)])
                client.wait(job)
                status = client.status()
        finally:
            server.stop()
        assert status["totals"]["submitted"] == 2
        assert status["totals"]["executed"] == 1
        assert status["totals"]["deduped"] == 1
        assert status["clients"]["dora"]["submitted"] == 2
        assert status["queued"] == 0 and status["inflight"] == 0

    def test_colliding_client_ids_are_uniquified(self, tmp_path):
        server = SweepServer(cache=ScenarioCache(tmp_path / "cache")).start()
        try:
            with SweepClient(server.address, client_id="twin") as first, \
                    SweepClient(server.address, client_id="twin") as second:
                assert first.client_id == "twin"
                assert second.client_id != "twin"
                assert second.client_id.startswith("twin#")
        finally:
            server.stop()

    def test_progress_only_submission_suppresses_results(self, tmp_path):
        server = SweepServer(cache=ScenarioCache(tmp_path / "cache")).start()
        try:
            with SweepClient(server.address, client_id="eve") as client:
                job = client.submit([cell(41), cell(42)], results=False)
                outcome = client.wait(job)
        finally:
            server.stop()
        assert outcome.outcomes == [None, None]
        assert [e["done"] for e in outcome.events] == [1, 2]
        assert outcome.tally["executed"] == 2

    def test_drain_journals_queue_and_restart_resumes(self, tmp_path):
        cache_dir = tmp_path / "cache"
        journal_path = tmp_path / "journal.jsonl"
        grid = [cell(50 + i) for i in range(5)]

        first = SweepServer(cache=ScenarioCache(cache_dir),
                            journal=SweepJournal(journal_path),
                            runner=slow_runner, batch_cells=1).start()
        events = []
        with SweepClient(first.address, client_id="frank") as client:
            job = client.submit(grid)
            # Wait for the first completion, then pull the plug.
            deadline = time.monotonic() + 30.0
            while not events:
                client._pump()
                state = client._jobs[job]
                events = list(state.events)
                assert time.monotonic() < deadline
            first.drain()
            assert first.wait_drained(30.0)
        first.stop()

        pending = SweepJournal(journal_path).load_pending()
        assert 0 < len(pending) < len(grid)
        done_digests = {scenario_digest(s) for s in grid} \
            - {digest for digest, _ in pending}
        cache = ScenarioCache(cache_dir)
        assert all(digest in cache for digest in done_digests)

        second = SweepServer(cache=ScenarioCache(cache_dir),
                             journal=SweepJournal(journal_path),
                             runner=recording_runner).start()
        try:
            assert second.resumed == len(pending)
            deadline = time.monotonic() + 30.0
            while not second.broker.idle():
                assert time.monotonic() < deadline
                time.sleep(0.05)
            # Journal cells are owned by the journal pseudo-client.
            assert second.broker.per_client[JOURNAL_CLIENT].resumed == \
                len(pending)
        finally:
            second.stop()
        for scenario in grid:
            assert scenario_digest(scenario) in cache
        assert SweepJournal(journal_path).load_pending() == []
        # A resubmitting client now gets pure cache hits.
        third = SweepServer(cache=ScenarioCache(cache_dir)).start()
        try:
            with SweepClient(third.address, client_id="frank") as client:
                outcome = client.wait(client.submit(grid))
        finally:
            third.stop()
        assert outcome.tally["cache_hits"] == len(grid)
        assert outcome.tally["executed"] == 0

    def test_submit_after_drain_is_refused(self, tmp_path):
        server = SweepServer(cache=ScenarioCache(tmp_path / "cache")).start()
        try:
            server.drain()
            with SweepClient(server.address, client_id="late") as client:
                with pytest.raises(ServiceError, match="draining"):
                    client.submit([cell(61)])
        finally:
            server.stop()

    def test_unreachable_server_raises_service_error(self):
        with pytest.raises(ServiceError, match="cannot connect"):
            SweepClient(("127.0.0.1", 1), connect_timeout=1.0)

    def test_hello_is_mandatory(self, tmp_path):
        server = SweepServer(cache=ScenarioCache(tmp_path / "cache")).start()
        try:
            with socket.create_connection(server.address, timeout=5.0) as sock:
                sock.sendall(b'{"op": "status"}\n')
                reply = parse_message(
                    sock.makefile("r", encoding="utf-8").readline())
        finally:
            server.stop()
        assert reply["type"] == "error"
        assert "hello" in reply["message"]

    def test_malformed_submit_gets_an_error_and_keeps_the_connection(
            self, tmp_path):
        bad = cell(1).to_dict()
        bad["failures"] = [{"model": "correlated", "at": "soon"}]
        server = SweepServer(cache=ScenarioCache(tmp_path / "cache")).start()
        try:
            with socket.create_connection(server.address, timeout=5.0) as sock:
                replies = sock.makefile("r", encoding="utf-8")

                def request(message):
                    sock.sendall(dump_message(message).encode("utf-8"))
                    return parse_message(replies.readline())

                assert request({"op": "hello", "client": "raw"})["type"] == \
                    "welcome"
                reply = request({"op": "submit", "scenarios": [bad]})
                assert reply["type"] == "error" and reply["op"] == "submit"
                assert "'at'" in reply["message"]
                assert request({"op": "status"})["type"] == "status"
        finally:
            server.stop()

    def test_a_cache_hit_round_trip_has_no_fixed_wait(self, tmp_path):
        """One level above the transport's write-write-read test: a job's
        ``accepted`` / ``progress`` / ``result`` / ``job-done`` are four
        small writes, which under Nagle cost a >= 40 ms delayed ACK."""
        cache = ScenarioCache(tmp_path / "cache")
        cache.put(scenario_digest(cell(71)), run_scenario(cell(71)))
        server = SweepServer(cache=cache).start()
        trips = []
        try:
            with SweepClient(server.address, client_id="gail") as client:
                for _ in range(5):
                    started = time.perf_counter()
                    outcome = client.wait(client.submit([cell(71)]))
                    trips.append(time.perf_counter() - started)
                    assert outcome.tally["cache_hits"] == 1
        finally:
            server.stop()
        # Below the 40 ms stall, with room for a loaded runner's scheduling.
        assert sorted(trips)[2] < 0.035

    @pytest.mark.parametrize("rejection", ["protocol-mismatch", "hang-up"])
    def test_failed_handshake_closes_the_socket(self, tmp_path, monkeypatch,
                                                rejection):
        import repro.service.client as client_module

        dialled = []

        class Recorded(client_module.Connection):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                dialled.append(self)

        monkeypatch.setattr(client_module, "Connection", Recorded)
        if rejection == "protocol-mismatch":
            monkeypatch.setattr(client_module, "PROTOCOL_VERSION", 99)
            server = SweepServer(cache=ScenarioCache(tmp_path / "c")).start()
            try:
                with pytest.raises(ServiceError, match="rejected hello"):
                    SweepClient(server.address)
            finally:
                server.stop()
        else:
            # A server that goes away mid-handshake: closed without a
            # reply (EOF, or a reset when the hello was still unread).
            with socket.create_server(("127.0.0.1", 0)) as listener:
                address = listener.getsockname()[:2]

                def hang_up():
                    listener.accept()[0].close()

                closer = threading.Thread(target=hang_up, daemon=True)
                closer.start()
                with pytest.raises(ServiceError,
                                   match="expected welcome|lost"):
                    SweepClient(address)
                closer.join(5.0)
        (connection,) = dialled
        assert connection.sock.fileno() == -1


# ----------------------------------------------------------------------
class TestDrainCompactsJournal:
    def test_journal_on_disk_is_compacted_at_drain_time(self, tmp_path):
        """The dispatcher compacts when it winds down — before stop()."""
        import json

        journal_path = tmp_path / "journal.jsonl"
        server = SweepServer(journal=SweepJournal(journal_path),
                             runner=slow_runner, batch_cells=1).start()
        grid = [cell(70 + i) for i in range(4)]
        events = []
        with SweepClient(server.address, client_id="gail") as client:
            client.submit(grid)
            deadline = time.monotonic() + 30.0
            while not events:
                client._pump()
                events = [e for state in client._jobs.values()
                          for e in state.events]
                assert time.monotonic() < deadline
            server.drain()
            assert server.wait_drained(30.0)
        try:
            # stop() has not run, yet the file already holds only queued
            # rows for the still-pending cells — no stale queued/done pairs.
            lines = [json.loads(line) for line
                     in journal_path.read_text().splitlines()]
            assert lines, "a drained-with-debt server must keep its queue"
            assert all(line["event"] == "queued" for line in lines)
            assert len(lines) == server.broker.status()["queued"]
        finally:
            server.stop()

    def test_drained_empty_server_leaves_an_empty_journal(self, tmp_path):
        journal_path = tmp_path / "journal.jsonl"
        server = SweepServer(journal=SweepJournal(journal_path)).start()
        with SweepClient(server.address, client_id="hana") as client:
            client.wait(client.submit([cell(80)]))
            server.drain()
            assert server.wait_drained(30.0)
        try:
            assert journal_path.read_text() == ""
        finally:
            server.stop()


# ----------------------------------------------------------------------
class TestStatusWatch:
    def test_watch_polls_until_interrupted(self, capsys, monkeypatch):
        from repro.service import cli as service_cli

        server = SweepServer().start()
        sleeps = []

        def fake_sleep(seconds):
            sleeps.append(seconds)
            if len(sleeps) >= 2:
                raise KeyboardInterrupt

        monkeypatch.setattr(service_cli.time, "sleep", fake_sleep)
        try:
            host, port = server.address
            code = service_cli.status_main([f"{host}:{port}",
                                            "--watch", "0.5"])
        finally:
            server.stop()
        assert code == 0  # Ctrl-C ends a watch cleanly, not as an error
        assert sleeps == [0.5, 0.5]
        out = capsys.readouterr().out
        assert out.count("totals:") == 2  # one status block per poll

    def test_watch_rejects_non_positive_intervals(self):
        from repro.service import cli as service_cli

        with pytest.raises(ServiceError, match="positive"):
            service_cli.status_main(["127.0.0.1:1", "--watch", "0"])
        with pytest.raises(ServiceError, match="positive"):
            service_cli.status_main(["127.0.0.1:1", "--watch", "-2"])

    @pytest.mark.parametrize("interval", ["nan", "inf"])
    def test_watch_rejects_non_finite_intervals(self, interval):
        # Both used to pass the check, then raise out of time.sleep.
        from repro.service import cli as service_cli

        with pytest.raises(ServiceError, match="finite"):
            service_cli.status_main(["127.0.0.1:1", "--watch", interval])
