"""Tests for the shared fabric core (:mod:`repro.fabric`).

The journal properties are written once and run against both dialects —
the sweep service's queued/done journal and the cluster's ledger WAL —
because both are the same :class:`~repro.fabric.journal.Journal` with a
different fold on top.  The transport tests cover what only the shared
stream class makes true for *both* servers (sockets really close).
"""

import json
import socket
import threading
import time

import pytest

from repro.cluster.journal import LedgerJournal
from repro.errors import ClusterError, ServiceError
from repro.fabric.journal import Journal
from repro.fabric.transport import Connection, PeerServer
from repro.scenarios import Scenario, scenario_digest
from repro.service import SweepClient, SweepJournal, SweepServer


def cell(seed: int = 0) -> Scenario:
    return Scenario(duration=5.0, planner="none", seed=seed,
                    workload_params={"window_seconds": 5.0,
                                     "rate_per_source": 50.0})


OUTCOME = {"error": {"scenario": cell(1).to_dict(), "kind": "error",
                     "message": "boom", "attempts": 1}}


# -- the two dialects, behind one interface ----------------------------------
class SweepDialect:
    """Record a sweep journal; fold it to the pending digests."""

    extra_digest = scenario_digest(cell(9))

    @staticmethod
    def record(path):
        journal = SweepJournal(path)
        for seed in (0, 1, 2):
            journal.record_queued(scenario_digest(cell(seed)), cell(seed))
        journal.record_done(scenario_digest(cell(1)))
        journal.close()

    @staticmethod
    def state(path):
        journal = SweepJournal(path)
        pending = journal.load_pending()
        journal.close()
        return [digest for digest, _ in pending], journal.corrupt_records

    @classmethod
    def append(cls, path):
        journal = SweepJournal(path)
        journal.record_queued(cls.extra_digest, cell(9))
        journal.close()

    @classmethod
    def saw_appended(cls, before, after):
        return after == before + [cls.extra_digest]


class LedgerDialect:
    """Record a ledger WAL; fold it to attempts, pending cells, outcomes."""

    @staticmethod
    def record(path):
        journal = LedgerJournal(path)
        journal.record_batch([(1, 0, cell(0)), (2, 1, cell(1))],
                             runner=None, timeout=4.5, retries=2)
        journal.record_lease(1, "w1")
        journal.record_lease(2, "w1")
        journal.record_done(2, 1, 1, OUTCOME)
        journal.record_lease(1, "w2")
        journal.close()

    @staticmethod
    def state(path):
        journal = LedgerJournal(path)
        replay = journal.replay()
        return ({"attempts": {c.cell_id: c.attempts
                              for c in replay.cells.values()},
                 "pending": [c.cell_id for c in replay.pending],
                 "outcomes": [(i, a) for i, a, _wire in replay.outcomes]},
                journal.corrupt_records)

    @staticmethod
    def append(path):
        journal = LedgerJournal(path)
        journal.record_lease(2, "w9")
        journal.close()

    @staticmethod
    def saw_appended(before, after):
        # The extra lease charges cell 2 exactly one more attempt — when
        # the batch record admitting cell 2 survived the truncation.
        attempts = dict(before["attempts"])
        if 2 in attempts:
            attempts[2] += 1
        return after == {**before, "attempts": attempts}


DIALECTS = pytest.mark.parametrize(
    "dialect", [SweepDialect, LedgerDialect], ids=["sweep", "ledger"])


class TestCrashPoints:
    """Kill the writer at every byte: replay must never lie or raise."""

    @DIALECTS
    def test_every_truncation_replays_to_its_complete_line_prefix(
            self, dialect, tmp_path):
        full = tmp_path / "full.jsonl"
        dialect.record(full)
        data = full.read_bytes()
        line_ends = [i + 1 for i, byte in enumerate(data) if byte == 0x0A]
        # What the fold yields for each whole-record prefix, computed once.
        prefix_state = {}
        for end in [0] + line_ends:
            path = tmp_path / f"prefix-{end}.jsonl"
            path.write_bytes(data[:end])
            prefix_state[end], corrupt = dialect.state(path)
            assert corrupt == 0

        for offset in range(len(data) + 1):
            path = tmp_path / "torn.jsonl"
            path.write_bytes(data[:offset])
            state, corrupt = dialect.state(path)
            complete = max(end for end in [0] + line_ends if end <= offset)
            if offset + 1 in line_ends:
                # Every byte of the record but its newline is on disk:
                # the record is whole and counts.
                complete = offset + 1
            assert state == prefix_state[complete], offset
            assert corrupt <= 1, offset

    @DIALECTS
    def test_a_record_appended_after_any_truncation_is_recovered(
            self, dialect, tmp_path):
        full = tmp_path / "full.jsonl"
        dialect.record(full)
        data = full.read_bytes()
        for offset in range(len(data) + 1):
            probe, path = tmp_path / "probe.jsonl", tmp_path / "torn.jsonl"
            probe.write_bytes(data[:offset])
            path.write_bytes(data[:offset])
            before, _ = dialect.state(probe)
            dialect.append(path)    # straight onto the (maybe torn) tail
            after, corrupt = dialect.state(path)
            assert dialect.saw_appended(before, after), offset
            assert corrupt <= 1, offset


class TestTornTail:
    def test_torn_tail_does_not_swallow_the_next_lifes_first_record(
            self, tmp_path):
        """The reproduced defect: a lease glued onto a torn fragment."""
        path = tmp_path / "wal.jsonl"
        journal = LedgerJournal(path)
        journal.record_batch([(1, 0, cell(0)), (2, 1, cell(1))],
                             runner=None, timeout=None, retries=1)
        journal.record_lease(1, "w1")
        journal.close()
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"event":"lease","cell":2,"wor')   # SIGKILL

        second_life = LedgerJournal(path)
        assert second_life.replay().cells[2].attempts == 0
        second_life.record_lease(2, "w2")
        second_life.close()

        third_life = LedgerJournal(path)
        replay = third_life.replay()
        # "Replayed attempt counts never under-count."
        assert replay.cells[2].attempts == 1
        assert third_life.corrupt_records == 1
        assert path.read_bytes().endswith(b'"worker":"w2"}\n')

    def test_intact_tail_is_left_alone(self, tmp_path):
        path = tmp_path / "j.jsonl"
        journal = Journal(path)
        journal.append({"n": 1})
        journal.close()
        journal.append({"n": 2})
        journal.close()
        assert path.read_bytes() == b'{"n":1}\n{"n":2}\n'


class TestScanErrors:
    def test_a_bug_in_the_fold_surfaces_instead_of_counting_as_corrupt(
            self, tmp_path):
        journal = Journal(tmp_path / "j.jsonl")
        journal.append({"n": 1})
        journal.close()

        def buggy_fold(record):
            raise ZeroDivisionError("a bug, not a torn line")

        with pytest.raises(ZeroDivisionError):
            journal.scan(buggy_fold)

    def test_decode_and_shape_errors_are_counted_not_raised(self, tmp_path):
        path = tmp_path / "wal.jsonl"
        path.write_bytes(b'not json\n[1, 2]\n{"event":"lease"}\n'
                         b'{"event":"nope"}\n\xff\xfe\n')
        journal = LedgerJournal(path)
        assert journal.replay().empty
        assert journal.corrupt_records == 5

    def test_each_dialect_refuses_replay_after_a_write_with_its_own_error(
            self, tmp_path):
        sweep = SweepJournal(tmp_path / "s.jsonl")
        sweep.record_done("abc")
        with pytest.raises(ServiceError, match="before"):
            sweep.load_pending()
        ledger = LedgerJournal(tmp_path / "l.jsonl")
        ledger.record_lease(1, "w1")
        with pytest.raises(ClusterError, match="before"):
            ledger.replay()


class TestOnDiskFormat:
    """The bytes are the contract: a format change must edit these."""

    def test_sweep_journal_record_bytes(self, tmp_path):
        path = tmp_path / "j.jsonl"
        journal = SweepJournal(path)
        journal.record_queued("d1", cell(0))
        journal.record_done("d1")
        journal.close()
        scenario = json.dumps(cell(0).to_dict(), separators=(",", ":"))
        assert path.read_text() == (
            '{"event":"queued","digest":"d1","scenario":' + scenario + '}\n'
            '{"event":"done","digest":"d1"}\n')
        journal.compact([("d2", cell(0))])
        assert path.read_text() == (
            '{"event":"queued","digest":"d2","scenario":' + scenario + '}\n')

    def test_ledger_journal_record_bytes(self, tmp_path):
        path = tmp_path / "wal.jsonl"
        journal = LedgerJournal(path)
        journal.record_batch([(7, 0, cell(0))], runner="mod:fn",
                             timeout=2.5, retries=3)
        journal.record_lease(7, "w1")
        journal.record_done(7, 0, 1, {"result": {"x": 1}})
        journal.close()
        scenario = json.dumps(cell(0).to_dict(), separators=(",", ":"))
        assert path.read_text() == (
            '{"event":"batch","runner":"mod:fn","timeout":2.5,"retries":3,'
            '"cells":[{"cell":7,"index":0,"scenario":' + scenario + '}]}\n'
            '{"event":"lease","cell":7,"worker":"w1"}\n'
            '{"event":"done","cell":7,"index":0,"attempts":1,'
            '"outcome":{"result":{"x":1}}}\n')
        journal.reset()
        assert path.read_bytes() == b""


# -- transport ---------------------------------------------------------------
def slow_runner(scenario):
    from repro.scenarios.runner import run_scenario

    time.sleep(0.3)
    return run_scenario(scenario)


class TestServerStopClosesSockets:
    def test_client_waiting_on_a_job_that_will_never_finish_gets_an_error(
            self):
        """The reproduced defect: ``stop()`` left client sockets open."""
        server = SweepServer(runner=slow_runner, batch_cells=1).start()
        failure: list[BaseException] = []
        waiting = threading.Event()

        def wait_forever():
            try:
                with SweepClient(server.address) as client:
                    # Cell 0 goes in flight; the drain strands the rest.
                    job = client.submit([cell(i) for i in range(40, 44)])
                    waiting.set()
                    client.wait(job)
            except BaseException as exc:  # noqa: BLE001 - asserted below
                failure.append(exc)

        waiter = threading.Thread(target=wait_forever, daemon=True)
        waiter.start()
        assert waiting.wait(10.0)
        server.stop()
        waiter.join(2.0)
        assert not waiter.is_alive(), "client still blocked after stop()"
        assert len(failure) == 1 and isinstance(failure[0], ServiceError)
        assert "closed the connection" in str(failure[0])

    def test_stop_before_start_returns(self):
        stopper = threading.Thread(target=SweepServer().stop, daemon=True)
        stopper.start()
        stopper.join(5.0)       # nothing is listening: must not block
        assert not stopper.is_alive()


class EchoTwice(PeerServer):
    """Answers every request with two sends: the write-write-read pattern
    (what ``accepted`` + ``progress`` is to a ``submit``)."""

    name = "echo"

    def __init__(self):
        super().__init__("127.0.0.1", 0)
        self.accepted_nodelay: list[int] = []

    def admit(self, message, handler):
        self.accepted_nodelay.append(handler.connection.getsockopt(
            socket.IPPROTO_TCP, socket.TCP_NODELAY))
        with self._streams_lock:
            stream = self.attach(f"peer-{len(self._streams)}", handler)
        stream.send({"type": "welcome"})
        return stream

    def dispatch(self, stream, op, message):
        stream.send({"type": "first", "round": message["round"]})
        stream.send({"type": "second", "round": message["round"]})


@pytest.fixture
def echo_peer():
    server = EchoTwice()
    server.listen()
    connection = Connection(server.address, "echo server", ServiceError, 5.0)
    try:
        assert connection.handshake(
            {"op": "hello", "protocol": 1})["type"] == "welcome"
        yield server, connection
    finally:
        connection.close()
        server.hang_up()
        server.unlisten()


class TestNagleOff:
    def test_both_ends_of_a_connection_have_tcp_nodelay(self, echo_peer):
        server, connection = echo_peer
        assert connection.sock.getsockopt(
            socket.IPPROTO_TCP, socket.TCP_NODELAY) != 0
        (accepted,) = server.accepted_nodelay
        assert accepted != 0

    def test_two_writes_answering_one_request_do_not_wait_for_an_ack(
            self, echo_peer):
        """The reproduced defect: under Nagle the second small write waits
        for the reader's delayed ACK, >= 40 ms a round (>= 0.8 s here)."""
        _server, connection = echo_peer
        started = time.perf_counter()
        for round_number in range(20):
            connection.send({"op": "ask", "round": round_number})
            assert connection.read() == {"type": "first",
                                         "round": round_number}
            assert connection.read() == {"type": "second",
                                         "round": round_number}
        assert time.perf_counter() - started < 0.4
