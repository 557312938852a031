"""The cluster coordinator: TCP front end over the cell ledger.

:class:`ClusterCoordinator` runs on the same
:class:`~repro.fabric.transport.PeerServer` as the sweep server — handler
threads read each worker's requests while a dedicated writer thread
drains that worker's outbound queue — but serves the *worker-facing*
side of the fabric: workers dial
in, register a capacity, and leased cells flow back down the same
socket.  All scheduling decisions live in the
:class:`~repro.cluster.ledger.CellLedger`; the coordinator contributes
exactly three things:

* **routing** — the ledger's ``publish(worker_id, message)`` lands on the
  right worker's stream;
* **liveness** — a monitor thread ticks the ledger (lease deadlines,
  heartbeat staleness) and closes the sockets of workers the ledger
  declared dead, and socket EOF (the common case: a SIGKILLed worker)
  deregisters immediately without waiting out the heartbeat window;
* **lifecycle** — :meth:`start` binds (``port=0`` = OS-assigned, read
  :attr:`address`), :meth:`stop` broadcasts ``shutdown`` so fleet
  workers exit cleanly before the listener closes.
"""

from __future__ import annotations

import threading
from typing import Any, Sequence

from repro.cluster.journal import LedgerJournal
from repro.cluster.ledger import CellLedger
from repro.cluster.protocol import CLUSTER_PROTOCOL_VERSION
from repro.errors import ClusterError, ServiceError
from repro.fabric.transport import PeerServer, PeerStream
from repro.scenarios.spec import Scenario
from repro.service.protocol import outcome_from_wire


class ClusterCoordinator(PeerServer):
    """Leases grid cells to remote workers and collects their results.

    Typically owned by a
    :class:`~repro.cluster.backend.ClusterBackend`; standalone use::

        coordinator = ClusterCoordinator(port=0).start()
        host, port = coordinator.address          # give this to workers
        coordinator.submit(scenarios, retries=1)
        while ...:
            triple = coordinator.ledger.next_outcome(timeout=0.5)

    ``heartbeat_timeout`` is how long a silent worker survives;
    ``tick_interval`` is the monitor thread's sweep period.  ``journal``
    (a path or :class:`~repro.cluster.journal.LedgerJournal`) makes the
    ledger crash-safe: construction replays any unfinished batch the
    previous coordinator life left behind.  ``wire_faults`` is the chaos
    harness's injection hook (see :mod:`repro.chaos`) — ``None`` in
    production.
    """

    name = "cluster"
    hello_op = "register"
    protocol = CLUSTER_PROTOCOL_VERSION
    speaker = "coordinator"
    mismatch_fields = {"code": "protocol-mismatch"}

    def __init__(self, host: str = "127.0.0.1", port: int = 0, *,
                 heartbeat_timeout: float = 10.0,
                 tick_interval: float = 0.25,
                 journal: "LedgerJournal | str | None" = None,
                 wire_faults=None):
        if isinstance(journal, (str, bytes)) or hasattr(journal, "__fspath__"):
            journal = LedgerJournal(journal)
        self.journal = journal
        self.wire_faults = wire_faults
        super().__init__(host, port)
        self.ledger = CellLedger(self.publish,
                                 heartbeat_timeout=heartbeat_timeout,
                                 journal=journal)
        #: Cells re-admitted from the journal at construction (0 = clean).
        self.restored_cells = self.ledger.restore_from_journal()
        self._issued_ids: set[str] = set()
        self._worker_seq = 0
        self._tick_interval = tick_interval
        self._stopping = threading.Event()
        self._monitor = threading.Thread(target=self._monitor_loop,
                                         name="cluster-monitor", daemon=True)
        self._started = False

    # -- lifecycle -------------------------------------------------------
    def start(self) -> "ClusterCoordinator":
        """Accept workers and start the liveness monitor."""
        if self._started:
            return self
        self._started = True
        self.listen()
        self._monitor.start()
        return self

    def stop(self) -> None:
        """Tell workers to shut down, then close the listener."""
        if self._stopping.is_set():
            return
        self._stopping.set()
        for stream in self.streams():
            stream.send({"type": "shutdown"})
            stream.close()
        self._close()

    def crash(self) -> None:
        """Die like a SIGKILL: drop every socket, no goodbyes, no cleanup.

        Workers see an abrupt EOF exactly as if the coordinator process
        was killed — no ``shutdown`` broadcast, so self-healing agents
        enter their reconnect loop.  The ledger journal file is left
        exactly as the crash found it; a successor coordinator built on
        the same journal path replays it and finishes the batch.
        """
        self._stopping.set()
        for stream in self.streams():
            self.evict(stream.peer_id)
        self._close()

    def _close(self) -> None:
        self.unlisten()
        if self.journal is not None:
            self.journal.close()

    # -- scheduling façade ----------------------------------------------
    def submit(self, scenarios: Sequence[Scenario], *,
               runner: str | None = None,
               timeout: float | None = None,
               retries: int = 1) -> int:
        """Queue one grid batch on the ledger (leases flow immediately)."""
        return self.ledger.submit(scenarios, runner=runner, timeout=timeout,
                                  retries=retries)

    def worker_count(self) -> int:
        return self.ledger.worker_count()

    def status(self) -> dict[str, Any]:
        return self.ledger.status()

    # -- internals -------------------------------------------------------
    def _monitor_loop(self) -> None:
        while not self._stopping.wait(self._tick_interval):
            for worker_id in self.ledger.tick():
                self.evict(worker_id)

    # -- transport hooks -------------------------------------------------
    def admit(self, message: dict, handler) -> PeerStream:
        requested = str(message.get("worker") or "worker")
        capacity = int(message.get("capacity") or 1)
        resume = message.get("resume")
        # The stream must be routable *before* the ledger admits the
        # worker — leases are published the moment registration lands —
        # so ids are uniquified here (against every id ever issued, in
        # case a dead worker's ledger entry is still being torn down)
        # and the dict insert happens first.  A ``resume`` id reclaims a
        # previously issued identity: the agent survived a dropped
        # connection (or outlived a crashed coordinator) and its
        # in-flight work is still addressed to that id.
        with self._streams_lock:
            if resume and isinstance(resume, str):
                worker_id = resume
                stale = self._streams.get(worker_id)
                if stale is not None:
                    # A half-open leftover of the same worker: supersede
                    # it.  Its handler sees it is no longer current and
                    # leaves the ledger entry (and its leases) alone.
                    stale.disconnect()
            else:
                worker_id = requested
                if worker_id in self._issued_ids:
                    self._worker_seq += 1
                    worker_id = f"{requested}#{self._worker_seq}"
            self._issued_ids.add(worker_id)
            stream = self.attach(worker_id, handler)
        # Welcome is enqueued before the ledger admits the worker: the
        # ledger leases queued cells the instant registration lands, and
        # the worker expects welcome as the first line on the wire.
        stream.send({"type": "welcome", "worker": worker_id,
                     "protocol": CLUSTER_PROTOCOL_VERSION})
        try:
            self.ledger.register_worker(worker_id, capacity,
                                        resume=bool(resume))
        except ClusterError:
            with self._streams_lock:
                if self._streams.get(worker_id) is stream:
                    del self._streams[worker_id]
            stream.close()
            raise
        return stream

    def dispatch(self, stream: PeerStream, op: str | None,
                 message: dict) -> None:
        if op == "heartbeat":
            self.ledger.heartbeat(stream.peer_id)
        elif op == "result":
            deliveries = [message]
            if self.wire_faults is not None:
                deliveries = self.wire_faults.apply("in", stream.peer_id,
                                                    message)
            for delivery in deliveries:
                try:
                    outcome = outcome_from_wire(delivery.get("outcome"))
                    cell_id = int(delivery.get("cell", -1))
                except (ServiceError, TypeError, ValueError):
                    stream.send({"type": "error", "op": "result",
                                 "message": "malformed result"})
                    continue
                self.ledger.complete(stream.peer_id, cell_id, outcome)
        else:
            raise ClusterError(f"unknown op {op!r}")

    def dropped(self, stream: PeerStream) -> None:
        self.ledger.remove_worker(stream.peer_id, reason="connection closed")

    def outbound(self, worker_id: str, message: dict) -> list[dict]:
        if self.wire_faults is None:
            return [message]
        return self.wire_faults.apply("out", worker_id, message)

    def __repr__(self) -> str:  # pragma: no cover - trivial
        host, port = self.address
        return (f"ClusterCoordinator({host}:{port}, "
                f"workers={self.worker_count()})")
