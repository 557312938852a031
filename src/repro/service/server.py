"""The persistent sweep server: TCP front end + one dispatcher loop.

:class:`SweepServer` wires the pieces together:

* the shared :class:`~repro.fabric.transport.PeerServer` speaking the
  NDJSON protocol of :mod:`repro.service.protocol` — one handler thread
  reads each client's requests while a dedicated writer thread drains
  that client's outbound queue, so server-pushed events never block on a
  slow reader elsewhere;
* one **dispatcher** thread pulling fair-scheduled batches out of the
  :class:`~repro.service.broker.SweepBroker` and running them through a
  single shared :class:`~repro.scenarios.backends.ExecutionBackend`
  (serial, the local ``processes`` fleet, or the cluster), streaming
  completions — with their retry counts — back into the broker;
* graceful drain: :meth:`drain` (wired to SIGTERM by the CLI) lets
  in-flight cells finish, refuses new submissions, broadcasts
  ``draining`` to connected clients, compacts the journal down to the
  still-queued cells and exits :meth:`serve_forever`.

The server itself holds no result state: outcomes live in the shared
:class:`~repro.scenarios.cache.ScenarioCache` (when configured) and in the
clients' hands.
"""

from __future__ import annotations

import threading

from repro.errors import ServiceError
from repro.fabric.transport import PeerServer, PeerStream
from repro.scenarios.backends import ExecutionBackend, resolve_backend
from repro.scenarios.cache import ScenarioCache
from repro.scenarios.grid import scenarios_from_document
from repro.scenarios.runner import run_scenario
from repro.service.broker import JOURNAL_CLIENT, SweepBroker
from repro.service.journal import SweepJournal
from repro.service.protocol import PROTOCOL_VERSION


class SweepServer(PeerServer):
    """A persistent grid broker serving many concurrent sweep clients.

    Parameters
    ----------
    host, port:
        Bind address; ``port=0`` lets the OS pick (read :attr:`address`).
    backend:
        Shared :class:`ExecutionBackend` (name or instance); every
        client's cells run through this one backend, scheduled fairly.
    cache:
        Shared :class:`ScenarioCache` (or a directory path).  Strongly
        recommended: it is what makes cross-restart dedup and journal
        resume pay off.
    journal:
        Path to (or instance of) a :class:`SweepJournal`; pending work
        survives a drain and is re-run on the next start.
    runner, timeout, retries:
        As in :class:`~repro.scenarios.session.GridSession`.
    batch_cells:
        How many cells each dispatcher batch pulls from the broker.
        Smaller batches mean fairer interleaving and faster drains;
        larger ones amortise the per-batch dispatch.
    """

    name = "sweep"
    hello_op = "hello"
    protocol = PROTOCOL_VERSION
    speaker = "server"

    def __init__(self, host: str = "127.0.0.1", port: int = 0, *,
                 backend: "str | ExecutionBackend | None" = None,
                 cache: "ScenarioCache | str | None" = None,
                 journal: "SweepJournal | str | None" = None,
                 runner=run_scenario,
                 timeout: float | None = None,
                 retries: int = 1,
                 batch_cells: int = 8):
        if batch_cells < 1:
            raise ServiceError(f"batch_cells must be >= 1, got {batch_cells}")
        self.backend = resolve_backend(backend)
        self.cache = ScenarioCache(cache) if isinstance(cache, (str, bytes)) \
            else cache
        self.journal = SweepJournal(journal) if isinstance(journal, (str, bytes)) \
            else journal
        self.runner = runner
        self.timeout = timeout
        self.retries = retries
        self.batch_cells = batch_cells
        super().__init__(host, port)
        self.broker = SweepBroker(cache=self.cache, journal=self.journal,
                                  publish=self.publish)
        self._client_seq = 0
        self._dispatcher = threading.Thread(target=self._dispatch_loop,
                                            name="sweep-dispatcher",
                                            daemon=True)
        self._drained = threading.Event()
        self._started = False
        self.resumed = 0

    # -- lifecycle -------------------------------------------------------
    def start(self) -> "SweepServer":
        """Bind, resume the journal, and serve in background threads."""
        if self._started:
            return self
        self._started = True
        self.resumed = self.broker.resume_from_journal()
        self.listen()
        self._dispatcher.start()
        return self

    def serve_forever(self) -> None:
        """Serve until :meth:`drain` completes (what the CLI runs)."""
        self.start()
        self._drained.wait()
        self.stop()

    def drain(self) -> None:
        """Finish in-flight cells, journal the queue, and wind down.

        Safe to call from a signal handler or any thread; idempotent.
        """
        self.broker.drain()
        for stream in self.streams():
            stream.send({"type": "draining"})

    def wait_drained(self, timeout: float | None = None) -> bool:
        """Block until the dispatcher has wound down after a drain."""
        return self._drained.wait(timeout)

    def stop(self) -> None:
        """Drain (if not already draining) and tear everything down."""
        self.drain()
        if self._started:
            self._drained.wait(30.0)
        self.broker.stop()
        self.unlisten()
        if self.journal is not None:
            self.journal.compact(self.broker.pending_scenarios())
            self.journal.close()
        # Backends that own real resources (a parallel backend runs a
        # coordinator port and a worker fleet) release them with the server.
        self.backend.close()
        # Last, so clients have read every event they are owed: EOF is
        # what tells one still blocked in wait() that no more will come.
        self.hang_up()

    # -- internals -------------------------------------------------------
    def _dispatch_loop(self) -> None:
        while True:
            batch = self.broker.take(self.batch_cells)
            if batch is None:
                break
            scenarios = [scenario for _digest, scenario in batch]
            try:
                for position, outcome, attempts in self.backend.execute(
                        scenarios, self.runner,
                        timeout=self.timeout, retries=self.retries):
                    degraded = position in self.backend.degraded_positions
                    self.broker.complete(batch[position][0], outcome,
                                         attempts, degraded=degraded)
            except Exception:  # pragma: no cover - backend bug guard
                # A backend that dies wholesale must not kill the service;
                # every cell of the batch it failed to report is requeued
                # as if never taken.
                self.broker.requeue_inflight([d for d, _s in batch])
        if self.journal is not None:
            # Compact at drain time, not just at the next start's
            # load_pending: a drained-empty server must leave an empty
            # journal behind, and a drained-with-debt server only the
            # still-queued rows — no stale queued/done pairs on disk.
            self.journal.compact(self.broker.pending_scenarios())
        self._drained.set()

    # -- transport hooks -------------------------------------------------
    # (No dropped(): a vanished client's queued cells still run — their
    # results feed the shared cache and cross-client subscribers.)
    def admit(self, message: dict, handler) -> PeerStream:
        requested = str(message.get("client") or "client")
        with self._streams_lock:
            self._client_seq += 1
            client_id = requested
            if client_id in self._streams or client_id == JOURNAL_CLIENT:
                client_id = f"{requested}#{self._client_seq}"
            stream = self.attach(client_id, handler)
        stream.send({"type": "welcome", "client": client_id,
                     "protocol": PROTOCOL_VERSION, "server": "repro-sweep"})
        if self.broker.draining:
            stream.send({"type": "draining"})
        return stream

    def dispatch(self, stream: PeerStream, op: str | None,
                 message: dict) -> None:
        if op == "submit":
            self.broker.submit(
                stream.peer_id,
                scenarios_from_document(message, "a submit"),
                job=message.get("job"),
                stream_results=bool(message.get("results", True)))
        elif op == "status":
            stream.send({"type": "status", **self.broker.status()})
        elif op == "drain":
            stream.send({"type": "draining"})
            self.drain()
        else:
            raise ServiceError(f"unknown op {op!r}")

    def __repr__(self) -> str:  # pragma: no cover - trivial
        host, port = self.address
        return (f"SweepServer({host}:{port}, backend={self.backend.name!r}, "
                f"cache={self.cache!r})")
