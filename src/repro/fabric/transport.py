"""The one NDJSON-over-TCP transport under both fabrics.

Every message is one JSON object on one line, stdlib only.  One TCP
connection is one peer: the dialling side (:class:`Connection`) opens
with a mandatory first message carrying its protocol version, the
accepting side (:class:`PeerServer`) answers ``welcome`` or ``error`` and
from then on pushes events down the socket the requests arrive on.  A
handler thread reads each peer's requests while a dedicated writer
thread (:class:`PeerStream`) drains that peer's outbound queue, so a
pushed event never blocks on a slow reader elsewhere.

Both ends set ``TCP_NODELAY``.  Every message is flushed on its own, so
one request is routinely answered with several small writes (a job's
``accepted``, then a ``progress`` + ``result`` per cell, then
``job-done``).  Under Nagle's algorithm the kernel holds the second
small segment until the first is acknowledged, and the peer — which has
nothing to send back — delays that ACK by ~40 ms: a fixed stall on every
job, whatever its size.  A one-message-per-flush protocol has nothing to
gain from the coalescing Nagle offers, so it is off, here and nowhere
else.

A fabric subclasses :class:`PeerServer`, names its dialect in class
attributes and fills in the :meth:`~PeerServer.admit`,
:meth:`~PeerServer.dispatch` and :meth:`~PeerServer.dropped` hooks; on the
dialling side it passes :class:`Connection` its own error type, so each
fabric keeps raising its own exceptions.

>>> parse_message(dump_message({"op": "hello", "protocol": 1}))
{'op': 'hello', 'protocol': 1}
>>> parse_address("localhost:7070")
('localhost', 7070)
"""

from __future__ import annotations

import json
import os
import queue
import selectors
import socket
import socketserver
import threading
import weakref
from typing import Any, Mapping

from repro.errors import ReproError, ServiceError


# -- framing ---------------------------------------------------------------
def dump_message(message: Mapping[str, Any]) -> str:
    """One NDJSON line (including the trailing newline) for ``message``."""
    return json.dumps(message, separators=(",", ":")) + "\n"


def parse_message(line: str) -> dict[str, Any]:
    """Parse one NDJSON line into a message dict.

    Raises :class:`ServiceError` for anything that is not a JSON object —
    the connection is then poisoned and should be dropped, because framing
    can no longer be trusted.
    """
    try:
        message = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ServiceError(f"undecodable message line: {exc}") from None
    if not isinstance(message, dict):
        raise ServiceError(
            f"a message must be a JSON object, got {type(message).__name__}"
        )
    return message


def parse_address(address: "str | tuple[str, int]",
                  error: type[ReproError] = ServiceError) -> tuple[str, int]:
    """Coerce ``"host:port"`` (or a pair) into a ``(host, port)`` tuple."""
    if isinstance(address, str):
        host, _, port_text = address.rpartition(":")
        if not host or not port_text.isdigit():
            raise error(
                f"malformed address {address!r}; expected 'host:port'"
            )
        return host, int(port_text)
    return str(address[0]), int(address[1])


#: Every open socket this module made (listeners, wake-up pairs, peers).
_OPEN: "weakref.WeakSet[socket.socket]" = weakref.WeakSet()


def close_inherited_sockets() -> None:
    """In a forked child: close its copy of every socket made here.

    A copied listener keeps its port from being bound again, and a
    copied connection keeps the peer from reading EOF.  ``detach``
    first, so an inherited socket object never closes a reused number.
    """
    for sock in list(_OPEN):
        descriptor = sock.detach()
        if descriptor >= 0:
            os.close(descriptor)


# -- accepting side --------------------------------------------------------
#: Writer-queue sentinel: stop writing after flushing what is queued.
_CLOSE = object()


class PeerStream:
    """One connected peer's outbound message queue + writer thread."""

    def __init__(self, server: "PeerServer", peer_id: str,
                 handler: socketserver.StreamRequestHandler):
        self.peer_id = peer_id
        self._server = server
        self._wfile = handler.wfile
        self._connection = handler.connection
        self._outbound: "queue.SimpleQueue[object]" = queue.SimpleQueue()
        self._gone = threading.Event()
        self.writer = threading.Thread(
            target=self._write_loop,
            name=f"{server.name}-writer-{peer_id}", daemon=True)
        self.writer.start()

    def send(self, message: dict) -> None:
        if not self._gone.is_set():
            self._outbound.put(message)

    def close(self) -> None:
        """Stop the writer once everything already queued is on the wire."""
        self._outbound.put(_CLOSE)

    def disconnect(self) -> None:
        """Force the socket shut (unblocks the handler's read loop).

        ``shutdown`` before ``close``: the handler's ``rfile``/``wfile``
        still hold references to this fd, so a bare ``close()`` is
        deferred and never sends FIN — the peer (and the handler's own
        blocked read) would wait forever.  ``shutdown(SHUT_RDWR)`` tears
        the connection down immediately regardless.
        """
        self._gone.set()
        self.close()
        try:
            self._connection.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass  # already disconnected
        try:
            self._connection.close()
        except OSError:  # pragma: no cover - racing close
            pass

    def _write_loop(self) -> None:
        while True:
            message = self._outbound.get()
            if message is _CLOSE:
                break
            try:
                # The outbound hook runs here, on the per-peer writer
                # thread, so a delaying injector never blocks a caller
                # of send() that holds a scheduler lock.
                for delivery in self._server.outbound(self.peer_id, message):
                    self._wfile.write(dump_message(delivery).encode("utf-8"))
                    self._wfile.flush()
            except (OSError, ValueError):
                # Peer went away mid-write; EOF handling cleans up.
                self._gone.set()
                break


class _Handler(socketserver.StreamRequestHandler):
    server: "_Listener"
    disable_nagle_algorithm = True  # see the module docstring

    def handle(self) -> None:
        self.server.peers._serve(self)


class _Listener(socketserver.ThreadingTCPServer):
    daemon_threads = True
    allow_reuse_address = True
    request_queue_size = socket.SOMAXCONN  # a whole fleet dials at once
    peers: "PeerServer"

    def get_request(self) -> tuple[socket.socket, Any]:
        connection, address = self.socket.accept()
        connection.setblocking(True)  # BSDs inherit the listener's mode
        _OPEN.add(connection)
        return connection, address


class PeerServer:
    """TCP listener + handshake + id → stream registry for one fabric."""

    #: The dialect: thread-name prefix, the mandatory first ``op``, the
    #: protocol version it must carry, who "speaks" it (for the mismatch
    #: rejection) and that rejection's extra fields.
    name = "peer"
    hello_op = "hello"
    protocol = 1
    speaker = "server"
    mismatch_fields: Mapping[str, Any] = {}

    def __init__(self, host: str, port: int):
        self._streams: dict[str, PeerStream] = {}
        self._streams_lock = threading.Lock()
        self._tcp = _Listener((host, port), _Handler,
                               bind_and_activate=True)
        self._tcp.peers = self
        self._tcp.socket.setblocking(False)
        _OPEN.add(self._tcp.socket)
        self._acceptor: threading.Thread | None = None
        self._wake: tuple[socket.socket, socket.socket] | None = None

    # -- lifecycle -------------------------------------------------------
    @property
    def address(self) -> tuple[str, int]:
        """The actually-bound ``(host, port)``."""
        host, port = self._tcp.server_address[:2]
        return str(host), int(port)

    def listen(self) -> None:
        """Start accepting peers on a background thread (idempotent)."""
        if self._acceptor is None:
            self._wake = socket.socketpair()
            _OPEN.update(self._wake)
            self._acceptor = threading.Thread(
                target=self._accept_loop, args=(self._wake[0],),
                name=f"{self.name}-acceptor", daemon=True)
            self._acceptor.start()

    def unlisten(self) -> None:
        """Stop accepting and close the listening socket (idempotent)."""
        acceptor, wake = self._acceptor, self._wake
        self._acceptor = self._wake = None
        if acceptor is not None and wake is not None:
            wake[1].send(b"\0")
            acceptor.join()
            for sock in wake:
                sock.close()
        self._tcp.server_close()

    def _accept_loop(self, stop: socket.socket) -> None:
        """Accept peers until :meth:`unlisten` writes to ``stop``.

        No polling: the thread sleeps in ``select``.  The listener is
        non-blocking, so a peer gone before ``accept`` cannot stall it.
        """
        with selectors.DefaultSelector() as selector:
            selector.register(self._tcp, selectors.EVENT_READ)
            selector.register(stop, selectors.EVENT_READ)
            while not any(key.fileobj is stop
                          for key, _events in selector.select()):
                self._tcp.handle_request()

    # -- registry --------------------------------------------------------
    def streams(self) -> list[PeerStream]:
        """A snapshot of the currently registered peers' streams."""
        with self._streams_lock:
            return list(self._streams.values())

    def publish(self, peer_id: str, message: dict) -> None:
        """Queue ``message`` for ``peer_id`` (dropped if it is not here)."""
        with self._streams_lock:
            stream = self._streams.get(peer_id)
        if stream is not None:
            stream.send(message)

    def attach(self, peer_id: str,
               handler: socketserver.StreamRequestHandler) -> PeerStream:
        """Register ``peer_id`` → a new stream (``_streams_lock`` held).

        :meth:`admit` picks the id and attaches in one locked step, so
        the stream is routable before anything is published to it.
        """
        stream = PeerStream(self, peer_id, handler)
        self._streams[peer_id] = stream
        return stream

    def evict(self, peer_id: str) -> None:
        """Forget ``peer_id`` and cut its socket (no :meth:`dropped` call)."""
        with self._streams_lock:
            stream = self._streams.pop(peer_id, None)
        if stream is not None:
            stream.disconnect()

    def hang_up(self) -> None:
        """Flush every peer's queue, then close its socket (it reads EOF)."""
        streams = self.streams()
        for stream in streams:
            stream.close()
        for stream in streams:
            stream.writer.join(1.0)  # a stalled reader forfeits the flush
            stream.disconnect()

    # -- hooks -----------------------------------------------------------
    def admit(self, message: dict,
              handler: socketserver.StreamRequestHandler) -> PeerStream:
        """Pick the peer's id, :meth:`attach` it, queue its ``welcome``
        (a :class:`~repro.errors.ReproError` rejects it instead)."""
        raise NotImplementedError

    def dispatch(self, stream: PeerStream, op: str | None,
                 message: dict) -> None:
        """Handle one request (a :class:`~repro.errors.ReproError` is
        echoed to the peer as an ``error`` message)."""
        raise NotImplementedError

    def dropped(self, stream: PeerStream) -> None:
        """The connection of a still-registered peer ended."""

    def outbound(self, peer_id: str, message: dict) -> list[dict]:
        """What actually goes on the wire for ``message`` (chaos hook)."""
        return [message]

    # -- per-connection loop ---------------------------------------------
    def _serve(self, handler: socketserver.StreamRequestHandler) -> None:
        stream: PeerStream | None = None
        try:
            for raw in handler.rfile:
                try:
                    message = parse_message(raw.decode("utf-8"))
                except (ServiceError, UnicodeDecodeError):
                    break  # framing is broken; drop the connection
                op = message.get("op")
                if stream is None:
                    stream = self._handshake(op, message, handler)
                    if stream is None:
                        break
                elif op == "bye":
                    break
                else:
                    try:
                        self.dispatch(stream, op, message)
                    except ReproError as exc:
                        stream.send({"type": "error", "op": op,
                                     "message": str(exc)})
        except OSError:
            pass  # a reset instead of a FIN: the peer is just as gone
        finally:
            if stream is not None:
                with self._streams_lock:
                    current = self._streams.get(stream.peer_id) is stream
                    if current:
                        del self._streams[stream.peer_id]
                stream.close()
                # A superseded or evicted stream's id belongs to someone
                # else by now; only the current one reports the loss.
                if current:
                    self.dropped(stream)

    def _handshake(self, op: str | None, message: dict,
                   handler: socketserver.StreamRequestHandler) \
            -> PeerStream | None:
        def reject(text: str, **fields: Any) -> None:
            handler.wfile.write(dump_message(
                {"type": "error", "op": op, **fields, "message": text}
            ).encode("utf-8"))

        if op != self.hello_op:
            return reject(f"first message must be {self.hello_op!r}")
        protocol = message.get("protocol", self.protocol)
        if protocol != self.protocol:
            return reject(f"protocol {protocol} unsupported "
                          f"({self.speaker} speaks {self.protocol})",
                          **self.mismatch_fields)
        try:
            return self.admit(message, handler)
        except ReproError as exc:
            return reject(str(exc))


# -- dialling side ---------------------------------------------------------
class Connection:
    """One dialled NDJSON connection to a :class:`PeerServer`.

    ``peer`` names the other end in error messages (``"sweep server"``);
    every failure is raised as ``error``.
    """

    def __init__(self, address: tuple[str, int], peer: str,
                 error: type[ReproError], timeout: float):
        self.peer = f"{peer} at {address[0]}:{address[1]}"
        self.error = error
        try:
            self.sock = socket.create_connection(address, timeout=timeout)
        except OSError as exc:
            raise error(f"cannot connect to {self.peer}: {exc}") from None
        _OPEN.add(self.sock)
        self.sock.settimeout(None)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._rfile = self.sock.makefile("r", encoding="utf-8")
        self._wfile = self.sock.makefile("w", encoding="utf-8")
        self._write_lock = threading.Lock()

    def send(self, message: dict) -> None:
        """Write one message (safe to call from several threads)."""
        with self._write_lock:
            try:
                self._wfile.write(dump_message(message))
                self._wfile.flush()
            except (OSError, ValueError) as exc:
                raise self.error(
                    f"connection to {self.peer} lost: {exc}") from None

    def read(self) -> dict | None:
        """Block for the next message; ``None`` when the peer closed."""
        try:
            line = self._rfile.readline()
        except (OSError, ValueError) as exc:
            # A reset (RST instead of FIN) surfaces as a raw socket error
            # rather than EOF; a close() racing this read as ValueError.
            raise self.error(
                f"connection to {self.peer} lost: {exc}") from None
        if not line:
            return None
        try:
            return parse_message(line)
        except ServiceError as exc:
            raise self.error(str(exc)) from None

    def handshake(self, hello: dict) -> dict:
        """Send the mandatory first message; return the welcome/error reply."""
        self.send(hello)
        reply = self.read()
        if reply is None or reply.get("type") not in ("welcome", "error"):
            raise self.error(f"expected welcome, got {reply!r}")
        return reply

    def close(self) -> None:
        with self._write_lock:  # never under a send() in another thread
            for handle in (self._rfile, self._wfile, self.sock):
                try:
                    handle.close()
                except OSError:
                    pass
