"""Client library for the sweep service.

:class:`SweepClient` is a synchronous, dependency-free client: connect,
submit a grid (a list of scenarios or ``base`` + ``axes``), then
:meth:`wait` for the job — the server pushes ``progress`` / ``result``
events down the same socket, so waiting is just reading lines.  Several
jobs can be in flight at once on one connection; events are demultiplexed
by job id, and replies to ``status`` requests are picked out of the stream
wherever they land.

::

    from repro.service import SweepClient, SweepServer
    server = SweepServer(cache="/tmp/sweep-cache").start()
    with SweepClient(server.address, client_id="alice") as client:
        job = client.submit(base=Scenario(), axes={"budget": [0, 1, 2]})
        outcome = client.wait(job, progress=print)
        results = outcome.results()
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Callable, Mapping, Sequence

from repro.errors import ScenarioError, ServiceError
from repro.fabric.transport import Connection, parse_address
from repro.resilience import RetryPolicy
from repro.scenarios.backends import CellError
from repro.scenarios.results import ScenarioResult
from repro.scenarios.spec import Scenario
from repro.service.protocol import PROTOCOL_VERSION, outcome_from_wire


@dataclass
class JobOutcome:
    """Everything one job produced, mirroring a local ``GridReport``.

    ``outcomes`` lines up with the submitted scenarios (input order,
    whatever order the server completed them in); ``events`` is the raw
    ``progress`` message stream in arrival (completion) order; ``tally``
    is the server's ``job-done`` summary (total / executed / cache_hits /
    deduped / errors / retries).
    """

    job: str
    total: int
    digests: list[str]
    outcomes: list[object | None] = field(default_factory=list)
    events: list[dict] = field(default_factory=list)
    tally: dict[str, Any] = field(default_factory=dict)
    done: bool = False

    def results(self) -> list[ScenarioResult]:
        """The successful results, in input order."""
        return [o for o in self.outcomes if isinstance(o, ScenarioResult)]

    def cell_errors(self) -> list[CellError]:
        """The failed cells, in input order."""
        return [o for o in self.outcomes if isinstance(o, CellError)]

    @property
    def retries(self) -> int:
        """Worker-death retries the server reported for this job's cells."""
        return sum(e.get("retries", 0) for e in self.events)


class SweepClient:
    """One connection to a :class:`~repro.service.server.SweepServer`.

    ``address`` is a ``(host, port)`` pair or a ``"host:port"`` string.
    The client is synchronous and single-threaded; it is not safe to share
    one instance across threads (open one connection per thread instead —
    the server is built for many concurrent connections).

    ``retry`` (a :class:`~repro.resilience.RetryPolicy`) makes the
    client self-healing for *transient* faults: the initial dial is
    retried with backoff, and a ``submit`` whose connection turns out to
    be dead reconnects and resends — but only while no other job is
    mid-flight on the connection, since reconnecting abandons the
    server-side stream state.
    """

    def __init__(self, address: "tuple[str, int] | str", *,
                 client_id: str = "client",
                 connect_timeout: float = 10.0,
                 retry: RetryPolicy | None = None,
                 rng: random.Random | None = None):
        self.address = parse_address(address)
        self.connect_timeout = connect_timeout
        self.retry = retry
        self.rng = rng
        #: Successful reconnects performed by the retry machinery.
        self.reconnects = 0
        self._requested_id = client_id
        self._jobs: dict[str, JobOutcome] = {}
        self._accepted: list[dict] = []
        self._status: list[dict] = []
        self.draining = False
        self._connect()

    def _dial(self) -> Connection:
        """One connection attempt."""
        return Connection(self.address, "sweep server", ServiceError,
                          self.connect_timeout)

    def _connect(self) -> None:
        """Dial (retrying transient failures) and run the hello handshake."""
        if self.retry is not None:
            self._connection = self.retry.call(self._dial,
                                               retry_on=(ServiceError,),
                                               rng=self.rng)
        else:
            self._connection = self._dial()
        # Handshake rejections are semantic, never retried.
        try:
            welcome = self._connection.handshake(
                {"op": "hello", "client": self._requested_id,
                 "protocol": PROTOCOL_VERSION})
            if welcome["type"] == "error":
                raise ServiceError(
                    f"server rejected hello: {welcome.get('message')}")
        except ServiceError:
            # The constructor is about to raise: nobody else will hold
            # this connection, so nobody else can close it.
            self._connection.close()
            raise
        #: The server-side id (uniquified on collision) used in accounting.
        self.client_id = str(welcome.get("client"))

    # -- context management ---------------------------------------------
    def __enter__(self) -> "SweepClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def close(self) -> None:
        try:
            self._connection.send({"op": "bye"})
        except ServiceError:
            pass
        self._connection.close()

    # -- requests --------------------------------------------------------
    def submit(self, scenarios: Sequence[Scenario] | None = None, *,
               base: Scenario | None = None,
               axes: Mapping[str, Sequence[Any]] | None = None,
               job: str | None = None,
               results: bool = True) -> str:
        """Submit a grid; returns the server-assigned job id.

        Pass either ``scenarios`` (a list) or ``base`` (+ optional
        ``axes``, expanded server-side).  With ``results=False`` the
        server streams progress only — use when outcomes are consumed
        from a shared cache instead of over the wire.
        """
        message: dict[str, Any] = {"op": "submit", "results": results}
        if job is not None:
            message["job"] = job
        if scenarios is not None:
            if base is not None or axes is not None:
                raise ScenarioError("pass scenarios= or base=/axes=, not both")
            message["scenarios"] = [s.to_dict() for s in scenarios]
        elif base is not None:
            message["base"] = base.to_dict()
            if axes:
                message["axes"] = {key: list(values)
                                   for key, values in axes.items()}
        else:
            raise ScenarioError("submit needs scenarios= or base=")
        try:
            self._request(message, self._accepted)
        except ServiceError:
            if self.retry is None or self.draining \
                    or any(not state.done for state in self._jobs.values()):
                raise  # nothing safe to heal: in-flight jobs die with the wire
            # Transient drop with no stream state at stake (e.g. the
            # server restarted between jobs): reconnect and resend.
            self._reconnect()
            self._request(message, self._accepted)
        accepted = self._accepted.pop(0)
        job_id = str(accepted["job"])
        state = self._jobs[job_id]
        state.total = int(accepted["total"])
        state.digests = list(accepted["digests"])
        return job_id

    def wait(self, job: str, *,
             progress: Callable[[dict], None] | None = None) -> JobOutcome:
        """Block until ``job`` finishes; returns its :class:`JobOutcome`.

        ``progress`` receives each raw ``progress`` message dict as it
        arrives (including ones that arrived before ``wait`` was called).
        """
        state = self._jobs.get(job)
        if state is None:
            raise ServiceError(f"unknown job {job!r}")
        seen = 0
        while True:
            if progress is not None:
                for event in state.events[seen:]:
                    progress(event)
                seen = len(state.events)
            if state.done:
                if len(state.outcomes) < state.total:
                    state.outcomes.extend(
                        [None] * (state.total - len(state.outcomes)))
                return state
            self._pump()

    def status(self) -> dict[str, Any]:
        """Aggregate + per-client counters and queue depths."""
        self._request({"op": "status"}, self._status)
        return self._status.pop(0)

    def drain_server(self) -> None:
        """Ask the server to drain (the remote spelling of SIGTERM)."""
        self._connection.send({"op": "drain"})

    # -- plumbing --------------------------------------------------------
    def _request(self, message: dict, replies: list) -> None:
        """Send ``message`` and pump until its reply lands in ``replies``."""
        self._connection.send(message)
        while not replies:
            self._pump()

    def _reconnect(self) -> None:
        """Tear down the dead connection and re-run the handshake."""
        self._connection.close()
        self._connect()
        self.reconnects += 1

    def _pump(self) -> None:
        """Read one message and fold it into client state."""
        message = self._connection.read()
        if message is None:
            raise ServiceError(
                "sweep server closed the connection"
                + (" (draining)" if self.draining else "")
            )
        kind = message.get("type")
        if kind == "accepted":
            job_id = str(message["job"])
            state = JobOutcome(job=job_id, total=int(message["total"]),
                               digests=list(message.get("digests", ())))
            state.outcomes = [None] * state.total
            self._jobs[job_id] = state
            self._accepted.append(message)
        elif kind == "progress":
            state = self._jobs.get(str(message.get("job")))
            if state is not None:
                state.events.append(message)
        elif kind == "result":
            state = self._jobs.get(str(message.get("job")))
            if state is not None:
                index = int(message["index"])
                if not 0 <= index < state.total:
                    raise ServiceError(
                        f"result index {index} out of range for job "
                        f"{state.job!r} (total {state.total})"
                    )
                state.outcomes[index] = outcome_from_wire(message["outcome"])
        elif kind == "job-done":
            state = self._jobs.get(str(message.get("job")))
            if state is not None:
                state.tally = {key: value for key, value in message.items()
                               if key not in ("type", "job")}
                state.done = True
        elif kind == "status":
            self._status.append(message)
        elif kind == "draining":
            self.draining = True
        elif kind == "error":
            raise ServiceError(
                f"server error for op {message.get('op')!r}: "
                f"{message.get('message')}"
            )
        # unknown message types are ignored for forward compatibility

    def __repr__(self) -> str:  # pragma: no cover - trivial
        host, port = self.address
        return f"SweepClient({host}:{port}, client_id={self.client_id!r})"
