"""The worker agent: dial a coordinator, run leased cells, stream results.

:class:`ClusterWorkerAgent` is the whole client side of the fabric —
what ``repro-experiments worker --connect HOST:PORT`` runs, and what the
local fleet spawns as subprocesses.  It connects, registers with a
capacity, then loops reading coordinator messages:

* ``cell`` leases run on a small thread pool (``capacity`` wide — engine
  cells are GIL-bound pure Python, so capacity is about pipelining the
  wire, not parallelism; run several *agents* per host for parallelism);
  the runner is resolved from its ``"module:qualname"`` wire spec once
  and memoized, with ``None`` meaning the default
  :func:`~repro.scenarios.runner.run_scenario`, whose per-workload memo
  makes repeated cells of one grid cheap exactly like the process-pool
  workers;
* a daemon heartbeat thread beacons liveness every
  ``heartbeat_interval`` seconds (the coordinator declares silent
  workers dead at its own ``heartbeat_timeout``);
* runner exceptions become ``"error"``
  :class:`~repro.scenarios.backends.CellError` outcomes worker-side —
  only a *dying* worker (SIGKILL, OOM, ``os._exit``) shows up as a
  worker-death, which is the coordinator's requeue path;
* an unexpected connection drop (a crashed — not stopped — coordinator)
  enters a :class:`~repro.resilience.RetryPolicy` reconnect loop: the
  agent redials, re-registers under its *prior* worker id (``resume``),
  and keeps its thread pool — cells that were mid-flight when the wire
  vanished finish and stream up the new connection.  Every successful
  session refreshes the budget, so a flapping coordinator only has to
  stay down longer than one whole policy to lose the worker.

The agent exits 0 on a coordinator-initiated ``shutdown`` and 1 when the
connection drops unexpectedly and the reconnect budget (if any) runs out.
"""

from __future__ import annotations

import random
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from typing import Callable

from repro.cluster.protocol import CLUSTER_PROTOCOL_VERSION, runner_from_wire
from repro.errors import ClusterError, ClusterProtocolError
from repro.fabric import transport
from repro.resilience import RetryPolicy
from repro.scenarios.backends import CellError, _error_outcome
from repro.scenarios.spec import Scenario
from repro.service.protocol import outcome_to_wire


def parse_address(address: "str | tuple[str, int]") -> tuple[str, int]:
    """Coerce ``"host:port"`` (or a pair) into a ``(host, port)`` tuple."""
    return transport.parse_address(address, ClusterError)


class ClusterWorkerAgent:
    """One worker process's connection to a cluster coordinator."""

    def __init__(self, address: "str | tuple[str, int]", *,
                 name: str = "worker",
                 capacity: int = 1,
                 heartbeat_interval: float = 1.0,
                 connect_timeout: float = 10.0,
                 reconnect: RetryPolicy | None = None,
                 rng: random.Random | None = None):
        if capacity < 1:
            raise ClusterError(f"capacity must be >= 1, got {capacity}")
        if heartbeat_interval <= 0:
            raise ClusterError(
                f"heartbeat_interval must be > 0, got {heartbeat_interval}"
            )
        self.address = parse_address(address)
        self.name = name
        self.capacity = capacity
        self.heartbeat_interval = heartbeat_interval
        self.connect_timeout = connect_timeout
        #: Redial budget after an *unexpected* drop; ``None`` = die on
        #: the first one (the pre-self-healing behaviour).
        self.reconnect = reconnect
        self.rng = rng
        #: The coordinator-assigned id (set after the welcome handshake).
        self.worker_id: str | None = None
        #: Cells this agent finished (successes and errors).
        self.completed = 0
        #: Successful (re)connections, for tests and log lines.
        self.sessions = 0
        self._runners: dict[str | None, Callable] = {}
        self._stop = threading.Event()
        self._connection: transport.Connection | None = None

    def run(self) -> int:
        """Serve until the coordinator says ``shutdown``; returns exit code.

        0 for a clean shutdown, 1 when the connection drops first and
        the ``reconnect`` policy (if any) cannot re-establish it.  The
        first connection always fails loudly (:class:`ClusterError`) —
        an agent that never registered has nothing to heal.
        """
        clean = False
        executor = ThreadPoolExecutor(max_workers=self.capacity,
                                      thread_name_prefix="cluster-cell")
        try:
            clean = self._serve_session(executor, resume=None)
            while not clean and self.reconnect is not None:
                healed = False
                for _attempt in self.reconnect.attempts(self.rng):
                    try:
                        clean = self._serve_session(executor,
                                                    resume=self.worker_id)
                    except ClusterProtocolError:
                        raise  # version skew: retrying cannot fix it
                    except ClusterError:
                        continue  # coordinator still down; back off
                    healed = True
                    break
                if not healed:
                    break  # budget spent with the coordinator still gone
        finally:
            self._stop.set()
            # In-flight cells die with the process; the coordinator's
            # EOF handling requeues them, which is the contract.
            executor.shutdown(wait=clean, cancel_futures=not clean)
        return 0 if clean else 1

    def _serve_session(self, executor: ThreadPoolExecutor, *,
                       resume: str | None) -> bool:
        """One connect → register → serve cycle; ``True`` on clean shutdown.

        Raises :class:`ClusterError` when the coordinator cannot be
        reached or rejects registration; returns ``False`` when an
        established session drops mid-stream (the self-healing case).
        """
        connection = transport.Connection(
            self.address, "cluster coordinator", ClusterError,
            self.connect_timeout)
        clean = False
        try:
            register = {"op": "register", "worker": self.name,
                        "capacity": self.capacity,
                        "protocol": CLUSTER_PROTOCOL_VERSION}
            if resume is not None:
                register["resume"] = resume
            # A wire failure before the welcome (a dial racing a
            # coordinator teardown, say) raises like an unreachable host,
            # so the reconnect loop backs off; after it, a failure is
            # just the mid-session drop the self-healing path exists for.
            welcome = connection.handshake(register)
            if welcome["type"] == "error":
                if welcome.get("code") == "protocol-mismatch":
                    raise ClusterProtocolError(
                        f"{connection.peer} speaks a different cluster "
                        f"protocol: {welcome.get('message')}; update this "
                        f"host's repro checkout so both sides agree on "
                        f"CLUSTER_PROTOCOL_VERSION "
                        f"({CLUSTER_PROTOCOL_VERSION} here)"
                    )
                raise ClusterError(
                    f"coordinator rejected registration: "
                    f"{welcome.get('message')}"
                )
            self.worker_id = str(welcome.get("worker"))
            self.sessions += 1
            self._connection = connection
            heartbeat = threading.Thread(target=self._heartbeat_loop,
                                         name="cluster-heartbeat",
                                         daemon=True)
            heartbeat.start()
            while True:
                try:
                    message = connection.read()
                except ClusterError:
                    break  # reset, or framing broken: the session is over
                if message is None:
                    break
                kind = message.get("type")
                if kind == "cell":
                    executor.submit(self._run_cell, message)
                elif kind == "shutdown":
                    clean = True
                    break
                # "error" and unknown types: nothing actionable; keep going
        finally:
            self._connection = None
            connection.close()
        return clean

    # -- internals -------------------------------------------------------
    def _run_cell(self, message: dict) -> None:
        try:
            scenario = Scenario.from_dict(message.get("scenario"))
        except Exception as exc:
            # Version skew between coordinator and worker code: the lease
            # cannot even be named.  Leave it to the coordinator's lease
            # timeout / requeue machinery rather than inventing a result.
            print(f"cluster worker: undecodable cell "
                  f"{message.get('cell')!r}: {exc}", file=sys.stderr)
            return
        try:
            runner_spec = message.get("runner")
            if runner_spec not in self._runners:
                self._runners[runner_spec] = runner_from_wire(runner_spec)
            outcome = self._runners[runner_spec](scenario)
            if not isinstance(outcome, CellError):
                outcome_to_wire(outcome)  # probe serialisability early
        except Exception as exc:
            outcome = _error_outcome(scenario, exc, 1)
        self.completed += 1
        try:
            self._send({"op": "result", "cell": message.get("cell"),
                        "outcome": outcome_to_wire(outcome)})
        except ClusterError:
            pass  # connection is gone; the read loop is winding down

    def _heartbeat_loop(self) -> None:
        while not self._stop.wait(self.heartbeat_interval):
            try:
                self._send({"op": "heartbeat"})
            except ClusterError:
                break  # socket is gone; the read loop is winding down too

    def _send(self, message: dict) -> None:
        connection = self._connection
        if connection is None:
            raise ClusterError("worker is not connected")
        connection.send(message)

    def __repr__(self) -> str:  # pragma: no cover - trivial
        host, port = self.address
        return (f"ClusterWorkerAgent({host}:{port}, name={self.name!r}, "
                f"capacity={self.capacity})")
