"""``ClusterBackend``: the fabric as a drop-in grid execution backend.

Registered as ``"cluster"`` in
:data:`~repro.scenarios.backends.EXECUTION_BACKENDS`, so
``run_grid(..., backend="cluster")``, ``grid --backend cluster`` and
``serve --backend cluster`` all reach it by name.  It honors the
``(index, outcome, attempts)`` triple contract exactly like the pool
backends — :class:`~repro.scenarios.session.GridSession`'s reorder
buffer then makes cluster output digest-identical to a serial run.

Lifecycle: the coordinator and worker fleet start lazily on the first
:meth:`execute` and persist across grids (the sweep service dispatcher
calls ``execute`` once per batch — workers must not be respawned per
batch).  ``close()`` (also registered ``atexit``) shuts workers down and
releases the port; the backend is restartable after a close.

Topology knobs:

* ``local_workers`` — size of the auto-spawned loopback fleet.  The
  default (``None``) picks ``min(4, cpu_count)`` local workers;
  ``local_workers=0`` means *externally launched workers only* (start
  them with ``repro-experiments worker --connect HOST:PORT`` on each
  host, against a coordinator bound with ``host="0.0.0.0"``).
* ``lease_timeout`` — per-cell lease deadline when ``execute`` gets no
  ``timeout``; hung-but-heartbeating workers forfeit the cell when it
  expires.
* ``heartbeat_timeout`` — how long a silent worker survives (its socket
  EOF usually wins the race; heartbeats catch half-open connections).

Failure semantics match the processes backend: every lease charges the
cell an attempt, worker death requeues while ``retries`` allows and then
reports a ``"worker-death"`` :class:`~repro.scenarios.backends.CellError`
whose attempt count surfaces as ``GridReport.retries``.  A cluster with
*zero* reachable workers fails loudly (:class:`ClusterError`) after
``startup_timeout`` rather than hanging a grid forever.

Resilience knobs (all optional):

* ``journal`` — a path (or
  :class:`~repro.cluster.journal.LedgerJournal`) making the ledger
  crash-safe: a coordinator killed mid-grid restarts on the same
  journal, re-admits unfinished cells and finishes the batch;
  re-submitting the identical grid adopts the journal's remnant instead
  of recomputing it.  :meth:`restart_coordinator` is the in-process
  crash-restart (used by the chaos harness).
* ``respawn`` / ``worker_reconnect`` — the fleet's self-healing: replace
  up to N dead workers, and spawn workers that redial a restarted
  coordinator for ``worker_reconnect`` seconds (resuming their prior
  worker id) instead of dying with the connection.
* ``fallback`` / ``min_workers`` / ``degrade_after`` — graceful
  degradation: when the live fleet sits below ``min_workers`` (or the
  coordinator stays down) for ``degrade_after`` seconds mid-grid, the
  remaining cells run on the in-process ``fallback`` backend
  (``"processes"`` by default; ``None`` restores fail-hard) and the
  affected positions surface as ``GridReport.degraded`` via
  :attr:`ClusterBackend.degraded_positions`.
"""

from __future__ import annotations

import atexit
import threading
import time
from typing import Iterator, Sequence

from repro.cluster.coordinator import ClusterCoordinator
from repro.cluster.fleet import LocalFleet
from repro.cluster.journal import LedgerJournal
from repro.cluster.protocol import runner_to_wire
from repro.errors import ClusterError
from repro.scenarios.backends import ExecutionBackend, Runner
from repro.scenarios.spec import Scenario


def _default_local_workers() -> int:
    import os

    return max(1, min(4, os.cpu_count() or 2))


class ClusterBackend(ExecutionBackend):
    """Execute grid cells on a fleet of (possibly remote) worker agents."""

    name = "cluster"

    #: How often the result loop wakes to check cluster health (seconds).
    _TICK = 0.25

    def __init__(self, *, host: str = "127.0.0.1", port: int = 0,
                 local_workers: int | None = None,
                 worker_capacity: int = 1,
                 lease_timeout: float | None = None,
                 heartbeat_timeout: float = 10.0,
                 startup_timeout: float = 30.0,
                 journal: "LedgerJournal | str | None" = None,
                 respawn: int = 0,
                 worker_reconnect: float = 0.0,
                 fallback: str | None = "processes",
                 min_workers: int = 1,
                 degrade_after: float | None = None,
                 wire_faults=None):
        if local_workers is not None and local_workers < 0:
            raise ClusterError(
                f"local_workers must be >= 0, got {local_workers}"
            )
        if worker_capacity < 1:
            raise ClusterError(
                f"worker_capacity must be >= 1, got {worker_capacity}"
            )
        if lease_timeout is not None and lease_timeout <= 0:
            raise ClusterError(
                f"lease_timeout must be > 0, got {lease_timeout}"
            )
        if min_workers < 1:
            raise ClusterError(f"min_workers must be >= 1, got {min_workers}")
        if degrade_after is not None and degrade_after <= 0:
            raise ClusterError(
                f"degrade_after must be > 0, got {degrade_after}"
            )
        self.host = host
        self.port = port
        self.local_workers = local_workers
        self.worker_capacity = worker_capacity
        self.lease_timeout = lease_timeout
        self.heartbeat_timeout = heartbeat_timeout
        self.startup_timeout = startup_timeout
        if isinstance(journal, (str, bytes)) or hasattr(journal, "__fspath__"):
            journal = LedgerJournal(journal)
        self.journal = journal
        self.respawn = respawn
        self.worker_reconnect = worker_reconnect
        self.fallback = fallback
        self.min_workers = min_workers
        self.degrade_after = degrade_after
        self.wire_faults = wire_faults
        #: Grid positions of the last ``execute`` that ran on the
        #: fallback backend after a mid-grid degradation (see
        #: ``GridReport.degraded``); empty when the cluster did it all.
        self.degraded_positions: tuple[int, ...] = ()
        self._coordinator: ClusterCoordinator | None = None
        self._fleet: LocalFleet | None = None
        self._grid_lock = threading.Lock()
        self._lifecycle_lock = threading.Lock()

    # -- lifecycle -------------------------------------------------------
    @property
    def address(self) -> tuple[str, int] | None:
        """The coordinator's bound address once started, else ``None``."""
        coordinator = self._coordinator
        return coordinator.address if coordinator is not None else None

    def _ensure_started(self) -> ClusterCoordinator:
        with self._lifecycle_lock:
            if self._coordinator is not None:
                return self._coordinator
            coordinator = ClusterCoordinator(
                self.host, self.port,
                heartbeat_timeout=self.heartbeat_timeout,
                journal=self.journal,
                wire_faults=self.wire_faults).start()
            n_local = self.local_workers
            if n_local is None:
                n_local = _default_local_workers()
            fleet = None
            try:
                if n_local:
                    fleet = LocalFleet(coordinator.address, n_local,
                                       capacity=self.worker_capacity,
                                       respawn=self.respawn,
                                       reconnect=self.worker_reconnect)
                    fleet.start()
            except Exception:
                if fleet is not None:
                    fleet.terminate()
                coordinator.stop()
                raise
            self._coordinator = coordinator
            self._fleet = fleet
            atexit.register(self.close)
            return coordinator

    def restart_coordinator(self) -> ClusterCoordinator:
        """Crash the coordinator and raise a successor on the same port.

        The old coordinator dies abruptly (no ``shutdown`` broadcast —
        workers see a dropped socket, exactly like a SIGKILL) and the
        successor rebinds the same address with the same journal, so it
        replays the WAL and the surviving, self-healing workers redial
        it and resume their ids.  Requires a ``journal``; without one
        the in-flight batch would silently evaporate.
        """
        with self._lifecycle_lock:
            old = self._coordinator
            if old is None:
                raise ClusterError("cluster is not running; nothing to "
                                   "restart")
            if self.journal is None:
                raise ClusterError(
                    "restart_coordinator needs the backend configured with "
                    "a journal; without one the in-flight batch is lost"
                )
            host, port = old.address
            old.crash()
            successor = ClusterCoordinator(
                host, port,
                heartbeat_timeout=self.heartbeat_timeout,
                journal=self.journal,
                wire_faults=self.wire_faults).start()
            self._coordinator = successor
            return successor

    def close(self) -> None:
        """Shut the fleet and coordinator down (restartable afterwards)."""
        with self._lifecycle_lock:
            coordinator, fleet = self._coordinator, self._fleet
            self._coordinator, self._fleet = None, None
        if coordinator is None:
            return
        try:
            atexit.unregister(self.close)
        except Exception:  # pragma: no cover - interpreter teardown
            pass
        coordinator.stop()
        if fleet is not None:
            fleet.terminate()

    def __enter__(self) -> "ClusterBackend":
        self._ensure_started()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- execution -------------------------------------------------------
    def execute(self, scenarios: Sequence[Scenario], runner: Runner, *,
                timeout: float | None = None,
                retries: int = 1) -> Iterator[tuple[int, object, int]]:
        """Yield ``(index, outcome, attempts)`` triples, completion order.

        Coordinator restarts mid-grid are transparent: the loop follows
        the live coordinator, and the ``seen`` index filter swallows the
        duplicate outcomes a journal replay may re-emit (first completion
        wins, even across a restart).  When the cluster degrades past
        recovery *and* a ``fallback`` backend is configured, the
        remaining cells run in-process and their positions land in
        :attr:`degraded_positions`.
        """
        scenarios = list(scenarios)
        if not scenarios:
            return
        runner_spec = runner_to_wire(runner)
        with self._grid_lock:  # one grid at a time through the ledger
            self.degraded_positions = ()
            coordinator = self._ensure_started()
            self._await_workers(coordinator)
            lease = timeout if timeout is not None else self.lease_timeout
            coordinator.submit(scenarios, runner=runner_spec,
                               timeout=lease, retries=retries)
            seen: set[int] = set()
            degraded = False
            short_since: float | None = None
            try:
                while len(seen) < len(scenarios):
                    # Follow a chaos/ops restart to the live coordinator.
                    coordinator = self._coordinator or coordinator
                    item = coordinator.ledger.next_outcome(timeout=self._TICK)
                    if item is None:
                        verdict, short_since = self._check_health(
                            coordinator, short_since)
                        if verdict == "degrade":
                            degraded = True
                            break
                        continue
                    if item[0] in seen:
                        continue  # journal replay re-emitted it; first won
                    seen.add(item[0])
                    yield item
            finally:
                if len(seen) < len(scenarios) and not degraded:
                    # The consumer bailed (or health checking raised):
                    # clear the batch so the next grid starts clean.
                    live = self._coordinator or coordinator
                    live.ledger.abandon()
            if degraded:
                yield from self._execute_degraded(
                    coordinator, scenarios, runner, seen,
                    timeout=timeout, retries=retries)

    def _execute_degraded(self, coordinator: ClusterCoordinator,
                          scenarios: list[Scenario], runner: Runner,
                          seen: set[int], *, timeout: float | None,
                          retries: int) -> Iterator[tuple[int, object, int]]:
        """Finish the grid's remaining cells on the in-process fallback."""
        from repro.scenarios.backends import resolve_backend

        try:
            coordinator.ledger.abandon()
        except Exception:  # pragma: no cover - crashed coordinator
            pass
        remaining = [(index, scenario)
                     for index, scenario in enumerate(scenarios)
                     if index not in seen]
        self.degraded_positions = tuple(index for index, _ in remaining)
        fallback = resolve_backend(self.fallback)
        try:
            for sub_index, outcome, attempts in fallback.execute(
                    [scenario for _, scenario in remaining], runner,
                    timeout=timeout, retries=retries):
                yield remaining[sub_index][0], outcome, attempts
        finally:
            close = getattr(fallback, "close", None)
            if callable(close):
                close()

    # -- health ----------------------------------------------------------
    def _await_workers(self, coordinator: ClusterCoordinator) -> None:
        """Block until at least one worker registered (or fail loudly).

        Startup stays loud even when a fallback is configured: a cluster
        that *never* had a worker is a misconfiguration, not an outage.
        """
        deadline = time.monotonic() + self.startup_timeout
        while coordinator.worker_count() == 0:
            self._check_fleet_alive()
            if time.monotonic() >= deadline:
                raise ClusterError(
                    f"no cluster worker registered within "
                    f"{self.startup_timeout:g}s; start workers with "
                    f"'repro-experiments worker --connect "
                    f"{self.host}:{coordinator.address[1]}' or configure "
                    f"local_workers"
                )
            time.sleep(0.05)

    def _degrade_window(self) -> float:
        return (self.degrade_after if self.degrade_after is not None
                else self.startup_timeout)

    def _check_health(self, coordinator: ClusterCoordinator,
                      short_since: float | None) \
            -> tuple[str, float | None]:
        """One mid-grid health sweep.

        Returns ``("ok", short_since)`` to keep waiting or
        ``("degrade", ...)`` to hand the rest of the batch to the
        fallback backend; raises :class:`ClusterError` when the grid is
        stuck and no fallback is configured.  ``short_since`` threads
        the caller's below-the-floor timer between sweeps.
        """
        if self._fleet is not None:
            self._fleet.maintain()
        now = time.monotonic()
        alive = coordinator.worker_count()
        coordinator_down = coordinator._stopping.is_set() \
            and self._coordinator is coordinator
        if alive >= self.min_workers and not coordinator_down:
            return "ok", None
        if short_since is None:
            short_since = now
        try:
            if alive == 0 or coordinator_down:
                self._check_fleet_alive()
        except ClusterError:
            # The whole fleet is gone and nothing will respawn it.
            if self.fallback is not None:
                return "degrade", short_since
            raise
        if now - short_since <= self._degrade_window():
            return "ok", short_since
        if self.fallback is not None:
            return "degrade", short_since
        if alive == 0:
            raise ClusterError(
                f"every cluster worker disconnected and none returned "
                f"within {self._degrade_window():g}s; "
                f"{coordinator.ledger.outstanding()} cells are stranded"
            )
        return "ok", short_since  # below the floor, but fail-hard mode

    def _check_fleet_alive(self) -> None:
        """Fail fast when the backend's own fleet is entirely dead."""
        fleet = self._fleet
        if fleet is None or fleet.alive():
            return
        if fleet.respawns_left:
            return  # maintain() will raise replacements next sweep
        raise ClusterError(
            "every spawned cluster worker process has exited; check worker "
            "stderr above for the crash (runner import failure, OOM, ...)"
        )

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return (f"ClusterBackend(local_workers={self.local_workers}, "
                f"worker_capacity={self.worker_capacity})")
