"""The local worker fleet: processes the backend spawns so a cluster "just runs".

:class:`LocalFleet` runs N ``repro-experiments worker`` subprocesses on
this host, connected over loopback.  This is how CI and laptops exercise
the *full* wire path (registration, leases, heartbeats, result
streaming, death recovery) with zero infrastructure, and how
``--backend cluster`` works out of the box.  Workers inherit the
parent's ``sys.path`` via ``PYTHONPATH`` so runner callables defined in
scripts and test modules resolve in the children.  Workers on other
hosts are launched by hand (``repro-experiments worker --connect
HOST:PORT``) against a coordinator bound to a routable address.

By default the fleet never restarts dead workers: a worker death is a
*signal* the coordinator handles by requeueing leases, and silently
respawning would mask systematic crashes (an OOM-looping cell would
thrash forever).  The opt-in ``respawn=N`` budget relaxes that for
deployments that expect attrition (and for the chaos harness, which
kills workers on purpose): :meth:`LocalFleet.maintain` replaces dead
slots up to N times total, then reverts to the default stance.  A
*paused* slot (``SIGSTOP``, via :meth:`LocalFleet.pause`) is alive, not
dead — maintain never replaces it, so a later :meth:`LocalFleet.resume`
cannot produce a duplicate worker.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys

from repro.errors import ClusterError


def _worker_env() -> dict[str, str]:
    """The parent environment plus an import path matching ``sys.path``.

    Grid runners may live in modules only importable through the
    parent's ``sys.path`` (a test file, a script's directory); exporting
    it as ``PYTHONPATH`` gives spawned workers the same import universe.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in sys.path if p)
    return env


class LocalFleet:
    """``count`` worker subprocesses connected to ``address`` over loopback.

    ``respawn`` is the fleet-wide replacement budget: how many dead
    workers :meth:`maintain` may replace over the fleet's lifetime
    (0 = never, the default).
    """

    def __init__(self, address: tuple[str, int], count: int, *,
                 capacity: int = 1,
                 heartbeat_interval: float = 1.0,
                 name_prefix: str = "local",
                 respawn: int = 0,
                 reconnect: float = 0.0):
        if count < 1:
            raise ClusterError(f"a local fleet needs count >= 1, got {count}")
        if respawn < 0:
            raise ClusterError(f"respawn must be >= 0, got {respawn}")
        self.processes: list[subprocess.Popen] = []
        #: How much of the respawn budget is left.
        self.respawns_left = respawn
        #: Slot indices currently paused with SIGSTOP.
        self._paused: set[int] = set()
        self.address = address
        self.count = count
        self.capacity = capacity
        self.heartbeat_interval = heartbeat_interval
        self.name_prefix = name_prefix
        #: Passed through as the workers' ``--reconnect`` window (seconds;
        #: 0 = workers die with their connection, the default).
        self.reconnect = reconnect
        self._spawned = 0

    def _spawn(self, slot: int) -> subprocess.Popen:
        host, port = self.address
        self._spawned += 1
        command = [
            sys.executable, "-m", "repro.experiments", "worker",
            "--connect", f"{host}:{port}",
            "--capacity", str(self.capacity),
            "--heartbeat", str(self.heartbeat_interval),
            # Respawned slots get a fresh generation suffix so the
            # coordinator never sees two registrations collide.
            "--name", f"{self.name_prefix}-{slot}"
                      + (f"r{self._spawned}" if self._spawned > self.count
                         else ""),
        ]
        if self.reconnect and self.reconnect > 0:
            command += ["--reconnect", str(self.reconnect)]
        return subprocess.Popen(command, env=_worker_env(),
                                stdout=subprocess.DEVNULL)

    def start(self) -> "LocalFleet":
        """Spawn the workers (stderr inherited, so crashes are visible)."""
        for i in range(self.count):
            self.processes.append(self._spawn(i))
        return self

    def alive(self) -> int:
        """How many fleet processes are still running."""
        return sum(1 for p in self.processes if p.poll() is None)

    def maintain(self) -> int:
        """Replace dead workers while the respawn budget lasts.

        Returns how many were respawned on this sweep.  Paused slots
        are skipped — SIGSTOP makes a process unresponsive, not dead.
        Call this periodically (the cluster backend's health check
        does) or after a chaos :meth:`kill`.
        """
        respawned = 0
        for slot, process in enumerate(self.processes):
            if self.respawns_left <= 0:
                break
            if slot in self._paused or process.poll() is None:
                continue
            self.processes[slot] = self._spawn(slot)
            self.respawns_left -= 1
            respawned += 1
        return respawned

    # -- chaos controls ---------------------------------------------------
    def kill(self, slot: int) -> int:
        """SIGKILL one slot's process; returns the pid it had."""
        process = self._slot(slot)
        pid = process.pid
        if process.poll() is None:
            try:
                process.kill()
            except OSError:  # pragma: no cover - racing natural exit
                pass
            process.wait()
        return pid

    def pause(self, slot: int) -> int:
        """SIGSTOP one slot (hung-but-alive: heartbeats stop, pid lives)."""
        process = self._slot(slot)
        if process.poll() is None:
            os.kill(process.pid, signal.SIGSTOP)
            self._paused.add(slot)
        return process.pid

    def resume(self, slot: int) -> int:
        """SIGCONT a paused slot."""
        process = self._slot(slot)
        if process.poll() is None and slot in self._paused:
            os.kill(process.pid, signal.SIGCONT)
        self._paused.discard(slot)
        return process.pid

    def _slot(self, slot: int) -> subprocess.Popen:
        if not 0 <= slot < len(self.processes):
            raise ClusterError(
                f"fleet has {len(self.processes)} workers; no slot {slot}"
            )
        return self.processes[slot]

    def terminate(self, grace: float = 5.0) -> None:
        """SIGTERM every live process, then SIGKILL stragglers."""
        for slot in list(self._paused):
            # A stopped process cannot act on SIGTERM; wake it first.
            try:
                self.resume(slot)
            except (ClusterError, OSError):  # pragma: no cover - racing
                pass
        for process in self.processes:
            if process.poll() is None:
                try:
                    process.terminate()
                except OSError:  # pragma: no cover - racing exit
                    pass
        for process in self.processes:
            try:
                process.wait(timeout=grace)
            except subprocess.TimeoutExpired:
                process.kill()
                try:
                    process.wait(timeout=grace)
                except subprocess.TimeoutExpired:  # pragma: no cover
                    pass
        self.processes.clear()

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return f"{type(self).__name__}(alive={self.alive()})"
