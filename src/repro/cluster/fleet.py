"""The local worker fleet: processes the backend starts so a cluster "just runs".

:class:`LocalFleet` runs N worker agents on this host, connected over
loopback.  This is how CI and laptops exercise the *full* wire path
(registration, leases, heartbeats, result streaming, death recovery)
with zero infrastructure, and what ``--backend processes`` and
``--backend cluster`` run out of the box.  On Linux the workers are
forked, so they start with the parent's engine and workload memo
imported.  Workers on other hosts are launched by hand
(``repro-experiments worker --connect HOST:PORT``).

The fleet never restarts a worker on its own: blind respawning would
mask systematic crashes (an OOM-looping cell would thrash forever).
Its owner pays for each replacement instead; the cluster backend passes
:meth:`LocalFleet.maintain` one per lease lost.  A *paused* slot
(``SIGSTOP``, via :meth:`LocalFleet.pause`) is alive, not dead —
maintain never replaces it, so a later :meth:`LocalFleet.resume`
cannot produce a duplicate worker.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import sys
import traceback
from multiprocessing.process import BaseProcess

from repro.cluster.worker import run_worker
from repro.errors import ClusterError
from repro.fabric.transport import close_inherited_sockets


def _worker_process(address: tuple[str, int], name: str,
                    reconnect: float) -> None:
    """One fleet worker, from fork to exit.

    A forked child drops its parent's sockets, so ports rebind and peers
    read EOF, and its signal handlers (``serve``'s drain handler).
    ``os._exit`` ends it, so no thread stuck in a cell keeps it alive.
    """
    code = 1
    try:
        close_inherited_sockets()
        signal.signal(signal.SIGTERM, signal.SIG_DFL)
        signal.signal(signal.SIGINT, signal.default_int_handler)
        sys.stdout = open(os.devnull, "w")  # multiprocessing did stdin
        os.dup2(sys.stdout.fileno(), 1)
        code = run_worker(address, name=name, reconnect=reconnect)
    except Exception:
        traceback.print_exc()
    finally:
        sys.stderr.flush()
        os._exit(code)


class LocalFleet:
    """``count`` single-slot worker processes connected to ``address``
    over loopback."""

    def __init__(self, address: tuple[str, int], count: int, *,
                 reconnect: float = 0.0):
        if count < 1:
            raise ClusterError(f"a local fleet needs count >= 1, got {count}")
        self.processes: list[BaseProcess] = []
        #: Replacements paid for but not yet made (no slot had died
        #: yet, or only paused ones).  Credit only ever replaces a dead
        #: slot, one each, so unused credit never adds a worker.
        self.respawns_left = 0
        #: Slot indices currently paused with SIGSTOP.
        self._paused: set[int] = set()
        self.address = address
        self.count = count
        #: The workers' reconnect window (seconds; 0 = workers die with
        #: their connection, the default).
        self.reconnect = reconnect
        self._spawned = 0

    @staticmethod
    def _method() -> str | None:
        # fork only where it is safe: macOS lists it but documents it as
        # unreliable (Objective-C runtime aborts in forked children), so
        # other platforms get their default start method.
        if sys.platform.startswith("linux"):
            return "fork"
        return None

    def _spawn(self, slot: int) -> BaseProcess:
        self._spawned += 1
        # Respawned slots get a fresh generation suffix so the
        # coordinator never sees two registrations collide; the worker
        # registers under its process name.
        name = f"local-{slot}" + (
            f"r{self._spawned}" if self._spawned > self.count else "")
        context = multiprocessing.get_context(self._method())
        process = context.Process(
            target=_worker_process, name=name, daemon=True,
            args=(self.address, name, self.reconnect))
        process.start()
        return process

    def start(self) -> "LocalFleet":
        """Start the workers (stderr inherited, so crashes are visible)."""
        for i in range(self.count):
            self.processes.append(self._spawn(i))
        return self

    def alive(self) -> int:
        """How many fleet processes are still running."""
        return sum(1 for p in self.processes if p.is_alive())

    def maintain(self, paid: int) -> None:
        """Add ``paid`` replacements to the budget, then replace dead
        workers while it lasts.

        Paused slots are skipped — SIGSTOP makes a process unresponsive,
        not dead.  The cluster backend's health check calls this
        periodically.
        """
        self.respawns_left += paid
        for slot, process in enumerate(self.processes):
            if self.respawns_left <= 0:
                break
            if slot in self._paused or process.is_alive():
                continue
            self.processes[slot] = self._spawn(slot)
            self.respawns_left -= 1

    def reclaim(self, worker: str) -> bool:
        """SIGKILL the live worker registered as ``worker`` (no wait);
        ``False`` when no fleet process has that name."""
        for process in self.processes:
            if process.name == worker and process.is_alive():
                process.kill()
                return True
        return False

    # -- chaos controls ---------------------------------------------------
    def kill(self, slot: int) -> int:
        """SIGKILL one slot's process; returns the pid it had.

        A killed slot is dead, not paused, so :meth:`maintain` may
        replace it.
        """
        process = self._slot(slot)
        if process.is_alive():
            process.kill()
            process.join()
        self._paused.discard(slot)
        return process.pid

    def pause(self, slot: int) -> int:
        """SIGSTOP one slot (hung-but-alive: heartbeats stop, pid lives)."""
        process = self._slot(slot)
        if process.is_alive():
            os.kill(process.pid, signal.SIGSTOP)
            self._paused.add(slot)
        return process.pid

    def resume(self, slot: int) -> int:
        """SIGCONT a paused slot."""
        process = self._slot(slot)
        if process.is_alive() and slot in self._paused:
            os.kill(process.pid, signal.SIGCONT)
        self._paused.discard(slot)
        return process.pid

    def _slot(self, slot: int) -> BaseProcess:
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
            if process.is_alive():
                process.terminate()
        for process in self.processes:
            process.join(grace)
            if process.exitcode is None:
                process.kill()
                process.join(grace)
        self.processes.clear()

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return f"{type(self).__name__}(alive={self.alive()})"
