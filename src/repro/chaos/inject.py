"""Fault injectors and the chaos controller that drives them.

Three injection surfaces, one seeded decision function:

* :class:`WireFaults` — plugs into the coordinator's ``wire_faults``
  hook (:mod:`repro.cluster.coordinator`) and delays / drops /
  duplicates the fault-eligible messages (outbound ``cell`` leases,
  inbound ``result`` reports).  Every decision is a pure hash of
  ``(seed, fault kind, message identity)`` — no RNG state, no clock —
  so two runs with the same seed and grid inject the same wire faults
  regardless of thread interleaving.
* :class:`ChaosController` — a timer thread executing the schedule's
  process faults against a live :class:`~repro.cluster.backend.
  ClusterBackend`: ``kill`` / ``pause`` / ``resume`` fleet workers,
  ``crash`` the coordinator (SIGKILL-equivalent teardown + restart on
  the same write-ahead journal).
* :func:`chaos_runner` — an importable runner wrapper that sleeps or
  deterministically raises *inside worker processes*, configured
  through ``REPRO_CHAOS_*`` environment variables because the
  environment reaches a worker process however it was started.

:func:`run_chaos` wires all three around a normal
:class:`~repro.scenarios.session.GridSession` run and returns the
session's :class:`~repro.scenarios.session.GridReport` together with
the :class:`FaultLog` of everything that was injected.
"""

from __future__ import annotations

import json
import os
import tempfile
import threading
import time
import zlib
from typing import Sequence

from repro.chaos.schedule import ChaosError, ChaosEvent, ChaosSchedule
from repro.errors import ClusterError

#: Environment variables carrying runner-fault config into workers.
ENV_SLOW_MS = "REPRO_CHAOS_SLOW_MS"
ENV_FAIL_FRACTION = "REPRO_CHAOS_FAIL_FRACTION"
ENV_SEED = "REPRO_CHAOS_SEED"

#: Chaos runs detect a silent (paused) worker after this many seconds,
#: well inside a short grid.
HEARTBEAT_TIMEOUT = 3.0


def _decide(seed: int, fault: str, identity: str, fraction: float) -> bool:
    """The seeded coin every injector flips: pure, clock-free, thread-free.

    >>> _decide(7, "delay", "out:3:1", 1.0)
    True
    >>> _decide(7, "delay", "out:3:1", 0.0)
    False
    >>> first = [_decide(7, "drop", f"out:{i}:1", 0.5) for i in range(4)]
    >>> first == [_decide(7, "drop", f"out:{i}:1", 0.5) for i in range(4)]
    True
    """
    if fraction <= 0.0:
        return False
    key = f"{seed}:{fault}:{identity}"
    return (zlib.crc32(key.encode("utf-8")) % 10_000) / 10_000.0 < fraction


class FaultLog:
    """Thread-safe record of every injected fault.

    ``scheduled`` holds process faults in execution order; ``wire``
    holds wire-fault decisions in whatever order the coordinator's
    threads made them.  :meth:`canonical` normalises both into a value
    that is equal across two runs of the same seeded schedule — the
    determinism contract the tests assert.  ``errors`` (harness
    problems executing an event, e.g. a kill aimed at an already-dead
    slot) is deliberately *not* part of the canonical form.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.scheduled: list[dict] = []
        self.wire: list[dict] = []
        self.errors: list[str] = []

    def record_scheduled(self, record: dict) -> None:
        with self._lock:
            self.scheduled.append(dict(record))

    def record_wire(self, record: dict) -> None:
        with self._lock:
            self.wire.append(dict(record))

    def record_error(self, message: str) -> None:
        with self._lock:
            self.errors.append(str(message))

    def counts(self) -> dict[str, int]:
        """Injected-fault tallies keyed by fault kind."""
        with self._lock:
            tally: dict[str, int] = {}
            for record in self.scheduled:
                key = str(record.get("action"))
                tally[key] = tally.get(key, 0) + 1
            for record in self.wire:
                key = str(record.get("fault"))
                tally[key] = tally.get(key, 0) + 1
            return tally

    def canonical(self) -> dict:
        """A run-comparable normal form (see the class docstring)."""
        with self._lock:
            return {
                "scheduled": [dict(r) for r in self.scheduled],
                "wire": sorted(json.dumps(r, sort_keys=True)
                               for r in self.wire),
            }

    def to_dict(self) -> dict:
        with self._lock:
            return {"scheduled": [dict(r) for r in self.scheduled],
                    "wire": [dict(r) for r in self.wire],
                    "errors": list(self.errors)}

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return f"FaultLog({self.counts()})"


class WireFaults:
    """The coordinator-side wire-fault hook built from a schedule.

    ``apply(direction, worker_id, message)`` returns the deliveries the
    caller should actually make: ``[]`` for a drop, two copies for a
    duplicate, and sleeps in place for a delay (the coordinator invokes
    it on per-worker writer / handler threads precisely so a sleeping
    injector never blocks the ledger lock).

    Only messages with a stable identity are eligible: outbound
    ``cell`` leases (identified by grid ``index`` + ``attempt``) and
    inbound ``result`` reports (identified by cell id).  Drops apply to
    leases only — a re-leased cell carries a fresh ``attempt`` and so
    gets a fresh coin, while a dropped *result* would be dropped again
    on every retry of the same lease, starving the cell forever.
    """

    def __init__(self, schedule: ChaosSchedule, log: FaultLog | None = None,
                 *, sleep=time.sleep):
        self.schedule = schedule
        self.log = log if log is not None else FaultLog()
        self._sleep = sleep

    def _identity(self, direction: str, message: dict) -> str | None:
        if direction == "out" and message.get("type") == "cell":
            return f"out:{message.get('index')}:{message.get('attempt')}"
        if direction == "in" and message.get("op") == "result":
            return f"in:{message.get('cell')}"
        return None

    def apply(self, direction: str, worker_id: str,
              message: dict) -> list[dict]:
        identity = self._identity(direction, message)
        if identity is None:
            return [message]
        schedule = self.schedule
        if direction == "out" and _decide(schedule.seed, "drop", identity,
                                          schedule.drop_fraction):
            self.log.record_wire({"fault": "drop", "id": identity})
            return []
        deliveries = [message]
        if _decide(schedule.seed, "duplicate", identity,
                   schedule.duplicate_fraction):
            self.log.record_wire({"fault": "duplicate", "id": identity})
            deliveries = [message, message]
        if schedule.delay_ms > 0 and _decide(
                schedule.seed, "delay", identity,
                schedule.effective_delay_fraction):
            self.log.record_wire({"fault": "delay", "id": identity})
            self._sleep(schedule.delay_ms / 1000.0)
        return deliveries


class ChaosController:
    """Executes a schedule's process faults against a running backend.

    The controller addresses workers by fleet slot (spawn order in the
    backend's local fleet) and fires each event once at its
    ``at`` offset from :meth:`start`.  Planned events are logged
    whether or not they could be executed (a kill aimed at a slot the
    fleet never had is a harness error, recorded separately) — the
    canonical log stays a pure function of the schedule.
    """

    def __init__(self, schedule: ChaosSchedule,
                 log: FaultLog | None = None):
        self.schedule = schedule
        self.log = log if log is not None else FaultLog()
        self._backend = None
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None

    def attach(self, backend) -> "ChaosController":
        """Point the controller at the backend whose fabric it breaks."""
        self._backend = backend
        return self

    def start(self) -> "ChaosController":
        if self._backend is None:
            raise ChaosError("attach() a ClusterBackend before start()")
        if self._thread is not None:
            raise ChaosError("chaos controller already started")
        self._thread = threading.Thread(target=self._run,
                                        name="chaos-controller",
                                        daemon=True)
        self._thread.start()
        return self

    def stop(self) -> None:
        """Cancel pending events and wait the timer thread out."""
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=10.0)

    def wait(self, timeout: float | None = None) -> bool:
        """Block until every scheduled event has fired (or ``timeout``)."""
        if self._thread is None:
            return True
        self._thread.join(timeout)
        return not self._thread.is_alive()

    # -- internals -------------------------------------------------------
    def _run(self) -> None:
        started = time.monotonic()
        for event in sorted(self.schedule.events, key=lambda e: e.at):
            remaining = event.at - (time.monotonic() - started)
            if remaining > 0 and self._stop.wait(remaining):
                return
            if self._stop.is_set():
                return
            self._fire(event)

    def _fire(self, event: ChaosEvent) -> None:
        self.log.record_scheduled(event.to_dict())
        try:
            if event.action == "crash":
                self._backend.restart_coordinator()
            else:
                getattr(self._fleet(event.slot), event.action)(event.slot)
        except Exception as exc:
            self.log.record_error(f"{event.action}@{event.at:g}: {exc}")

    def _fleet(self, slot: int):
        """The backend's fleet, if it has a worker at ``slot``."""
        fleet = getattr(self._backend, "_fleet", None)
        if fleet is None or not 0 <= slot < len(fleet.processes):
            raise ClusterError(f"no fleet worker at slot {slot}")
        return fleet


def chaos_runner(scenario):
    """A wire-importable runner that injects in-worker faults.

    Reads ``REPRO_CHAOS_SLOW_MS`` (sleep that long before every cell),
    ``REPRO_CHAOS_FAIL_FRACTION`` and ``REPRO_CHAOS_SEED`` (raise for
    that seeded fraction of scenarios) from the environment — worker
    agents are separate processes, and the environment reaches them
    however they were started — then delegates to
    :func:`~repro.scenarios.runner.run_scenario`.  Injected failures are *deterministic per
    scenario*, so they exhaust retries and surface as ``"error"``
    cells; use them to test error accounting, not zero-error runs.
    """
    from repro.scenarios.runner import run_scenario

    slow_ms = float(os.environ.get(ENV_SLOW_MS, "0") or 0.0)
    fail_fraction = float(os.environ.get(ENV_FAIL_FRACTION, "0") or 0.0)
    seed = int(os.environ.get(ENV_SEED, "0") or 0)
    if slow_ms > 0:
        time.sleep(slow_ms / 1000.0)
    if _decide(seed, "runner-fail",
               f"{scenario.name}:{scenario.seed}", fail_fraction):
        raise RuntimeError(
            f"chaos: injected runner failure for "
            f"{scenario.name or scenario.workload!r}"
        )
    return run_scenario(scenario)


def run_chaos(scenarios: Sequence, schedule: ChaosSchedule, *,
              runner=None,
              local_workers: int = 2,
              sink=None,
              journal: str | None = None,
              timeout: float | None = None,
              retries: int = 2,
              collect: bool = True,
              log: FaultLog | None = None):
    """Run ``scenarios`` on a local cluster while injecting ``schedule``.

    Returns ``(report, log)`` — the grid's
    :class:`~repro.scenarios.session.GridReport` and the
    :class:`FaultLog` of everything injected.  A scheduled kill is a
    worker death like any other, and ``timeout`` is the lease deadline (a
    dropped lease costs its holder one kill and one replacement).  A
    crash schedule without a ``journal`` gets a temporary one (a crash
    without a WAL would simply lose the batch), and with a journal the
    backend gives its workers a reconnect window.  Silent workers are
    dropped after :data:`HEARTBEAT_TIMEOUT` seconds; the startup window
    is the backend's default.  There is deliberately
    *no* fallback backend: a chaos run must prove the fabric itself
    finishes the grid, not that a fallback backend can cover for it.
    """
    from repro.cluster.backend import ClusterBackend
    from repro.scenarios.session import GridSession

    if schedule.drop_fraction > 0 and timeout is None:
        raise ChaosError(
            "drop_fraction needs a timeout: a dropped lease is only re-run "
            "when its lease expires"
        )
    runner_faults = schedule.slow_runner_ms > 0 or schedule.fail_fraction > 0
    if runner is not None and runner_faults:
        raise ChaosError(
            "pass either runner= or the schedule's runner-fault knobs "
            "(slow_runner_ms / fail_fraction), not both"
        )
    if runner is None:
        runner = chaos_runner if runner_faults else None

    log = log if log is not None else FaultLog()
    saved_env = {key: os.environ.get(key)
                 for key in (ENV_SLOW_MS, ENV_FAIL_FRACTION, ENV_SEED)}
    temp_journal: str | None = None
    if schedule.crashes() and journal is None:
        fd, temp_journal = tempfile.mkstemp(prefix="repro-chaos-",
                                            suffix=".wal")
        os.close(fd)
        journal = temp_journal
    try:
        if runner_faults:
            os.environ[ENV_SLOW_MS] = str(schedule.slow_runner_ms)
            os.environ[ENV_FAIL_FRACTION] = str(schedule.fail_fraction)
            os.environ[ENV_SEED] = str(schedule.seed)
        backend = ClusterBackend(
            local_workers=local_workers,
            heartbeat_timeout=HEARTBEAT_TIMEOUT,
            journal=journal,
            fallback=None,
            wire_faults=WireFaults(schedule, log),
        )
        controller = ChaosController(schedule, log).attach(backend)
        session_kwargs = {} if runner is None else {"runner": runner}
        session = GridSession(backend, sink, timeout=timeout,
                              retries=retries, collect=collect,
                              strict=False, **session_kwargs)
        try:
            with backend:
                controller.start()
                report = session.run(scenarios)
        finally:
            controller.stop()
        return report, log
    finally:
        for key, value in saved_env.items():
            if value is None:
                os.environ.pop(key, None)
            else:
                os.environ[key] = value
        if temp_journal is not None:
            try:
                os.unlink(temp_journal)
            except OSError:
                pass
