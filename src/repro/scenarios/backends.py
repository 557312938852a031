"""Pluggable execution backends for grid runs.

An :class:`ExecutionBackend` takes a list of scenarios plus a runner
callable and yields ``(index, outcome, attempts)`` triples, where an outcome
is either a :class:`~repro.scenarios.results.ScenarioResult` or a structured
:class:`CellError` — per-cell failures never crash the whole grid — and
``attempts`` counts how many times the cell was started (>1 when a dead
worker forced a retry).  Triples may arrive in any order (parallel backends
yield in completion order, like ``as_completed``);
:class:`~repro.scenarios.session.GridSession` reorders them before results
reach a sink, so every backend produces byte-identical output.

Backends are registry-backed like planners and workloads
(:data:`EXECUTION_BACKENDS`): ``"serial"`` runs in-process,
``"processes"`` fans out over a ``ProcessPoolExecutor`` with work stealing
(a sliding submission window — each free worker picks up the next pending
cell), per-scenario timeouts and retry-once semantics when a worker process
dies, and ``"cluster"`` over a fleet of (possibly remote) worker agents
speaking NDJSON over TCP — see :mod:`repro.cluster`, loaded lazily so the
scenario layer stays light.

Timeout semantics differ by necessity: the serial backend cannot preempt a
cell, so it flags the overrun after the fact; the processes backend
force-kills the stuck workers and replaces the pool so remaining cells keep
full parallelism.  Unaffected in-flight cells are resubmitted on the fresh
pool.
"""

from __future__ import annotations

import multiprocessing
import os
import sys
import time
from collections import deque
from concurrent.futures import (
    FIRST_COMPLETED,
    BrokenExecutor,
    Executor,
    Future,
    ProcessPoolExecutor,
    wait,
)
from dataclasses import dataclass
from typing import Any, Callable, Iterator, Sequence

from repro.errors import ScenarioError
from repro.registry import Registry
from repro.scenarios.results import ScenarioResult
from repro.scenarios.runner import run_scenario
from repro.scenarios.spec import Codec, Field, Record, Scenario, nested, text

#: A scenario runner: maps one scenario to its result (picklable for
#: the processes backend; :func:`~repro.scenarios.runner.run_scenario`
#: is the default).
Runner = Callable[[Scenario], ScenarioResult]


@dataclass(frozen=True)
class CellError(Record):
    """One grid cell that did not produce a result.

    ``kind`` is ``"error"`` (the runner raised), ``"timeout"`` (the cell
    exceeded the per-scenario deadline) or ``"worker-death"`` (the worker
    process died — e.g. OOM-killed — and the retry budget is exhausted).
    Sinks, journals and the wire persist it through :meth:`to_dict`.
    """

    scenario: Scenario
    kind: str = "error"
    message: str = ""
    attempts: int = 1

    def render(self) -> str:
        """One-line human-readable summary."""
        label = self.scenario.name or self.scenario.workload
        note = f" after {self.attempts} attempts" if self.attempts > 1 else ""
        return f"[{self.kind}] {label}: {self.message}{note}"


CellError.codec = Codec(CellError, "cell error", "a cell error", (
    Field("scenario", nested(Scenario.from_dict), Record.to_dict),
    Field("kind", text),
    Field("message", text),
    Field("attempts", int),
), missing="cell error is missing the {0!r} field")


class ExecutionBackend:
    """Strategy for executing many independent scenario runs.

    Subclasses implement :meth:`execute`; everything else (caching, result
    ordering, sinks, progress) lives in
    :class:`~repro.scenarios.session.GridSession`, so backends stay small.
    """

    #: Registry key (also used in reprs and CLI flags).
    name = "?"

    def execute(self, scenarios: Sequence[Scenario], runner: Runner, *,
                timeout: float | None = None,
                retries: int = 1) -> Iterator[tuple]:
        """Yield ``(index, ScenarioResult | CellError, attempts)``, any order."""
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return f"{type(self).__name__}()"


def _error_outcome(scenario: Scenario, exc: BaseException,
                   attempts: int) -> CellError:
    return CellError(scenario, "error", f"{type(exc).__name__}: {exc}",
                     attempts)


class SerialBackend(ExecutionBackend):
    """Run every cell in-process, in input order (the default backend).

    Cannot preempt a running cell, so a per-scenario ``timeout`` is applied
    after the fact: the overrunning cell still completes but is reported as
    a ``"timeout"`` :class:`CellError`, matching the parallel backends.
    """

    name = "serial"

    def execute(self, scenarios: Sequence[Scenario], runner: Runner, *,
                timeout: float | None = None,
                retries: int = 1) -> Iterator[tuple[int, object, int]]:
        """Yield outcomes one by one, in input order."""
        for index, scenario in enumerate(scenarios):
            started = time.monotonic()
            try:
                result = runner(scenario)
            except Exception as exc:
                yield index, _error_outcome(scenario, exc, 1), 1
                continue
            elapsed = time.monotonic() - started
            if timeout is not None and elapsed > timeout:
                yield index, CellError(
                    scenario, "timeout",
                    f"cell took {elapsed:.2f}s, exceeding the {timeout:g}s "
                    f"timeout (serial backend cannot preempt)", 1), 1
            else:
                yield index, result, 1


class ProcessBackend(ExecutionBackend):
    """Fan cells out over a ``ProcessPoolExecutor``.

    True parallelism for CPU-bound engine runs.  A worker death (segfault,
    OOM kill, ``os._exit``) breaks the pool: the backend rebuilds it and
    retries each affected cell once (``retries=1``) before reporting a
    ``"worker-death"`` :class:`CellError`.  Timeouts kill the stuck pool to
    reclaim its workers.  Runner callables and custom registry entries must
    be importable in worker processes (see :func:`run_scenarios`).

    Cells are submitted through a sliding window of at most ``max_workers``
    in-flight futures — a completed future immediately frees a slot for
    the next pending cell (work stealing) — and results are yielded in
    completion order.  Per-cell deadlines are measured from submission,
    which coincides with start because the window never exceeds the pool
    width.  Each worker fills its own workload memo on first use (see
    :mod:`repro.scenarios.prebuilt`), so a workload that cannot be built
    fails only its own cells.
    """

    name = "processes"

    #: Poll interval while waiting with deadlines armed (seconds).
    _TICK = 0.05

    def __init__(self, max_workers: int | None = None):
        if max_workers is not None and max_workers < 1:
            raise ScenarioError(
                f"max_workers must be >= 1, got {max_workers}"
            )
        self.max_workers = max_workers

    @staticmethod
    def _method() -> str | None:
        # fork is only picked where it is actually safe: macOS lists it but
        # documents it as unreliable (Objective-C runtime aborts in forked
        # children), so other platforms get their default start method.
        if sys.platform.startswith("linux"):
            return "fork"
        return None

    def _new_pool(self, width: int) -> Executor:
        method = self._method()
        context = (multiprocessing.get_context(method)
                   if method is not None else None)
        return ProcessPoolExecutor(max_workers=width, mp_context=context)

    def _discard_pool(self, executor: Executor) -> None:
        """Shut down without waiting, force-killing stuck workers."""
        executor.shutdown(wait=False, cancel_futures=True)
        # Workers stuck in a timed-out cell would otherwise keep the
        # interpreter alive at exit; SIGKILL is safe because each cell is an
        # isolated, side-effect-free simulation.
        for process in list((getattr(executor, "_processes", None) or {}).values()):
            try:
                process.kill()
            except (OSError, ValueError):  # pragma: no cover - racing exit
                pass

    def execute(self, scenarios: Sequence[Scenario], runner: Runner, *,
                timeout: float | None = None,
                retries: int = 1) -> Iterator[tuple[int, object, int]]:
        """Yield outcomes in completion order over the process pool."""
        scenarios = list(scenarios)
        if not scenarios:
            return
        width = self.max_workers or min(32, (os.cpu_count() or 2))
        width = max(1, min(width, len(scenarios)))
        pending: deque[tuple[int, Scenario, int]] = deque(
            (i, s, 1) for i, s in enumerate(scenarios)
        )
        in_flight: dict[Future, tuple[int, Scenario, int, float | None]] = {}
        executor = self._new_pool(width)
        try:
            while pending or in_flight:
                # Top the window up (work stealing: any free slot takes the
                # next pending cell, whatever its grid position).
                while pending and len(in_flight) < width:
                    index, scenario, attempt = pending.popleft()
                    try:
                        future = executor.submit(runner, scenario)
                    except BrokenExecutor:
                        # The pool broke between completions; recreate it
                        # and charge no attempt to this innocent cell.
                        pending.appendleft((index, scenario, attempt))
                        self._discard_pool(executor)
                        executor = self._new_pool(width)
                        continue
                    deadline = (time.monotonic() + timeout
                                if timeout is not None else None)
                    in_flight[future] = (index, scenario, attempt, deadline)

                done, _ = wait(
                    in_flight, return_when=FIRST_COMPLETED,
                    timeout=self._TICK if timeout is not None else None,
                )
                broke = False
                for future in done:
                    index, scenario, attempt, _deadline = in_flight.pop(future)
                    try:
                        yield index, future.result(), attempt
                    except BrokenExecutor as exc:
                        broke = True
                        if attempt <= retries:
                            pending.append((index, scenario, attempt + 1))
                        else:
                            yield index, CellError(
                                scenario, "worker-death",
                                f"worker died running this cell "
                                f"({type(exc).__name__}: {exc})",
                                attempt), attempt
                    except Exception as exc:
                        yield index, _error_outcome(scenario, exc,
                                                    attempt), attempt
                if broke:
                    # A dead worker poisons every in-flight future of the
                    # pool; resubmit them (their attempt counts too — the
                    # culprit cannot be told apart) on a fresh pool.
                    for future, (index, scenario, attempt, _dl) in list(
                            in_flight.items()):
                        if attempt <= retries:
                            pending.append((index, scenario, attempt + 1))
                        else:
                            yield index, CellError(
                                scenario, "worker-death",
                                "worker pool died (retry budget exhausted)",
                                attempt), attempt
                    in_flight.clear()
                    self._discard_pool(executor)
                    executor = self._new_pool(width)
                    continue

                if timeout is None:
                    continue
                now = time.monotonic()
                expired = [f for f, (_i, _s, _a, dl) in in_flight.items()
                           if dl is not None and now >= dl and not f.done()]
                for future in expired:
                    index, scenario, attempt, _dl = in_flight.pop(future)
                    future.cancel()
                    yield index, CellError(
                        scenario, "timeout",
                        f"cell exceeded the {timeout:g}s timeout",
                        attempt), attempt
                if expired:
                    # Reclaim the stuck workers; in-flight siblings were not
                    # at fault, so they are resubmitted without charge.
                    for future, (index, scenario, attempt, _dl) in list(
                            in_flight.items()):
                        pending.append((index, scenario, attempt))
                    in_flight.clear()
                    self._discard_pool(executor)
                    executor = self._new_pool(width)
        finally:
            self._discard_pool(executor)

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return f"{type(self).__name__}(max_workers={self.max_workers})"


def _make_cluster_backend(**kwargs: Any) -> ExecutionBackend:
    """Factory for the ``"cluster"`` backend (multi-host worker fabric).

    Imported lazily so the scenario layer never pays for (or breaks on)
    the cluster stack; see :mod:`repro.cluster`.
    """
    from repro.cluster.backend import ClusterBackend

    return ClusterBackend(**kwargs)


#: Execution-backend factories: ``fn() -> ExecutionBackend``.
EXECUTION_BACKENDS: Registry = Registry("execution backend")
EXECUTION_BACKENDS.register("serial")(SerialBackend)
EXECUTION_BACKENDS.register("processes")(ProcessBackend)
EXECUTION_BACKENDS.register("cluster")(_make_cluster_backend)


def resolve_backend(spec: "str | ExecutionBackend | None") -> ExecutionBackend:
    """Coerce a backend name or instance into an :class:`ExecutionBackend`.

    ``None`` resolves to the serial backend; strings go through
    :data:`EXECUTION_BACKENDS`, so external backends registered there are
    addressable by name from scenarios, grids and the CLI.
    """
    if spec is None:
        return SerialBackend()
    if isinstance(spec, ExecutionBackend):
        return spec
    if isinstance(spec, str):
        return EXECUTION_BACKENDS.get(spec)()
    raise ScenarioError(
        f"backend must be a name or an ExecutionBackend, got "
        f"{type(spec).__name__}"
    )
