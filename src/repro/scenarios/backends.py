"""Pluggable execution backends for grid runs.

An :class:`ExecutionBackend` takes a list of scenarios plus a runner
callable and yields ``(index, outcome, attempts)`` triples, where an outcome
is either a :class:`~repro.scenarios.results.ScenarioResult` or a structured
:class:`CellError` — per-cell failures never crash the whole grid — and
``attempts`` counts how many times the cell was started (>1 when a dead
worker or an expired timeout forced a retry).  Triples may arrive in any
order (parallel backends yield in completion order);
:class:`~repro.scenarios.session.GridSession` reorders them before results
reach a sink, so every backend produces byte-identical output.

Backends are registry-backed like planners and workloads
(:data:`EXECUTION_BACKENDS`).  ``"serial"`` runs in-process.  The two
parallel backends are one implementation, the worker fabric of
:mod:`repro.cluster` (loaded lazily, so the scenario layer stays light):
``"processes"`` is a loopback fleet of workers forked from this process,
and ``"cluster"`` a fleet of (possibly remote) worker agents.  Idle
workers lease the next pending cell, a cell whose worker dies or whose
timeout expires is retried while ``retries`` allows, and on both an
overrunning cell's local worker is killed and replaced.

Timeout semantics differ by necessity: the serial backend cannot preempt a
cell, so it flags the overrun after the fact.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Callable, Iterator, Sequence

from repro.errors import ScenarioError
from repro.registry import Registry
from repro.scenarios.results import ScenarioResult
from repro.scenarios.runner import run_scenario
from repro.scenarios.spec import Codec, Field, Record, Scenario, nested, text

#: A scenario runner: maps one scenario to its result (a module-level
#: importable callable for the parallel backends, which send it to their
#: workers by name; :func:`~repro.scenarios.runner.run_scenario` is the
#: default).
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

    #: Grid positions of the last ``execute`` that ran on a fallback
    #: backend after a mid-grid degradation (see ``GridReport.degraded``);
    #: empty when the backend did it all.
    degraded_positions: tuple[int, ...] = ()

    def execute(self, scenarios: Sequence[Scenario], runner: Runner, *,
                timeout: float | None = None,
                retries: int = 1) -> Iterator[tuple]:
        """Yield ``(index, ScenarioResult | CellError, attempts)``, any order."""
        raise NotImplementedError

    def close(self) -> None:
        """Release what the backend holds (workers, ports); a no-op here."""

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


def _fabric_backend(name: str) -> Callable[..., ExecutionBackend]:
    """A factory for backend class ``name`` of :mod:`repro.cluster.backend`.

    Imported on first use, so the scenario layer never pays for (or
    breaks on) the cluster stack.
    """
    def make(*args: Any, **kwargs: Any) -> ExecutionBackend:
        from repro.cluster import backend

        return getattr(backend, name)(*args, **kwargs)

    return make


#: Execution-backend factories: ``fn() -> ExecutionBackend``.
EXECUTION_BACKENDS: Registry = Registry("execution backend")
EXECUTION_BACKENDS.register("serial")(SerialBackend)
EXECUTION_BACKENDS.register("processes")(_fabric_backend("ProcessBackend"))
EXECUTION_BACKENDS.register("cluster")(_fabric_backend("ClusterBackend"))


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
