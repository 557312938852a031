"""Parameter-grid expansion and pluggable scenario execution.

:func:`expand_grid` turns a base scenario plus axes into the cross product
of scenarios; :func:`run_scenarios` and :func:`run_grid` are thin façades
over :class:`~repro.scenarios.session.GridSession`, which wires an
:class:`~repro.scenarios.backends.ExecutionBackend` (``"serial"``,
``"processes"``, ``"cluster"``), a :class:`~repro.scenarios.sinks.ResultSink`
(``"memory"``, JSONL, SQLite) and an optional content-addressed
:class:`~repro.scenarios.cache.ScenarioCache` together.

Expansion order and results are deterministic: axes are iterated in sorted
key order, values in the order given, sinks receive outcomes in input order
whatever the backend's completion order, and the engine itself is a
deterministic discrete-event simulation — so a grid run with
``backend="processes"`` returns exactly the same results as a serial run.
"""

from __future__ import annotations

import itertools
import json
from pathlib import Path
from typing import Any, Callable, Mapping, Sequence

from repro.errors import ScenarioError
from repro.scenarios.backends import ExecutionBackend
from repro.scenarios.cache import ScenarioCache
from repro.scenarios.session import GridSession, ProgressEvent
from repro.scenarios.sinks import ResultSink
from repro.scenarios.spec import Scenario


def _axis_label(key: str, value: Any) -> str:
    if isinstance(value, (list, tuple, dict)):
        return f"{key}=..."
    return f"{key}={value}"


def expand_grid(base: Scenario,
                axes: Mapping[str, Sequence[Any]]) -> list[Scenario]:
    """The cross product of ``axes`` applied over ``base``.

    Axis keys are scenario field names, with dotted keys reaching into dict
    fields (``"engine.checkpoint_interval"``, ``"workload_params.rate_per_source"``).
    Keys are iterated in sorted order and values in the given order, so the
    expansion is deterministic.  Each produced scenario gets a ``name``
    recording its overrides (unless the axis overrides ``name`` itself).

    >>> grid = expand_grid(Scenario(), {"budget": [0, 2], "duration": [10.0]})
    >>> [s.budget for s in grid]
    [0, 2]
    """
    if not axes:
        raise ScenarioError("expand_grid() needs at least one axis")
    keys = sorted(axes)
    for key in keys:
        values = axes[key]
        if not isinstance(values, Sequence) or isinstance(values, (str, bytes)):
            raise ScenarioError(
                f"grid axis {key!r} must be a list of values, got "
                f"{type(values).__name__}"
            )
        if not values:
            raise ScenarioError(f"grid axis {key!r} is empty")
    scenarios: list[Scenario] = []
    for combo in itertools.product(*(axes[key] for key in keys)):
        overrides = dict(zip(keys, combo))
        scenario = base.with_overrides(**overrides)
        if "name" not in overrides:
            label = ",".join(_axis_label(k, v) for k, v in sorted(overrides.items()))
            prefix = f"{base.name}/" if base.name else ""
            scenario = scenario.with_overrides(name=f"{prefix}{label}")
        scenarios.append(scenario)
    return scenarios


def load_json(path: str) -> Any:
    """The parsed JSON document at ``path`` (:class:`ScenarioError` if not)."""
    try:
        return json.loads(Path(path).read_text())
    except OSError as exc:
        raise ScenarioError(f"cannot read {path!r}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"{path!r} is not valid JSON: {exc}") from None


def scenarios_from_document(
        document: Any, what: str = "a grid JSON document") -> list[Scenario]:
    """The scenarios a grid document names.

    A grid document is either an explicit ``{"scenarios": [...]}`` list or
    a ``{"base": {...}, "axes": {...}}`` cross product (``axes`` optional).
    It is what ``grid``/``submit``/``chaos`` files hold and what a sweep
    ``submit`` message carries; ``what`` names the offender in errors.

    >>> doc = {"base": {"duration": 10.0}, "axes": {"budget": [0, 2]}}
    >>> [s.budget for s in scenarios_from_document(doc)]
    [0, 2]
    """
    if not isinstance(document, Mapping):
        raise ScenarioError(f"{what} must be an object")
    if "scenarios" in document:
        raw = document["scenarios"]
        if not isinstance(raw, list) or not raw:
            raise ScenarioError(
                "'scenarios' must be a non-empty list of scenario objects"
            )
        return [Scenario.from_dict(item) for item in raw]
    if "base" in document:
        base = Scenario.from_dict(document["base"])
        axes = document.get("axes") or {}
        if not isinstance(axes, Mapping):
            raise ScenarioError(
                f"'axes' must be an object of value lists, got "
                f"{type(axes).__name__}"
            )
        return expand_grid(base, axes) if axes else [base]
    raise ScenarioError(
        f"{what} needs either 'scenarios' or 'base' (+ 'axes')"
    )


def run_scenarios(scenarios: Sequence[Scenario], *,
                  backend: "str | ExecutionBackend | None" = None,
                  sink: "str | ResultSink | None" = None,
                  cache: "ScenarioCache | str | None" = None,
                  timeout: float | None = None,
                  retries: int = 1,
                  progress: Callable[[ProgressEvent], None] | None = None,
                  resume: bool = False,
                  strict: bool = True) -> list:
    """Execute ``scenarios`` in order; outcomes line up with the input.

    ``backend`` selects the execution strategy (``"serial"`` by default,
    ``"processes"`` for local worker processes with a per-scenario
    ``timeout`` and ``retries`` after a worker death or timeout, or
    ``"cluster"``; one named here is shut down before this returns);
    ``sink`` streams outcomes incrementally (memory, JSONL, SQLite) and
    ``cache`` skips already-simulated cells by content digest.  Because
    runs are deterministic, the results do not depend on the backend.

    With ``strict=True`` (the default) the first failed cell raises
    :class:`ScenarioError` once the grid has finished and the sink holds
    every outcome; with ``strict=False`` failed cells appear in the
    returned list as structured
    :class:`~repro.scenarios.backends.CellError`\\ s.

    Custom ``register()`` entries and runners must live in an importable
    module to be portable: outside Linux, and on remote cluster hosts,
    workers import modules afresh rather than inheriting this process's
    memory, so registrations made only in a ``__main__`` script are not
    visible there.
    """
    session = GridSession(backend=backend, sink=sink, cache=cache,
                          timeout=timeout, retries=retries, progress=progress,
                          resume=resume, strict=strict)
    return session.run(scenarios).outcomes


def run_grid(base: Scenario, axes: Mapping[str, Sequence[Any]] | None = None, *,
             backend: "str | ExecutionBackend | None" = None,
             sink: "str | ResultSink | None" = None,
             cache: "ScenarioCache | str | None" = None,
             timeout: float | None = None,
             retries: int = 1,
             progress: Callable[[ProgressEvent], None] | None = None,
             resume: bool = False,
             strict: bool = True) -> list:
    """Expand ``base`` over ``axes`` and execute every combination.

    With ``axes=None``, runs just ``base``.  See :func:`expand_grid` for the
    axis syntax and :func:`run_scenarios` for the execution keywords
    (``backend``/``sink``/``cache``/``timeout``/``retries``/``progress``/
    ``resume``/``strict``)::

        run_grid(base, {"budget": [0, 2, 4]},
                 backend="processes",
                 sink=JsonlSink("results.jsonl"),
                 cache=ScenarioCache("~/.cache/repro-grid"))
    """
    scenarios = expand_grid(base, axes) if axes else [base]
    return run_scenarios(scenarios, backend=backend, sink=sink, cache=cache,
                         timeout=timeout, retries=retries, progress=progress,
                         resume=resume, strict=strict)
