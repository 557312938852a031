"""The declarative scenario specification: frozen, JSON-serializable dataclasses.

A :class:`Scenario` captures everything one end-to-end PPA experiment needs —
which workload (or explicit topology), source rates, which planner under
which budget, the engine configuration, the failure schedule and the run
duration — as plain data.  ``to_dict()``/``from_dict()`` round-trip through
JSON exactly, so scenarios can live in files, be shipped to worker processes
and be expanded into parameter grids.

>>> from repro.scenarios import Scenario, FailureSpec
>>> s = Scenario(workload="synthetic", planner="greedy", budget=4,
...              failures=(FailureSpec("correlated", at=45.0),))
>>> Scenario.from_dict(s.to_dict()) == s
True
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from typing import Any, Mapping, Sequence

from repro.errors import ScenarioError
from repro.topology.graph import StreamEdge, Topology
from repro.topology.operators import OperatorKind, OperatorSpec
from repro.topology.partitioning import Partitioning


def _jsonify(value: Any) -> Any:
    """Normalise ``value`` to JSON-native types (tuples become lists)."""
    if isinstance(value, Mapping):
        return {str(k): _jsonify(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonify(v) for v in value]
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    raise ScenarioError(
        f"scenario parameters must be JSON-serializable, got {type(value).__name__}"
    )


def _check_keys(kind: str, data: Mapping[str, Any], allowed: Sequence[str]) -> None:
    unknown = sorted(set(data) - set(allowed))
    if unknown:
        raise ScenarioError(
            f"unknown {kind} field(s) {unknown}; allowed: {sorted(allowed)}"
        )


#: The keys a ``Scenario.quality`` mapping may carry (all in seconds).
QUALITY_KEYS = ("measure_from", "measure_until")


@dataclass(frozen=True)
class OperatorDef:
    """Serializable description of one operator of a :class:`TopologyRecipe`."""

    name: str
    parallelism: int
    kind: str = "independent"
    selectivity: float = 1.0
    task_weights: tuple[float, ...] = ()

    def to_spec(self) -> OperatorSpec:
        """The validated :class:`~repro.topology.operators.OperatorSpec`."""
        try:
            kind = OperatorKind(self.kind)
        except ValueError:
            choices = ", ".join(repr(k.value) for k in OperatorKind)
            raise ScenarioError(
                f"operator {self.name!r}: unknown kind {self.kind!r}; one of {choices}"
            ) from None
        return OperatorSpec(self.name, self.parallelism, kind,
                            selectivity=self.selectivity,
                            task_weights=self.task_weights)

    def to_dict(self) -> dict[str, Any]:
        """JSON-native representation."""
        out: dict[str, Any] = {"name": self.name, "parallelism": self.parallelism,
                               "kind": self.kind, "selectivity": self.selectivity}
        if self.task_weights:
            out["task_weights"] = list(self.task_weights)
        return out

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "OperatorDef":
        """Inverse of :meth:`to_dict` (rejects unknown keys)."""
        _check_keys("operator", data, ("name", "parallelism", "kind",
                                       "selectivity", "task_weights"))
        return cls(
            name=data["name"], parallelism=int(data["parallelism"]),
            kind=data.get("kind", "independent"),
            selectivity=float(data.get("selectivity", 1.0)),
            task_weights=tuple(float(w) for w in data.get("task_weights", ())),
        )


@dataclass(frozen=True)
class EdgeDef:
    """Serializable description of one stream edge of a :class:`TopologyRecipe`."""

    upstream: str
    downstream: str
    pattern: str = "full"

    def to_edge(self) -> StreamEdge:
        """The validated :class:`~repro.topology.graph.StreamEdge`."""
        try:
            pattern = Partitioning(self.pattern)
        except ValueError:
            choices = ", ".join(repr(p.value) for p in Partitioning)
            raise ScenarioError(
                f"edge {self.upstream!r}->{self.downstream!r}: unknown pattern "
                f"{self.pattern!r}; one of {choices}"
            ) from None
        return StreamEdge(self.upstream, self.downstream, pattern)

    def to_dict(self) -> dict[str, Any]:
        """JSON-native representation."""
        return {"upstream": self.upstream, "downstream": self.downstream,
                "pattern": self.pattern}

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "EdgeDef":
        """Inverse of :meth:`to_dict` (rejects unknown keys)."""
        _check_keys("edge", data, ("upstream", "downstream", "pattern"))
        return cls(data["upstream"], data["downstream"],
                   data.get("pattern", "full"))


@dataclass(frozen=True)
class TopologyRecipe:
    """A serializable topology blueprint: operators plus edges.

    Unlike :class:`~repro.topology.graph.Topology` (validated, with cached
    adjacency), a recipe is pure data that survives JSON round-trips;
    :meth:`build` materialises and validates it.
    """

    operators: tuple[OperatorDef, ...]
    edges: tuple[EdgeDef, ...]

    def build(self) -> Topology:
        """Materialise the validated :class:`Topology`."""
        return Topology([op.to_spec() for op in self.operators],
                        [e.to_edge() for e in self.edges])

    def to_dict(self) -> dict[str, Any]:
        """JSON-native representation."""
        return {"operators": [op.to_dict() for op in self.operators],
                "edges": [e.to_dict() for e in self.edges]}

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "TopologyRecipe":
        """Inverse of :meth:`to_dict` (rejects unknown keys)."""
        _check_keys("topology", data, ("operators", "edges"))
        return cls(
            operators=tuple(OperatorDef.from_dict(op) for op in data.get("operators", ())),
            edges=tuple(EdgeDef.from_dict(e) for e in data.get("edges", ())),
        )

    @classmethod
    def from_topology(cls, topology: Topology) -> "TopologyRecipe":
        """Reverse-engineer a recipe from a built topology (for serialization)."""
        return cls(
            operators=tuple(
                OperatorDef(spec.name, spec.parallelism, spec.kind.value,
                            spec.selectivity, spec.task_weights)
                for spec in topology.operators()
            ),
            edges=tuple(
                EdgeDef(e.upstream, e.downstream, e.pattern.value)
                for e in topology.edges()
            ),
        )


@dataclass(frozen=True)
class FailureSpec:
    """One scheduled failure-injection event.

    ``model`` names an entry of the failure-model registry; ``params`` are
    forwarded to it (e.g. ``{"operator": "O2", "index": 0}`` for
    ``"single-task"``, or ``{"k": 5, "seed": 3}`` for ``"random-k"``).
    """

    model: str
    at: float = 45.0
    params: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.at < 0:
            raise ScenarioError(f"failure time must be >= 0, got {self.at}")
        object.__setattr__(self, "params", _jsonify(self.params))

    def to_dict(self) -> dict[str, Any]:
        """JSON-native representation."""
        return {"model": self.model, "at": self.at, "params": _jsonify(self.params)}

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "FailureSpec":
        """Inverse of :meth:`to_dict` (rejects unknown keys)."""
        _check_keys("failure", data, ("model", "at", "params"))
        if "model" not in data:
            raise ScenarioError(f"failure spec needs a 'model' field, got {dict(data)!r}")
        return cls(model=data["model"], at=float(data.get("at", 45.0)),
                   params=dict(data.get("params", {})))


@dataclass(frozen=True)
class Scenario:
    """One declarative end-to-end experiment: workload, plan, failures, run.

    Fields
    ------
    name:
        Free-form label carried into results and reports.
    workload:
        Name in the workload registry (``"synthetic"``, ``"worldcup"``,
        ``"traffic"``, ``"zipf"``, ``"custom"``, ...).  Empty (the default)
        resolves to ``"custom"`` when an explicit ``topology`` is given and
        to ``"synthetic"`` otherwise; an explicitly named workload is never
        rewritten.
    workload_params:
        Keyword arguments for the workload factory (rates, windows, scales).
    topology:
        Optional explicit :class:`TopologyRecipe`.  When set, the workload
        defaults to ``"custom"`` semantics: the recipe is built and run with
        generic windowed-selectivity logic and uniform-rate sources.
    planner / planner_params:
        Name in the planner registry plus factory keyword arguments.
    objective:
        ``"OF"`` (Output Fidelity, the paper's metric) or ``"IC"``.
    budget / budget_fraction:
        Active-replication budget as an absolute task count or as a fraction
        of the topology's tasks (mutually exclusive; both unset means 0).
    engine:
        :class:`~repro.engine.config.EngineConfig` overrides, plus the
        special keys ``"costs"`` (cost-model overrides) and
        ``"source_replay_window_batches"``.
    recovery:
        Fault-tolerance scheme: any name registered in
        :data:`~repro.engine.recovery.RECOVERY_SCHEMES`.  Empty (the
        default) keeps the engine's default scheme (``"ppa"``) *and* is
        omitted from ``to_dict()``, so the scenario digest — and therefore
        every existing cache entry — is unchanged for scenarios that never
        select a scheme.
    recovery_params:
        Keyword arguments for the scheme factory (e.g.
        ``{"fidelity_bound": 0.2}`` for ``"approximate-ft"``).  Empty is
        omitted from ``to_dict()``, same digest rule as ``recovery``.
    quality:
        Tentative-output quality measurement settings (the paper's
        Fig. 12/13 axis).  Non-empty enables the measurement: the runner
        compares the run's sink outputs against a failure-free baseline
        and reports the mean accuracy as ``ScenarioResult.output_quality``.
        Keys: ``measure_from`` (seconds; default: the first failure time)
        and ``measure_until`` (default: near the run's end).  Empty (the
        default) skips the baseline run entirely and is omitted from
        ``to_dict()``, same digest rule as ``recovery``.
    failures:
        The failure schedule, earliest first.
    duration:
        Virtual seconds of stream input per run.
    seed:
        Base seed for seeded failure models and randomised workloads.
    """

    name: str = ""
    workload: str = ""
    workload_params: dict[str, Any] = field(default_factory=dict)
    topology: TopologyRecipe | None = None
    planner: str = "structure-aware"
    planner_params: dict[str, Any] = field(default_factory=dict)
    objective: str = "OF"
    budget: int | None = None
    budget_fraction: float | None = None
    engine: dict[str, Any] = field(default_factory=dict)
    recovery: str = ""
    recovery_params: dict[str, Any] = field(default_factory=dict)
    quality: dict[str, Any] = field(default_factory=dict)
    failures: tuple[FailureSpec, ...] = ()
    duration: float = 60.0
    seed: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "workload_params", _jsonify(self.workload_params))
        object.__setattr__(self, "planner_params", _jsonify(self.planner_params))
        object.__setattr__(self, "engine", _jsonify(self.engine))
        object.__setattr__(self, "recovery_params", _jsonify(self.recovery_params))
        object.__setattr__(self, "quality", _jsonify(self.quality))
        object.__setattr__(self, "failures", tuple(self.failures))
        if not self.workload:
            # Unset workload: an explicit recipe means "run my topology",
            # otherwise default to the paper's Fig. 6 workload.  Explicitly
            # named workloads are never rewritten (a topology combined with
            # a non-"custom" name is rejected at run time instead).
            object.__setattr__(
                self, "workload",
                "custom" if self.topology is not None else "synthetic",
            )
        if self.budget is not None and self.budget_fraction is not None:
            raise ScenarioError("set budget or budget_fraction, not both")
        if self.budget is not None and self.budget < 0:
            raise ScenarioError(f"budget must be >= 0, got {self.budget}")
        if self.budget_fraction is not None and not 0.0 <= self.budget_fraction <= 1.0:
            raise ScenarioError(
                f"budget_fraction must be within [0, 1], got {self.budget_fraction}"
            )
        if self.duration <= 0:
            raise ScenarioError(f"duration must be positive, got {self.duration}")
        if self.objective not in ("OF", "IC"):
            raise ScenarioError(
                f"objective must be 'OF' or 'IC', got {self.objective!r}"
            )
        if not isinstance(self.recovery, str):
            raise ScenarioError(
                f"recovery must be a scheme name string, got "
                f"{type(self.recovery).__name__}"
            )
        # Checked here, not only when the runner measures: a misspelt key
        # would otherwise cost every grid cell its whole simulation first.
        if self.quality:
            _check_keys("quality", self.quality, QUALITY_KEYS)
        for key, value in self.quality.items():
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise ScenarioError(
                    f"quality field {key!r} must be a number of seconds, "
                    f"got {value!r}"
                )

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def to_dict(self) -> dict[str, Any]:
        """JSON-native representation; :meth:`from_dict` is the exact inverse."""
        out: dict[str, Any] = {
            "name": self.name,
            "workload": self.workload,
            "workload_params": _jsonify(self.workload_params),
            "planner": self.planner,
            "planner_params": _jsonify(self.planner_params),
            "objective": self.objective,
            "budget": self.budget,
            "budget_fraction": self.budget_fraction,
            "engine": _jsonify(self.engine),
            "failures": [f.to_dict() for f in self.failures],
            "duration": self.duration,
            "seed": self.seed,
        }
        if self.topology is not None:
            out["topology"] = self.topology.to_dict()
        if self.recovery:
            # Omitted when default so the scenario digest (and every cache
            # entry keyed on it) is unchanged for scheme-less scenarios.
            out["recovery"] = self.recovery
        if self.recovery_params:
            # Same digest rule: only scenarios that set scheme parameters
            # carry them.
            out["recovery_params"] = _jsonify(self.recovery_params)
        if self.quality:
            # Same digest rule: only quality-measuring scenarios carry it.
            out["quality"] = _jsonify(self.quality)
        return out

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "Scenario":
        """Build a scenario from :meth:`to_dict` output (rejects unknown keys)."""
        _check_keys("scenario", data, (
            "name", "workload", "workload_params", "topology", "planner",
            "planner_params", "objective", "budget", "budget_fraction",
            "engine", "recovery", "recovery_params", "quality", "failures",
            "duration", "seed",
        ))
        topology = data.get("topology")
        budget = data.get("budget")
        fraction = data.get("budget_fraction")
        return cls(
            name=data.get("name", ""),
            workload=data.get("workload", ""),
            workload_params=dict(data.get("workload_params", {})),
            topology=TopologyRecipe.from_dict(topology) if topology is not None else None,
            planner=data.get("planner", "structure-aware"),
            planner_params=dict(data.get("planner_params", {})),
            objective=data.get("objective", "OF"),
            budget=int(budget) if budget is not None else None,
            budget_fraction=float(fraction) if fraction is not None else None,
            engine=dict(data.get("engine", {})),
            recovery=str(data.get("recovery", "")),
            recovery_params=dict(data.get("recovery_params", {})),
            quality=dict(data.get("quality", {})),
            failures=tuple(FailureSpec.from_dict(f) for f in data.get("failures", ())),
            duration=float(data.get("duration", 60.0)),
            seed=int(data.get("seed", 0)),
        )

    def to_json(self, **dumps_kwargs: Any) -> str:
        """The scenario as a JSON document."""
        return json.dumps(self.to_dict(), **dumps_kwargs)

    @classmethod
    def from_json(cls, text: str) -> "Scenario":
        """Parse a scenario from a JSON document."""
        data = json.loads(text)
        if not isinstance(data, dict):
            raise ScenarioError(
                f"a scenario JSON document must be an object, got {type(data).__name__}"
            )
        return cls.from_dict(data)

    # ------------------------------------------------------------------
    # Derivation
    # ------------------------------------------------------------------
    def with_overrides(self, **overrides: Any) -> "Scenario":
        """A copy with fields replaced; dotted keys update dict fields.

        ``engine.checkpoint_interval=5.0`` replaces one key inside the
        ``engine`` mapping while keeping the rest — the form grid axes use.
        """
        plain: dict[str, Any] = {}
        nested: dict[str, dict[str, Any]] = {}
        for key, value in overrides.items():
            if "." in key:
                head, _, tail = key.partition(".")
                nested.setdefault(head, {})[tail] = value
            else:
                plain[key] = value
        for head, updates in nested.items():
            # A plain override of the same field ("engine": {...}) is the new
            # base; the dotted keys then apply on top of it.
            current = plain.get(head, getattr(self, head, None))
            if not isinstance(current, dict):
                raise ScenarioError(
                    f"dotted override {head!r} requires a mapping field; "
                    f"Scenario.{head} is {type(current).__name__}"
                )
            merged = dict(current)
            merged.update(updates)
            plain[head] = merged
        try:
            return replace(self, **plain)
        except TypeError as exc:
            raise ScenarioError(f"invalid scenario override: {exc}") from None
