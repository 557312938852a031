"""The declarative scenario specification: frozen, JSON-serializable dataclasses.

A :class:`Scenario` captures everything one end-to-end PPA experiment needs —
which workload (or explicit topology), source rates, which planner under
which budget, the engine configuration, the failure schedule and the run
duration — as plain data.  ``to_dict()``/``from_dict()`` round-trip through
JSON exactly, so scenarios can live in files, be shipped to worker processes
and be expanded into parameter grids.

Every serializable record — these specs, the run results of
:mod:`repro.scenarios.results` and
:class:`~repro.scenarios.backends.CellError` — is a :class:`Record` whose
``to_dict``/``from_dict`` come from one :class:`Codec` reading the record's
field table.  A malformed document raises :class:`ScenarioError` naming the
offending field.

>>> from repro.scenarios import Scenario, FailureSpec
>>> s = Scenario(workload="synthetic", planner="greedy", budget=4,
...              failures=(FailureSpec("correlated", at=45.0),))
>>> Scenario.from_dict(s.to_dict()) == s
True
"""

from __future__ import annotations

import dataclasses
import json
from collections.abc import Callable, Mapping, Sequence
from dataclasses import dataclass, field, replace
from functools import partial
from operator import attrgetter, is_, not_
from typing import Any, ClassVar, NamedTuple, TypeVar

from repro.errors import ScenarioError
from repro.topology.graph import StreamEdge, Topology
from repro.topology.operators import OperatorKind, OperatorSpec, TaskId
from repro.topology.partitioning import Partitioning


def _jsonify(value: Any) -> Any:
    """Normalise ``value`` to JSON-native types (tuples become lists)."""
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, Mapping):
        return {str(k): _jsonify(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonify(v) for v in value]
    raise ScenarioError(
        f"scenario parameters must be JSON-serializable, got {type(value).__name__}"
    )


def _check_keys(kind: str, data: Mapping[str, Any], allowed: Sequence[str]) -> None:
    unknown = sorted(set(data) - set(allowed))
    if unknown:
        raise ScenarioError(
            f"unknown {kind} field(s) {unknown}; allowed: {sorted(allowed)}"
        )


# ----------------------------------------------------------------------
# The record codec
# ----------------------------------------------------------------------
class Malformed(ValueError):
    """A decoder's complaint, phrased to follow the field name."""


def _expect(types: Any, expected: str,
            convert: Callable[[Any], Any]) -> Callable[[Any], Any]:
    """A decoder: ``convert(value)`` once ``value`` is one of ``types``."""
    def decode(value: Any) -> Any:
        if not isinstance(value, types):
            raise Malformed(f"must be {expected}, got {type(value).__name__}")
        return convert(value)
    return decode


text = _expect(str, "a string", str)
mapping = _expect(Mapping, "an object", dict)


def list_of(decode: Callable[[Any], Any]) -> Callable[[Any], tuple]:
    """Decode a JSON list into a tuple, item by item."""
    return _expect((list, tuple), "a list", lambda items: tuple(map(decode, items)))


def nested(decode: Callable[[Any], Any]) -> Callable[[Any], Any]:
    """Decode a nested JSON object with ``decode`` (a ``from_dict``)."""
    return _expect(Mapping, "an object", decode)


def task_ref(value: Any) -> TaskId:
    """Decode the serialized ``"Op[i]"`` task spelling."""
    task = TaskId.parse(value) if isinstance(value, str) else None
    if task is None:
        raise ValueError(f"malformed task reference {value!r} (expected 'Op[i]')")
    return task


def to_dicts(records: Sequence["Record"]) -> list[dict[str, Any]]:
    """Encode records as a JSON list."""
    return [record.to_dict() for record in records]


#: Omit-when predicate of optional fields whose default is ``None``.
unset = partial(is_, None)
_ABSENT = object()


class Field(NamedTuple):
    """One row of a record's field table.

    ``decode`` turns the JSON value into the attribute (``None``: a derived
    key, accepted on input and recomputed); ``encode`` turns the attribute
    into JSON (``None``: as is); ``nullable`` admits ``null``; ``omit``
    drops the key when true for the attribute, so adding an optional field
    keeps the bytes (and digests) of records that never set it.
    """

    name: str
    decode: Callable[[Any], Any] | None
    encode: Callable[[Any], Any] | None = None
    nullable: bool = False
    omit: Callable[[Any], bool] | None = None


class Codec:
    """``to_dict``/``from_dict`` of one dataclass, driven by its field table.

    The table order is the emission order.  A field without a dataclass
    default is required; an absent optional field takes the default.  Every
    decode failure is a :class:`ScenarioError`: ``kind`` names the record
    in unknown-key errors, ``label`` and ``prefix`` name a field as
    ``<label> field '<prefix><name>'``, ``what`` a document that is not an
    object, and ``missing`` formats a missing field from its path and the
    document.
    """

    def __init__(self, cls: type, kind: str, what: str, fields: Sequence[Field],
                 *, label: str = "", missing: str = "", prefix: str = ""):
        self.cls, self.kind, self.what, self.prefix = cls, kind, what, prefix
        self.label = label or kind
        self.missing = missing or f"{self.label} document is missing the {{0!r}} field"
        self.keys = frozenset(f.name for f in fields)
        required = {f.name for f in dataclasses.fields(cls)
                    if f.default is dataclasses.MISSING
                    and f.default_factory is dataclasses.MISSING}
        self.inputs = tuple((f.name, f.decode, f.nullable, f.name in required)
                            for f in fields if f.decode is not None)
        self.outputs = tuple((f.name, f.encode, f.omit) for f in fields)
        self.values = attrgetter(*(f.name for f in fields))

    def encode(self, record: Any) -> dict[str, Any]:
        """The JSON-native dict of ``record``, fresh containers throughout."""
        out = {}
        for (name, encode, omit), value in zip(self.outputs, self.values(record)):
            if omit is None or not omit(value):
                out[name] = value if encode is None else encode(value)
        return out

    def decode(self, data: Any) -> Any:
        """The record ``data`` describes; :class:`ScenarioError` if malformed."""
        if not isinstance(data, Mapping):
            raise ScenarioError(
                f"{self.what} must be an object, got {type(data).__name__}")
        if not self.keys.issuperset(data):
            _check_keys(self.kind, data, self.keys)
        kwargs = {}
        for name, decode, nullable, required in self.inputs:
            value = data.get(name, _ABSENT)
            if value is _ABSENT:
                if required:
                    raise ScenarioError(
                        self.missing.format(self.prefix + name, dict(data)))
                continue
            try:
                if value is not None:
                    value = decode(value)
                elif not nullable:
                    raise Malformed("must not be null")
            except (TypeError, ValueError, OverflowError) as exc:
                sep = " " if isinstance(exc, Malformed) else ": "
                raise ScenarioError(f"{self.label} field "
                                    f"{self.prefix + name!r}{sep}{exc}") from None
            kwargs[name] = value
        return self.cls(**kwargs)


R = TypeVar("R", bound="Record")


class Record:
    """A dataclass serialized through the :class:`Codec` in ``codec``."""

    codec: ClassVar[Codec]

    def to_dict(self) -> dict[str, Any]:
        """JSON-native representation; :meth:`from_dict` is the exact inverse."""
        return self.codec.encode(self)

    @classmethod
    def from_dict(cls: type[R], data: Mapping[str, Any]) -> R:
        """Inverse of :meth:`to_dict`.

        Derived keys are recomputed, unknown keys rejected, and a malformed
        value raises :class:`ScenarioError` naming its field.
        """
        return cls.codec.decode(data)


#: The keys a ``Scenario.quality`` mapping may carry (all in seconds).
QUALITY_KEYS = ("measure_from", "measure_until")


@dataclass(frozen=True)
class OperatorDef(Record):
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


OperatorDef.codec = Codec(OperatorDef, "operator", "an operator", (
    Field("name", text),
    Field("parallelism", int),
    Field("kind", text),
    Field("selectivity", float),
    Field("task_weights", list_of(float), list, omit=not_),
))


@dataclass(frozen=True)
class EdgeDef(Record):
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


EdgeDef.codec = Codec(EdgeDef, "edge", "an edge", (
    Field("upstream", text),
    Field("downstream", text),
    Field("pattern", text),
))


@dataclass(frozen=True)
class TopologyRecipe(Record):
    """A serializable topology blueprint: operators plus edges.

    Unlike :class:`~repro.topology.graph.Topology` (validated, with cached
    adjacency), a recipe is pure data that survives JSON round-trips;
    :meth:`build` materialises and validates it.
    """

    operators: tuple[OperatorDef, ...] = ()
    edges: tuple[EdgeDef, ...] = ()

    def build(self) -> Topology:
        """Materialise the validated :class:`Topology`."""
        return Topology([op.to_spec() for op in self.operators],
                        [e.to_edge() for e in self.edges])

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


TopologyRecipe.codec = Codec(TopologyRecipe, "topology", "a topology", (
    Field("operators", list_of(OperatorDef.from_dict), to_dicts),
    Field("edges", list_of(EdgeDef.from_dict), to_dicts),
))


@dataclass(frozen=True)
class FailureSpec(Record):
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


FailureSpec.codec = Codec(FailureSpec, "failure", "a failure spec", (
    Field("model", text),
    Field("at", float),
    Field("params", mapping, _jsonify),
), missing="failure spec needs a {0!r} field, got {1!r}")


@dataclass(frozen=True)
class Scenario(Record):
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

    def to_json(self, **dumps_kwargs: Any) -> str:
        """The scenario as a JSON document."""
        return json.dumps(self.to_dict(), **dumps_kwargs)

    @classmethod
    def from_json(cls, document: str) -> "Scenario":
        """Parse a scenario from a JSON document."""
        return cls.from_dict(json.loads(document))

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


#: Emission order is the table order: ``topology``, ``recovery``,
#: ``recovery_params`` and ``quality`` come last and only when set, so the
#: digest of a scenario that never sets them predates them.
Scenario.codec = Codec(Scenario, "scenario", "a scenario JSON document", (
    Field("name", text),
    Field("workload", text),
    Field("workload_params", mapping, _jsonify),
    Field("planner", text),
    Field("planner_params", mapping, _jsonify),
    Field("objective", text),
    Field("budget", int, nullable=True),
    Field("budget_fraction", float, nullable=True),
    Field("engine", mapping, _jsonify),
    Field("failures", list_of(FailureSpec.from_dict), to_dicts),
    Field("duration", float),
    Field("seed", int),
    Field("topology", nested(TopologyRecipe.from_dict), Record.to_dict,
          nullable=True, omit=unset),
    Field("recovery", text, omit=not_),
    Field("recovery_params", mapping, _jsonify, omit=not_),
    Field("quality", mapping, _jsonify, omit=not_),
))
