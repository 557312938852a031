"""Operator and task identifiers for query topologies.

A query plan in an MPSPE is a DAG of *operators*, each parallelised into
*tasks* (Sec. II-A of the paper).  This module defines the static description
of an operator (:class:`OperatorSpec`) and the identifier of a single task
(:class:`TaskId`).  The dataflow between operators lives in
:mod:`repro.topology.graph`.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import NamedTuple

from repro.errors import TopologyError


class OperatorKind(enum.Enum):
    """Semantic class of an operator, as far as the system needs to know.

    The paper deliberately asks for *minimal* semantic information: only
    whether an operator computes over the join (Cartesian product) of its
    input streams or over their union (Sec. III-A.1).
    """

    #: Emits tuples into the topology; has no upstream operators.
    SOURCE = "source"
    #: Computes over the union of its input streams (map, filter, aggregate).
    INDEPENDENT = "independent"
    #: Computes over the join of its input streams (Cartesian effective input).
    CORRELATED = "correlated"


class TaskId(NamedTuple):
    """Identifier of one parallel task of an operator.

    ``TaskId("O1", 0)`` is rendered as ``O1[0]``.
    """

    operator: str
    index: int

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return f"{self.operator}[{self.index}]"

    __str__ = __repr__

    @classmethod
    def parse(cls, value: str) -> "TaskId | None":
        """Parse the ``"O1[0]"`` rendering back into a :class:`TaskId`.

        Returns ``None`` when ``value`` is not of that shape (callers decide
        whether that is an error or a plain operator name).

        >>> TaskId.parse("O2[1]")
        O2[1]
        >>> TaskId.parse("O2") is None
        True
        """
        if not value.endswith("]") or "[" not in value:
            return None
        operator, _, index = value[:-1].partition("[")
        if not operator:
            return None
        try:
            return cls(operator, int(index))
        except ValueError:
            return None


def _uniform_weights(n: int) -> tuple[float, ...]:
    return tuple(1.0 / n for _ in range(n))


def _normalise(weights: tuple[float, ...]) -> tuple[float, ...]:
    total = float(sum(weights))
    if total <= 0.0:
        raise TopologyError(f"task weights must sum to a positive value, got {weights!r}")
    return tuple(w / total for w in weights)


@dataclass(frozen=True)
class OperatorSpec:
    """Static description of a parallel operator.

    Parameters
    ----------
    name:
        Unique operator name within a topology (e.g. ``"O1"``).
    parallelism:
        Number of parallel tasks. Must be >= 1.
    kind:
        :class:`OperatorKind`; sources must use :attr:`OperatorKind.SOURCE`.
    selectivity:
        Output rate divided by effective input rate; finite and >= 0. Used
        by the rate model (:mod:`repro.topology.rates`); sources ignore it.
    task_weights:
        Relative share of the operator's key space handled by each task
        (the workload skew of Sec. VI-C); finite and non-negative. Normalised
        to sum to 1. Defaults to uniform.
    """

    name: str
    parallelism: int
    kind: OperatorKind
    selectivity: float = 1.0
    task_weights: tuple[float, ...] = field(default=())

    def __post_init__(self) -> None:
        if not self.name:
            raise TopologyError("operator name must be a non-empty string")
        if self.parallelism < 1:
            raise TopologyError(
                f"operator {self.name!r}: parallelism must be >= 1, got {self.parallelism}"
            )
        if not math.isfinite(self.selectivity):
            raise TopologyError(
                f"operator {self.name!r}: selectivity must be finite, got {self.selectivity}"
            )
        if self.selectivity < 0.0:
            raise TopologyError(
                f"operator {self.name!r}: selectivity must be >= 0, got {self.selectivity}"
            )
        weights = self.task_weights or _uniform_weights(self.parallelism)
        if len(weights) != self.parallelism:
            raise TopologyError(
                f"operator {self.name!r}: got {len(weights)} task weights "
                f"for parallelism {self.parallelism}"
            )
        if not all(map(math.isfinite, weights)):
            raise TopologyError(
                f"operator {self.name!r}: task_weights must be finite, got {tuple(weights)!r}"
            )
        if any(w < 0.0 for w in weights):
            raise TopologyError(f"operator {self.name!r}: task weights must be non-negative")
        object.__setattr__(self, "task_weights", _normalise(tuple(float(w) for w in weights)))
        object.__setattr__(
            self, "_tasks", tuple(TaskId(self.name, i) for i in range(self.parallelism))
        )

    @property
    def is_source(self) -> bool:
        """Whether this operator emits source streams."""
        return self.kind is OperatorKind.SOURCE

    @property
    def is_correlated(self) -> bool:
        """Whether this operator joins its input streams (Sec. III-A.1)."""
        return self.kind is OperatorKind.CORRELATED

    def tasks(self) -> tuple[TaskId, ...]:
        """All task identifiers of this operator, in index order."""
        return self._tasks

    def task(self, index: int) -> TaskId:
        """The task identifier at ``index`` (supporting negative indexing)."""
        if index < 0:
            index += self.parallelism
        if not 0 <= index < self.parallelism:
            raise TopologyError(
                f"operator {self.name!r} has {self.parallelism} tasks; index {index} is invalid"
            )
        return TaskId(self.name, index)

    def weight_of(self, index: int) -> float:
        """Key-space share of task ``index`` (normalised)."""
        return self.task_weights[index]
