"""Operator-logic and source protocols implemented by query libraries.

The engine is agnostic to what operators compute — exactly as Storm is: an
operator is a user-defined function (Sec. II-A).  Query implementations in
:mod:`repro.queries` subclass :class:`OperatorLogic`, and workload generators
in :mod:`repro.workloads` subclass :class:`SourceFunction`.

Determinism contract: given the same sequence of ``process_batch`` calls an
implementation must produce the same outputs and snapshots, because replicas
and checkpoint recovery re-execute the same batches.
"""

from __future__ import annotations

import abc
import copy
from typing import Any, Mapping, Sequence

from repro.engine.tuples import KeyedTuple
from repro.topology.operators import TaskId


class OperatorLogic(abc.ABC):
    """Stateful per-task computation; one instance per (task, incarnation)."""

    @abc.abstractmethod
    def process_batch(self, task: TaskId, batch_end_time: float,
                      inputs: Mapping[TaskId, Sequence[KeyedTuple]]
                      ) -> list[KeyedTuple]:
        """Consume one aligned input batch, return the output tuples.

        ``inputs`` maps each upstream task to the tuples it contributed to
        this batch (possibly empty).  Tuples must be processed in the
        deterministic order given (upstream tasks are pre-sorted).
        """

    def process_batch_reference(self, task: TaskId, batch_end_time: float,
                                inputs: Mapping[TaskId, Sequence[KeyedTuple]]
                                ) -> list[KeyedTuple]:
        """Per-tuple executable specification of :meth:`process_batch`.

        Kernelized operators (see :mod:`repro.engine.kernels`) override this
        with the original per-tuple implementation so randomized parity
        tests can pin the batch kernels to it — the same contract as
        :meth:`repro.engine.routing.Router.distribute_reference`.  The two
        paths may maintain differently-shaped internal state, so drive each
        on its own operator instance; for operators without a kernel the
        default simply runs the (single) implementation.
        """
        return self.process_batch(task, batch_end_time, inputs)

    def state_size(self) -> int:
        """Approximate number of tuples held in state (checkpoint cost)."""
        return 0

    def snapshot(self) -> Any:
        """A deep, self-contained copy of the operator state."""
        return copy.deepcopy(self.__dict__)

    def restore(self, snapshot: Any) -> None:
        """Restore state captured by :meth:`snapshot`."""
        self.__dict__.clear()
        self.__dict__.update(copy.deepcopy(snapshot))


class SourceFunction(abc.ABC):
    """Deterministic batch generator for one source task."""

    @abc.abstractmethod
    def tuples_for_batch(self, task: TaskId,
                         batch_index: int) -> Sequence[KeyedTuple]:
        """The tuples task ``task`` emits in batch ``batch_index``.

        Must be pure: the engine re-invokes it when a failed source task is
        recovered or when source data is replayed (Storm mode).  The result
        becomes a batch's shared tuple sequence and is never mutated; return
        a list, or a :class:`~repro.engine.tuples.KeyCycleRun` to build
        tuples only where an operator reads them.
        """


class MemoizedSource(SourceFunction):
    """Bounded per-task memo over a pure :class:`SourceFunction`.

    The engine wraps every source task's function in one of these so replays
    (recovery backfills, physically-trimmed source-log regeneration) reuse
    the generated tuples instead of recomputing them.  Purity makes the memo
    invisible; the bound keeps memory O(window), evicting the oldest batch
    first (replays walk forward from a recent index).
    """

    __slots__ = ("_fn", "_task", "_capacity", "_batches")

    def __init__(self, fn: SourceFunction, task: TaskId, capacity: int = 128):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self._fn = fn
        self._task = task
        self._capacity = capacity
        self._batches: dict[int, Sequence[KeyedTuple]] = {}

    def tuples_for_batch(self, task: TaskId,
                         batch_index: int) -> Sequence[KeyedTuple]:
        if task != self._task:  # pragma: no cover - defensive
            return self._fn.tuples_for_batch(task, batch_index)
        batches = self._batches
        cached = batches.get(batch_index)
        if cached is None:
            cached = self._fn.tuples_for_batch(task, batch_index)
            if len(batches) >= self._capacity:
                # Dicts preserve insertion order, so the first key is the
                # oldest-inserted batch — O(1) instead of an O(n) min scan.
                try:
                    del batches[next(iter(batches))]
                except (KeyError, StopIteration, RuntimeError):  # pragma: no cover
                    # Shared memos (a multi-capacity cluster worker) may race on the
                    # eviction — including a concurrent insert between
                    # iter() and next() ("dictionary changed size during
                    # iteration"); purity makes losing the race harmless.
                    pass
            batches[batch_index] = cached
        return cached


class LogicFactory:
    """Maps operators to logic/source constructors for one engine run."""

    def __init__(self,
                 operators: Mapping[str, "type[OperatorLogic] | Any"] | None = None,
                 sources: Mapping[str, SourceFunction] | None = None):
        self._operators = dict(operators or {})
        self._sources = dict(sources or {})

    def register_operator(self, name: str, factory: Any) -> "LogicFactory":
        """Register a zero-argument callable building the logic for ``name``."""
        self._operators[name] = factory
        return self

    def register_source(self, name: str, source: SourceFunction) -> "LogicFactory":
        """Register the (shared, stateless) source function for ``name``."""
        self._sources[name] = source
        return self

    def logic_for(self, task: TaskId) -> OperatorLogic:
        """A fresh logic instance for ``task`` (raises KeyError if missing)."""
        try:
            factory = self._operators[task.operator]
        except KeyError:
            raise KeyError(
                f"no operator logic registered for {task.operator!r}"
            ) from None
        return factory()

    def source_for(self, task: TaskId) -> SourceFunction:
        """The source function of ``task``'s operator (raises if missing)."""
        try:
            return self._sources[task.operator]
        except KeyError:
            raise KeyError(
                f"no source function registered for {task.operator!r}"
            ) from None

    def has_operator(self, name: str) -> bool:
        """Whether operator logic is registered for ``name``."""
        return name in self._operators
