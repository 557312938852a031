"""The synthetic windowed operator of the recovery-efficiency experiments.

Sec. VI-A: each synthetic operator maintains a sliding window (10–30 s
interval, 1 s step) whose state is the input data within the window, and has
selectivity 0.5.  The largest task state is therefore
``input_rate × window_interval`` tuples — exactly what makes checkpoint size
and Storm's replay volume scale with rate and window length in Fig. 7–9.
"""

from __future__ import annotations

from collections import Counter
from itertools import chain
from typing import Mapping, Sequence

from repro.engine.kernels import KERNEL
from repro.engine.logic import OperatorLogic
from repro.engine.tuples import KeyCycleRun, KeyedTuple
from repro.queries.windows import SlidingWindow
from repro.topology.operators import TaskId


def overlap_accuracy(tentative: Sequence[KeyedTuple],
                     accurate: Sequence[KeyedTuple]) -> float:
    """Workload-agnostic accuracy: multiset overlap ``|ST ∩ SA| / |SA|``.

    The synthetic workloads carry no query-specific result semantics, so
    tentative-output quality is simply the fraction of the accurate batch's
    tuples that the tentative batch reproduced, counting duplicates with
    multiplicity (the Sec. VI-B overlap measure applied to raw tuples).

    >>> overlap_accuracy([("a", 1)], [("a", 1), ("b", 2)])
    0.5
    >>> overlap_accuracy([], [])
    1.0
    """
    if not accurate:
        return 1.0
    surplus = Counter(tentative)
    hit = 0
    for item in accurate:
        if surplus[item] > 0:
            surplus[item] -= 1
            hit += 1
    return hit / len(accurate)


class WindowedSelectivityOperator(OperatorLogic):
    """Sliding-window pass-through with fractional selectivity.

    Selectivity is applied with a deterministic accumulator (every
    ``1/selectivity``-th tuple is emitted), so replicas and recovered
    incarnations reproduce the exact same output.  The per-batch fast path
    runs the accumulator through :class:`~repro.engine.kernels.BatchKernel`;
    :meth:`process_batch_reference` keeps the per-tuple loop as the parity
    specification.
    """

    def __init__(self, window_seconds: float = 30.0, selectivity: float = 0.5):
        if not 0.0 <= selectivity <= 1.0:
            raise ValueError(f"selectivity must be in [0, 1], got {selectivity}")
        self.window = SlidingWindow(window_seconds)
        self.selectivity = selectivity
        self._accumulator = 0.0

    def process_batch(self, task: TaskId, batch_end_time: float,
                      inputs: Mapping[TaskId, Sequence[KeyedTuple]]
                      ) -> Sequence[KeyedTuple]:
        parts: list[Sequence[KeyedTuple]] = []
        window = self.window
        acc = self._accumulator
        selectivity = self.selectivity
        # Looked up per call, so a probe patched onto the class is seen.
        take = KERNEL.selectivity_take
        lazy = True
        for upstream in sorted(inputs):
            batch = inputs[upstream]
            window.extend(batch_end_time, batch)
            taken, acc = take(batch, selectivity, acc)
            if taken:
                parts.append(taken)
                lazy = lazy and type(taken) is KeyCycleRun
        self._accumulator = acc
        window.evict(batch_end_time)
        # Periodic takes of lazy runs stay one lazy run downstream.
        if parts and lazy:
            return KeyCycleRun.concat(parts)
        return list(chain.from_iterable(parts))

    def process_batch_reference(self, task: TaskId, batch_end_time: float,
                                inputs: Mapping[TaskId, Sequence[KeyedTuple]]
                                ) -> list[KeyedTuple]:
        out: list[KeyedTuple] = []
        window = self.window
        acc = self._accumulator
        selectivity = self.selectivity
        for upstream in sorted(inputs):
            batch = inputs[upstream]
            window.extend(batch_end_time, batch)
            if selectivity >= 1.0:
                # Pass-through: every tuple emits and the accumulator is a
                # fixed point (acc + 1.0 >= 1.0 always, then -1.0 undoes it).
                out.extend(batch)
                continue
            for item in batch:
                acc += selectivity
                if acc >= 1.0:
                    acc -= 1.0
                    out.append(item)
        self._accumulator = acc
        window.evict(batch_end_time)
        return out

    def state_size(self) -> int:
        return len(self.window)
