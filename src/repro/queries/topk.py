"""Q1: hierarchical top-k hottest entries (Sec. VI-B, Fig. 11 left).

The paper's Q1 computes the top-100 hottest entries of the WorldCup'98 web
site with a three-level aggregation tree:

* **O1** (slice aggregation) — counts accesses per entry over input slices;
* **O2** (merge) — merges partial counts within a sliding window;
* **O3** (global top-k, single task) — maintains the global counts and emits
  the current top-k entry set every batch.

The engine's key routing keeps each entry on one O2 task, so partial counts
merge correctly; losing an O1/O2 subtree removes those entries' counts and
degrades the top-k set — which is what the OF metric predicts.

Each operator's ``process_batch`` is a batch kernel (columnar counting,
incremental window totals).  The randomized parity tests hold each kernel to
a per-tuple reference subclass that lives with the tests
(``tests/reference_ops.py``).
"""

from __future__ import annotations

import heapq
from collections import Counter
from operator import itemgetter
from typing import Mapping, Sequence

from repro.engine.logic import OperatorLogic
from repro.engine.tuples import KeyedTuple
from repro.queries.windows import SlidingWindow
from repro.topology.operators import TaskId

#: Key under which the sink emits the current top-k result set.
TOPK_RESULT_KEY = "top-k"


class SliceAggregateOperator(OperatorLogic):
    """O1: per-batch access counts per entry (the 100-tuple slices of the paper)."""

    def process_batch(self, task: TaskId, batch_end_time: float,
                      inputs: Mapping[TaskId, Sequence[KeyedTuple]]
                      ) -> list[KeyedTuple]:
        counts: Counter[str] = Counter()
        first = itemgetter(0)
        for upstream in sorted(inputs):
            counts.update(map(first, inputs[upstream]))
        return sorted(counts.items())

    def state_size(self) -> int:
        return 0  # slice state lives within a single batch


class MergeAggregateOperator(OperatorLogic):
    """O2: windowed merge of partial counts; emits per-entry window totals.

    The kernel keeps *running* per-entry totals, updated as counts enter and
    leave the window, instead of re-summing the whole window every batch —
    O(batch + evicted) per batch rather than O(window).  Integer counts make
    the increments exact; the first non-int count permanently drops the
    instance back to re-summing the window so results never drift.
    """

    def __init__(self, window_seconds: float = 60.0):
        self.window = SlidingWindow(window_seconds)
        #: Running per-entry totals / live-entry counts (the kernel state).
        self._totals: dict[str, int] = {}
        self._entries: dict[str, int] = {}
        self._exact = True

    def process_batch(self, task: TaskId, batch_end_time: float,
                      inputs: Mapping[TaskId, Sequence[KeyedTuple]]
                      ) -> list[KeyedTuple]:
        window = self.window
        totals, entries = self._totals, self._entries
        for upstream in sorted(inputs):
            batch = inputs[upstream]
            window.extend(batch_end_time, batch)
            if not self._exact:
                continue
            for key, count in batch:
                if type(count) is not int:
                    # Fractional counts could drift under add/subtract;
                    # abandon the incremental state (it is never read
                    # again) and recompute from the window instead.
                    self._exact = False
                    self._totals = {}
                    self._entries = {}
                    break
                totals[key] = totals.get(key, 0) + count
                entries[key] = entries.get(key, 0) + 1
        evicted = window.evict_collect(batch_end_time)
        if not self._exact:
            recomputed: Counter[str] = Counter()
            for key, count in window.items():
                recomputed[key] += count
            return sorted(recomputed.items())
        totals, entries = self._totals, self._entries
        for key, count in evicted:
            live = entries[key] - 1
            if live:
                entries[key] = live
                totals[key] -= count
            else:
                del entries[key]
                del totals[key]
        return sorted(totals.items())

    def state_size(self) -> int:
        return len(self.window)


class GlobalTopKOperator(OperatorLogic):
    """O3 (sink): global top-k over per-entry window totals.

    Upstream merge tasks hold *partial* totals (each sees a subset of the
    servers), so the global total of an entry is the sum of the latest
    total reported by each upstream task; an upstream's contribution expires
    when it has not been refreshed within the window.

    The kernel prunes stale contributions in place (no per-key dict
    rebuilds) and ranks with a size-k heap instead of sorting every entry.
    """

    def __init__(self, k: int = 100, window_seconds: float = 60.0):
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        self.k = k
        self.window_seconds = window_seconds
        #: entry -> upstream task -> (last refresh time, partial total)
        self._partials: dict[str, dict[TaskId, tuple[float, int]]] = {}

    def process_batch(self, task: TaskId, batch_end_time: float,
                      inputs: Mapping[TaskId, Sequence[KeyedTuple]]
                      ) -> list[KeyedTuple]:
        partials = self._partials
        for upstream in sorted(inputs):
            for key, total in inputs[upstream]:
                slot = partials.get(key)
                if slot is None:
                    partials[key] = slot = {}
                slot[upstream] = (batch_end_time, total)
        horizon = batch_end_time - self.window_seconds
        totals: dict[str, int] = {}
        for key, per_upstream in list(partials.items()):
            stale = [up for up, (ts, _total) in per_upstream.items()
                     if ts <= horizon]
            if stale:
                if len(stale) == len(per_upstream):
                    del partials[key]
                    continue
                for up in stale:
                    del per_upstream[up]
            totals[key] = sum(total for _ts, total in per_upstream.values())
        ranked = heapq.nsmallest(self.k, totals.items(),
                                 key=lambda item: (-item[1], item[0]))
        top = tuple(key for key, _total in ranked)
        return [(TOPK_RESULT_KEY, top)]

    def state_size(self) -> int:
        return sum(len(per_upstream) for per_upstream in self._partials.values())


def topk_result_set(output: Sequence[KeyedTuple]) -> frozenset[str]:
    """Extract the top-k entry set from one sink batch output."""
    for key, value in output:
        if key == TOPK_RESULT_KEY:
            return frozenset(value)
    return frozenset()


def topk_accuracy(tentative: Sequence[KeyedTuple],
                  accurate: Sequence[KeyedTuple]) -> float:
    """Q1's accuracy function: ``|ST ∩ SA| / |SA|`` (Sec. VI-B)."""
    accurate_set = topk_result_set(accurate)
    if not accurate_set:
        return 1.0
    tentative_set = topk_result_set(tentative)
    return len(tentative_set & accurate_set) / len(accurate_set)
