"""Per-tuple reference operators: the oracles the batch kernels are held to.

Every query operator in :mod:`repro.queries` runs a batch kernel (columnar
counting, strided selectivity takes, incremental window aggregates).  Each
class here subclasses one of them and overrides ``process_batch`` with the
original per-tuple loop, so the parity tests in ``tests/test_kernels.py``
can drive the kernel and its reference side by side, operator by operator
or as a whole engine run registered in a plain ``LogicFactory``.

A reference keeps the constructor, ``state_size``, ``snapshot`` and
``restore`` of the operator it specifies.  It may leave the kernel's
incremental state untouched, so drive each path on its own instance.
"""

from __future__ import annotations

from collections import Counter
from typing import Mapping, Sequence

from repro.engine.tuples import KeyedTuple
from repro.queries import (
    GlobalTopKOperator,
    IncidentAggregateOperator,
    IncidentCombineOperator,
    MergeAggregateOperator,
    SegmentSpeedOperator,
    SliceAggregateOperator,
    SpeedIncidentJoinOperator,
    WindowedSelectivityOperator,
)
from repro.queries.incidents import INCIDENT_RESULT_KEY
from repro.queries.topk import TOPK_RESULT_KEY
from repro.topology.operators import TaskId

Inputs = Mapping[TaskId, Sequence[KeyedTuple]]


def reference_take(items, selectivity: float, acc: float):
    """The selectivity accumulator loop over ``items``: ``(kept, acc)``."""
    if selectivity >= 1.0:
        # Pass-through: every tuple emits and the accumulator is a fixed
        # point (acc + 1.0 >= 1.0 always, then -1.0 undoes it).
        return list(items), acc
    out = []
    for item in items:
        acc += selectivity
        if acc >= 1.0:
            acc -= 1.0
            out.append(item)
    return out, acc


class WindowedSelectivityReference(WindowedSelectivityOperator):
    """The accumulator loop, one tuple at a time."""

    def process_batch(self, task: TaskId, batch_end_time: float,
                      inputs: Inputs) -> list[KeyedTuple]:
        out: list[KeyedTuple] = []
        acc = self._accumulator
        for upstream in sorted(inputs):
            batch = inputs[upstream]
            self.window.extend(batch_end_time, batch)
            kept, acc = reference_take(batch, self.selectivity, acc)
            out.extend(kept)
        self._accumulator = acc
        self.window.evict(batch_end_time)
        return out


class SliceAggregateReference(SliceAggregateOperator):
    def process_batch(self, task: TaskId, batch_end_time: float,
                      inputs: Inputs) -> list[KeyedTuple]:
        counts: Counter[str] = Counter()
        for upstream in sorted(inputs):
            for key, _value in inputs[upstream]:
                counts[key] += 1
        return [(key, count) for key, count in sorted(counts.items())]


class MergeAggregateReference(MergeAggregateOperator):
    """Re-sums the whole window every batch."""

    def process_batch(self, task: TaskId, batch_end_time: float,
                      inputs: Inputs) -> list[KeyedTuple]:
        for upstream in sorted(inputs):
            for key, count in inputs[upstream]:
                self.window.add(batch_end_time, (key, count))
        self.window.evict(batch_end_time)
        totals: Counter[str] = Counter()
        for key, count in self.window.items():
            totals[key] += count
        return [(key, total) for key, total in sorted(totals.items())]


class GlobalTopKReference(GlobalTopKOperator):
    """Rebuilds the fresh partials per key and sorts every entry."""

    def process_batch(self, task: TaskId, batch_end_time: float,
                      inputs: Inputs) -> list[KeyedTuple]:
        for upstream in sorted(inputs):
            for key, total in inputs[upstream]:
                self._partials.setdefault(key, {})[upstream] = (
                    batch_end_time, total
                )
        horizon = batch_end_time - self.window_seconds
        totals: dict[str, int] = {}
        for key, per_upstream in list(self._partials.items()):
            fresh = {
                up: (ts, total)
                for up, (ts, total) in per_upstream.items()
                if ts > horizon
            }
            if not fresh:
                del self._partials[key]
                continue
            self._partials[key] = fresh
            totals[key] = sum(total for _ts, total in fresh.values())
        ranked = sorted(totals.items(), key=lambda item: (-item[1], item[0]))
        top = tuple(key for key, _total in ranked[: self.k])
        return [(TOPK_RESULT_KEY, top)]


class SegmentSpeedReference(SegmentSpeedOperator):
    def process_batch(self, task: TaskId, batch_end_time: float,
                      inputs: Inputs) -> list[KeyedTuple]:
        sums: dict[str, tuple[float, int]] = {}
        for upstream in sorted(inputs):
            for segment, speed in inputs[upstream]:
                total, count = sums.get(segment, (0.0, 0))
                sums[segment] = (total + float(speed), count + 1)
        return [
            (segment, total / count)
            for segment, (total, count) in sorted(sums.items())
            if count > 0
        ]


class IncidentCombineReference(IncidentCombineOperator):
    """Rebuilds the distinct-incident set from the window every batch."""

    def process_batch(self, task: TaskId, batch_end_time: float,
                      inputs: Inputs) -> list[KeyedTuple]:
        self.window.evict(batch_end_time)
        self._seen = {incident for _ts, incident in self.window.timestamped()}
        out: list[KeyedTuple] = []
        for upstream in sorted(inputs):
            for segment, incident_id in inputs[upstream]:
                if incident_id in self._seen:
                    continue
                self._seen.add(incident_id)
                self.window.add(batch_end_time, incident_id)
                out.append((segment, incident_id))
        return sorted(out)


class SpeedIncidentJoinReference(SpeedIncidentJoinOperator):
    """Rescans both windows every batch."""

    def process_batch(self, task: TaskId, batch_end_time: float,
                      inputs: Inputs) -> list[KeyedTuple]:
        for upstream in sorted(inputs):
            for key, value in inputs[upstream]:
                if isinstance(value, str):
                    self.incidents.add(batch_end_time, (key, value))
                else:
                    self.speeds.add(batch_end_time, (key, float(value)))
        self.speeds.evict(batch_end_time)
        self.incidents.evict(batch_end_time)

        slow_segments = {
            segment
            for segment, speed in self.speeds.items()
            if speed <= self.jam_speed
        }
        out = sorted({
            (segment, incident_id)
            for segment, incident_id in self.incidents.items()
            if segment in slow_segments
        })
        return [(segment, incident_id) for segment, incident_id in out]


class IncidentAggregateReference(IncidentAggregateOperator):
    """Reads the distinct incidents off a window rescan."""

    def process_batch(self, task: TaskId, batch_end_time: float,
                      inputs: Inputs) -> list[KeyedTuple]:
        for upstream in sorted(inputs):
            for segment, incident_id in inputs[upstream]:
                self.window.add(batch_end_time, (segment, incident_id))
        self.window.evict(batch_end_time)
        incidents = frozenset(
            incident for _segment, incident in self.window.items()
        )
        return [(INCIDENT_RESULT_KEY, incidents)]


#: Each kernelized operator class -> its per-tuple reference subclass.
REFERENCE_OF: dict[type, type] = {
    cls.__mro__[1]: cls
    for cls in (WindowedSelectivityReference, SliceAggregateReference,
                MergeAggregateReference, GlobalTopKReference,
                SegmentSpeedReference, IncidentCombineReference,
                SpeedIncidentJoinReference, IncidentAggregateReference)
}
