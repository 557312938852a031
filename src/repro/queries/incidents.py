"""Q2: traffic-incident detection with a stream join (Sec. VI-B, Fig. 11 right).

Two source streams feed the query: user-location records and user-reported
incident events.  The pipeline is:

* **O1** — per-segment average speed per batch (from location records);
* **O2** — deduplicates user incident reports into distinct incidents;
* **O3** (correlated-input) — joins the segment-speed stream with the
  distinct-incident stream over a sliding window and keeps the incidents
  whose segment speed indicates a traffic jam;
* **O4** (sink) — aggregates the distinct jam incidents in the window.

Because O3 is a join, losing *either* input stream for a segment suppresses
its incidents entirely — the correlation effect that makes IC a poor
predictor and OF a good one in Fig. 12(b).

Each operator's ``process_batch`` is a batch kernel (incremental per-key
window aggregates retired via :meth:`SlidingWindow.evict_collect` instead of
per-batch window rescans).  The randomized parity tests hold each kernel to
a per-tuple reference subclass that lives with the tests
(``tests/reference_ops.py``).
"""

from __future__ import annotations

from typing import Mapping, Sequence

from repro.engine.logic import OperatorLogic
from repro.engine.tuples import KeyedTuple
from repro.queries.windows import SlidingWindow, retire_count
from repro.topology.operators import TaskId

#: Key under which the sink emits the current jam-incident set.
INCIDENT_RESULT_KEY = "jam-incidents"


class SegmentSpeedOperator(OperatorLogic):
    """O1: average speed per road segment within each batch."""

    def process_batch(self, task: TaskId, batch_end_time: float,
                      inputs: Mapping[TaskId, Sequence[KeyedTuple]]
                      ) -> list[KeyedTuple]:
        # Mutable [total, count] cells avoid a tuple rebuild per input
        # tuple; the additions run in input order, so the float totals
        # (and the 0.0 + x normalisation) match a per-tuple loop bit for bit.
        sums: dict[str, list] = {}
        get = sums.get
        for upstream in sorted(inputs):
            for segment, speed in inputs[upstream]:
                cell = get(segment)
                if cell is None:
                    sums[segment] = [0.0 + float(speed), 1]
                else:
                    cell[0] += float(speed)
                    cell[1] += 1
        return [
            (segment, total / count)
            for segment, (total, count) in sorted(sums.items())
        ]

    def state_size(self) -> int:
        return 0


class IncidentCombineOperator(OperatorLogic):
    """O2: combine user reports into distinct incident events (windowed dedup).

    The kernel maintains the distinct-incident set incrementally — evicted
    incidents are removed instead of rebuilding the set from the whole
    window every batch.
    """

    def __init__(self, window_seconds: float = 300.0):
        self.window = SlidingWindow(window_seconds)
        self._seen: set[str] = set()

    def process_batch(self, task: TaskId, batch_end_time: float,
                      inputs: Mapping[TaskId, Sequence[KeyedTuple]]
                      ) -> list[KeyedTuple]:
        # Expire old incidents first, so a re-report after the window is
        # treated as a fresh distinct incident.
        window = self.window
        seen = self._seen
        seen.difference_update(window.evict_collect(batch_end_time))
        out: list[KeyedTuple] = []
        for upstream in sorted(inputs):
            for segment, incident_id in inputs[upstream]:
                if incident_id in seen:
                    continue
                seen.add(incident_id)
                window.add(batch_end_time, incident_id)
                out.append((segment, incident_id))
        return sorted(out)

    def state_size(self) -> int:
        return len(self.window)


class SpeedIncidentJoinOperator(OperatorLogic):
    """O3 (correlated): join speeds and incidents per segment; keep jams.

    The kernel replaces the per-batch rescan of both windows with running
    aggregates: a per-segment count of slow speed readings and a per-pair
    count of live incident entries, both retired exactly on eviction.  A
    batch then costs O(batch + evicted + distinct pairs) instead of
    O(speeds window + incidents window).
    """

    def __init__(self, window_seconds: float = 300.0, jam_speed: float = 20.0):
        self.window_seconds = window_seconds
        self.jam_speed = jam_speed
        self.speeds = SlidingWindow(window_seconds)
        self.incidents = SlidingWindow(window_seconds)
        #: segment -> number of in-window speed readings <= jam_speed.
        self._slow_counts: dict[str, int] = {}
        #: (segment, incident) -> number of in-window incident entries.
        self._pair_counts: dict[tuple[str, str], int] = {}

    def process_batch(self, task: TaskId, batch_end_time: float,
                      inputs: Mapping[TaskId, Sequence[KeyedTuple]]
                      ) -> list[KeyedTuple]:
        speeds, incidents = self.speeds, self.incidents
        slow, pairs = self._slow_counts, self._pair_counts
        jam = self.jam_speed
        for upstream in sorted(inputs):
            for key, value in inputs[upstream]:
                if isinstance(value, str):
                    pair = (key, value)
                    incidents.add(batch_end_time, pair)
                    pairs[pair] = pairs.get(pair, 0) + 1
                else:
                    speed = float(value)
                    speeds.add(batch_end_time, (key, speed))
                    if speed <= jam:
                        slow[key] = slow.get(key, 0) + 1
        for key, speed in speeds.evict_collect(batch_end_time):
            if speed <= jam:
                retire_count(slow, key)
        for pair in incidents.evict_collect(batch_end_time):
            retire_count(pairs, pair)
        return sorted(pair for pair in pairs if pair[0] in slow)

    def state_size(self) -> int:
        return len(self.speeds) + len(self.incidents)


class IncidentAggregateOperator(OperatorLogic):
    """O4 (sink): the distinct jam incidents observed within the window.

    The kernel counts live window entries per (segment, incident) pair so
    the distinct-incident set is read off the counts instead of rescanning
    the window.
    """

    def __init__(self, window_seconds: float = 300.0):
        self.window = SlidingWindow(window_seconds)
        self._pair_counts: dict[tuple[str, str], int] = {}

    def process_batch(self, task: TaskId, batch_end_time: float,
                      inputs: Mapping[TaskId, Sequence[KeyedTuple]]
                      ) -> list[KeyedTuple]:
        window = self.window
        pairs = self._pair_counts
        for upstream in sorted(inputs):
            batch = inputs[upstream]
            window.extend(batch_end_time, batch)
            for pair in batch:
                pairs[pair] = pairs.get(pair, 0) + 1
        for pair in window.evict_collect(batch_end_time):
            retire_count(pairs, pair)
        incidents = frozenset(incident for _segment, incident in pairs)
        return [(INCIDENT_RESULT_KEY, incidents)]

    def state_size(self) -> int:
        return len(self.window)


def incident_result_set(output: Sequence[KeyedTuple]) -> frozenset[str]:
    """Extract the jam-incident set from one sink batch output."""
    for key, value in output:
        if key == INCIDENT_RESULT_KEY:
            return frozenset(value)
    return frozenset()


def incident_accuracy(tentative: Sequence[KeyedTuple],
                      accurate: Sequence[KeyedTuple]) -> float:
    """Q2's accuracy function: ``|IT ∩ IA| / |IA|`` (Sec. VI-B)."""
    accurate_set = incident_result_set(accurate)
    if not accurate_set:
        return 1.0
    tentative_set = incident_result_set(tentative)
    return len(tentative_set & accurate_set) / len(accurate_set)
