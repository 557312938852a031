"""Deterministic discrete-event core: virtual clock plus an event queue.

Events are callbacks ordered by ``(time, priority, sequence)``; the
monotonically increasing sequence number makes simultaneous events execute in
scheduling order, so a run is fully deterministic.

The queue is built for the engine's hot loop: entries are plain heap tuples
``(time, priority, sequence, event)`` whose comparison never reaches the
event cell (sequence numbers are unique), and callbacks carry their
arguments in the entry instead of closing over loop state, so schedulers can
pass bound methods directly (``sim.at(t, self._deliver, args=(batch,))``)
without allocating a closure per event.
"""

from __future__ import annotations

import heapq
import math
from typing import Any, Callable

from repro.errors import SimulationError

#: An event callback; invoked with the ``args`` it was scheduled with.
EventFn = Callable[..., None]

_INF = float("inf")


class EventHandle:
    """One scheduled event: the cell the heap carries and ``at()`` returns.

    Never itself compared (heap entries differ by sequence number first).
    ``cancel()`` prevents the event from firing; it is safe to call after
    the event fired.
    """

    __slots__ = ("time", "fn", "args", "cancelled")

    def __init__(self, time: float, fn: EventFn, args: tuple[Any, ...]):
        #: Absolute virtual time the event is due at.
        self.time = time
        self.fn = fn
        self.args = args
        self.cancelled = False

    def cancel(self) -> None:
        """Prevent the event from firing (safe to call after it fired)."""
        self.cancelled = True


class Simulator:
    """Virtual clock plus event queue; drives one engine run."""

    __slots__ = ("_queue", "_sequence", "_now", "_processed")

    def __init__(self) -> None:
        self._queue: list[tuple[float, int, int, EventHandle]] = []
        self._sequence = 0
        self._now = 0.0
        self._processed = 0

    @property
    def now(self) -> float:
        """Current virtual time in seconds."""
        return self._now

    @property
    def processed_events(self) -> int:
        """Number of events executed so far (diagnostics)."""
        return self._processed

    def at(self, time: float, fn: EventFn, priority: int = 0,
           args: tuple[Any, ...] = ()) -> EventHandle:
        """Schedule ``fn(*args)`` at absolute virtual time ``time``."""
        now = self._now
        # One chained comparison: false for the past, infinities and NaN.
        if not now - 1e-9 <= time < _INF:
            if not math.isfinite(time):
                raise SimulationError(f"event time must be finite, got {time!r}")
            raise SimulationError(
                f"cannot schedule event in the past ({time:.6f} < now {now:.6f})"
            )
        event = EventHandle(time if time > now else now, fn, args)
        self._sequence += 1
        heapq.heappush(self._queue, (event.time, priority, self._sequence, event))
        return event

    def after(self, delay: float, fn: EventFn, priority: int = 0,
              args: tuple[Any, ...] = ()) -> EventHandle:
        """Schedule ``fn(*args)`` ``delay`` seconds from now."""
        if not 0 <= delay < _INF:
            if not math.isfinite(delay):
                raise SimulationError(f"delay must be finite, got {delay!r}")
            raise SimulationError(f"delay must be >= 0, got {delay}")
        return self.at(self._now + delay, fn, priority, args)

    def run_until(self, end_time: float) -> None:
        """Execute all events with due time <= ``end_time``, advancing the clock."""
        queue = self._queue
        pop = heapq.heappop
        bound = end_time + 1e-12
        while queue and queue[0][0] <= bound:
            event = pop(queue)[3]
            if event.cancelled:
                continue
            if event.time > self._now:
                self._now = event.time
            self._processed += 1
            event.fn(*event.args)
        if end_time > self._now:
            self._now = end_time

    def drain(self, max_events: int = 10_000_000) -> None:
        """Execute every remaining event (used to let recoveries finish).

        ``max_events`` bounds the number of events *executed*; the budget is
        only enforced while live events remain, so draining exactly
        ``max_events`` events from an emptying queue succeeds.
        """
        queue = self._queue
        pop = heapq.heappop
        executed = 0
        while queue:
            event = pop(queue)[3]
            if event.cancelled:
                continue
            if executed >= max_events:
                raise SimulationError(
                    f"drain() exceeded {max_events} events; likely a scheduling loop"
                )
            if event.time > self._now:
                self._now = event.time
            self._processed += 1
            executed += 1
            event.fn(*event.args)
