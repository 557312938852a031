"""Sliding-window primitives shared by the query operators.

The paper's operators are all sliding-window computations (Sec. VI); this
module provides the single window structure they share so checkpoint state
size and eviction semantics are uniform.

The window is stored as *blocks*: each :meth:`extend` call appends one
``(timestamp, items)`` block sharing the caller's sequence (zero-copy — the
engine's batch tuples are immutable by contract), and each :meth:`add` call
appends a single-item block.  Because every block carries one timestamp and
timestamps arrive in order, insertion is O(1) per batch, eviction pops whole
blocks, and checkpoint snapshots copy O(blocks) instead of O(tuples) —
entries are never re-packed per tuple.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Hashable, Iterable, Iterator, Sequence

from repro.engine.tuples import SHARED_SEQUENCES


def retire_count(counts: dict, key: Hashable) -> None:
    """Decrement a live-entry count, dropping the key when it reaches zero.

    The companion of :meth:`SlidingWindow.evict_collect` for the
    incremental operator kernels: per-key counts are incremented as entries
    join the window and retired through this helper as they leave, so
    ``counts`` always holds exactly the keys with live entries.
    """
    live = counts[key] - 1
    if live:
        counts[key] = live
    else:
        del counts[key]


class SlidingWindow:
    """Time-based sliding window of ``(timestamp, item)`` entries.

    Entries are appended in timestamp order (the engine feeds batches in
    order); :meth:`evict` drops entries older than ``now − window_seconds``.
    """

    def __init__(self, window_seconds: float):
        if window_seconds <= 0:
            raise ValueError(f"window_seconds must be positive, got {window_seconds}")
        self.window_seconds = window_seconds
        #: ``(timestamp, items)`` blocks, oldest first; every item of a block
        #: shares the block's timestamp.
        self._blocks: deque[tuple[float, Sequence[Any]]] = deque()
        self._size = 0

    def __deepcopy__(self, memo: dict) -> "SlidingWindow":
        # Checkpoint snapshots deep-copy operator state on the hot path.
        # Blocks and their item sequences are immutable by contract (see
        # :meth:`add`/:meth:`extend`), so a fresh deque over the same block
        # tuples is a correct deep copy — O(blocks), not O(tuples).
        clone = SlidingWindow.__new__(SlidingWindow)
        clone.window_seconds = self.window_seconds
        clone._blocks = deque(self._blocks)
        clone._size = self._size
        memo[id(self)] = clone
        return clone

    def add(self, timestamp: float, item: Any) -> None:
        """Append an entry (timestamps must arrive in order).

        Items must be treated as immutable once added: checkpoint snapshots
        share blocks with the live window (:meth:`__deepcopy__`).
        """
        self._blocks.append((timestamp, (item,)))
        self._size += 1

    def extend(self, timestamp: float, items: Iterable[Any]) -> None:
        """Bulk-append ``items`` at one timestamp (the per-batch hot path).

        Equivalent to calling :meth:`add` per item, but the whole batch
        becomes one shared block: the batch sequence types of
        :data:`~repro.engine.tuples.SHARED_SEQUENCES` (lists, tuples and
        source :class:`~repro.engine.tuples.KeyCycleRun` batches) are
        referenced as-is (zero-copy — the caller must not mutate them
        afterwards), other iterables are materialised once.
        """
        if type(items) not in SHARED_SEQUENCES:
            items = list(items)
        if items:
            self._blocks.append((timestamp, items))
            self._size += len(items)

    def evict(self, now: float) -> int:
        """Drop entries with ``timestamp <= now − window_seconds``; return count."""
        horizon = now - self.window_seconds
        blocks = self._blocks
        dropped = 0
        while blocks and blocks[0][0] <= horizon:
            dropped += len(blocks.popleft()[1])
        self._size -= dropped
        return dropped

    def evict_collect(self, now: float) -> list[Any]:
        """Like :meth:`evict`, but return the evicted items, oldest first.

        The incremental operator kernels use this to retire per-key running
        aggregates exactly when their contributing entries leave the window.
        """
        horizon = now - self.window_seconds
        blocks = self._blocks
        if not blocks or blocks[0][0] > horizon:
            return []
        evicted: list[Any] = []
        while blocks and blocks[0][0] <= horizon:
            evicted.extend(blocks.popleft()[1])
        self._size -= len(evicted)
        return evicted

    def items(self) -> Iterator[Any]:
        """The items currently in the window, oldest first."""
        for _ts, block in self._blocks:
            yield from block

    def timestamped(self) -> Iterator[tuple[float, Any]]:
        """(timestamp, item) pairs currently in the window, oldest first."""
        for ts, block in self._blocks:
            for item in block:
                yield ts, item

    def __len__(self) -> int:
        return self._size

    def __bool__(self) -> bool:
        return self._size > 0
