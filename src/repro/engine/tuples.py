"""Batches and punctuations: the dataflow unit of the simulated engine.

The paper's implementation (Sec. V-B) adopts batch processing: input tuples
are divided into consecutive batches, a task starts processing batch ``b``
only once it received the batch-over punctuation from every upstream task,
and tuples within a batch are processed in a predefined order.  In the
simulator a :class:`Batch` *is* its own punctuation — receiving the batch
message means the batch is over.

``forged=True`` marks the empty punctuations the recovery manager fabricates
for failed tasks so that downstream tasks keep producing tentative outputs;
``complete=False`` taints any batch whose lineage includes forged or
incomplete inputs, which is how sink outputs are classified as tentative.

Batch tuples are shared, never copied, between the router, the output
history, inboxes and operator windows.  The sequence types that may be
shared that way are listed once, in :data:`SHARED_SEQUENCES`: lists, tuples
and :class:`KeyCycleRun` — the range-backed source batch that computes its
``(key, (owner, n))`` tuples on demand, so a uniform-rate source batch costs
four slots until an operator actually keeps some of its tuples.
"""

from __future__ import annotations

from collections.abc import Sequence as SequenceABC
from dataclasses import dataclass, field
from itertools import cycle, islice, repeat
from operator import eq
from typing import Any, Iterator, Sequence

from repro.topology.operators import TaskId

#: A stream element: ``(key, value)``.
KeyedTuple = tuple[str, Any]


class KeyCycleRun:
    """A source batch ``(keys[n % len(keys)], (owner, n))`` for ``n`` in a range.

    Item ``i`` of the run is the tuple with ``n = base + i``, for ``0 <= i <
    count``; it is built on demand, so the run itself holds only ``keys``,
    ``owner``, ``base`` and ``count``.  The run behaves as an immutable
    sequence: ``len``, iteration, int indexing (negative indexes included)
    and slicing, where a slice returns a ``list`` of real tuples.  It
    compares equal to any sequence with the same items, is unhashable like
    ``list``, pickles, and deep-copies to itself.

    >>> run = KeyCycleRun(("a", "b", "c"), 7, 4, 3)
    >>> list(run)
    [('b', (7, 4)), ('c', (7, 5)), ('a', (7, 6))]
    >>> run[-1], run[::2]
    (('a', (7, 6)), [('b', (7, 4)), ('a', (7, 6))])
    >>> run == [("b", (7, 4)), ("c", (7, 5)), ("a", (7, 6))]
    True
    """

    __slots__ = ("keys", "owner", "base", "count")

    def __init__(self, keys: tuple[str, ...], owner: int, base: int,
                 count: int):
        self.keys = keys
        self.owner = owner
        self.base = base
        self.count = count

    def __len__(self) -> int:
        return self.count

    def __iter__(self) -> Iterator[KeyedTuple]:
        # Consecutive ids walk the key cycle in order, starting at base's
        # key, so the tuples are built at C speed without indexing.
        keys = islice(cycle(self.keys), self.base % len(self.keys), None)
        ids = range(self.base, self.base + self.count)
        return zip(keys, zip(repeat(self.owner), ids))

    def __getitem__(self, index):
        try:
            ids = range(self.base, self.base + self.count)[index]
        except IndexError:
            raise IndexError("KeyCycleRun index out of range") from None
        keys, space, owner = self.keys, len(self.keys), self.owner
        if type(ids) is range:
            return [(keys[j % space], (owner, j)) for j in ids]
        return (keys[ids % space], (owner, ids))

    def __eq__(self, other: object) -> bool:
        if isinstance(other, KeyCycleRun):
            if (self.keys, self.owner, self.base, self.count) == (
                    other.keys, other.owner, other.base, other.count):
                return True
        elif not isinstance(other, SequenceABC):
            return NotImplemented
        return len(self) == len(other) and all(map(eq, self, other))

    __hash__ = None  # type: ignore[assignment]  # unhashable, like list

    def __deepcopy__(self, memo: dict) -> "KeyCycleRun":
        # Immutable: checkpoint snapshots may share the run as-is.
        return self

    def __reduce__(self):
        return (KeyCycleRun, (self.keys, self.owner, self.base, self.count))

    def __repr__(self) -> str:
        return (f"KeyCycleRun(<{len(self.keys)} keys>, owner={self.owner}, "
                f"base={self.base}, count={self.count})")


#: The sequence types a batch's ``tuples`` may share without copying: the
#: router hands them over as the bucket of a single-destination edge, and
#: :meth:`~repro.queries.windows.SlidingWindow.extend` keeps them as window
#: blocks.  Anything else is materialised into a list once.
SHARED_SEQUENCES = (list, tuple, KeyCycleRun)


@dataclass(frozen=True)
class Batch:
    """One batch of tuples flowing along a substream.

    ``tuples`` is a *shared, immutable-by-contract* sequence, one of
    :data:`SHARED_SEQUENCES`: the router's per-destination buckets are
    handed to the batch as-is (no re-tupling at emit), and the same object
    then lives in the upstream's output history, in the downstream inbox and
    — for window operators — inside
    :class:`~repro.queries.windows.SlidingWindow` blocks.  On a
    single-destination edge a uniform-rate source batch travels that whole
    way as one zero-copy :class:`KeyCycleRun`.  Nobody may mutate a batch's
    tuple sequence after construction.
    """

    src: TaskId
    dst: TaskId
    index: int
    tuples: Sequence[KeyedTuple] = field(default=())
    #: False when the batch lineage lost data (tentative output path).
    complete: bool = True
    #: True when the batch is a fabricated empty punctuation for a dead task.
    forged: bool = False

    @property
    def size(self) -> int:
        return len(self.tuples)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        flags = "" if self.complete else " tentative"
        flags += " forged" if self.forged else ""
        return f"Batch({self.src}->{self.dst} #{self.index} n={self.size}{flags})"


def forged_batch(src: TaskId, dst: TaskId, index: int) -> Batch:
    """An empty punctuation standing in for a failed upstream task."""
    return Batch(src=src, dst=dst, index=index, tuples=(), complete=False, forged=True)


@dataclass(frozen=True)
class SinkRecord:
    """One batch of final output captured at a sink task."""

    task: TaskId
    index: int
    tuples: tuple[KeyedTuple, ...]
    complete: bool
    emitted_at: float

    @property
    def tentative(self) -> bool:
        """Whether this output was produced from incomplete inputs."""
        return not self.complete
