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
and :class:`KeyCycleRun` — strided id ranges that compute their ``(key,
(owner, n))`` tuples on demand.  A source batch is one such range, a
periodic selectivity take of a run is again a run, and an operator's takes
of its upstreams concatenate into one, and a :class:`SinkRecord` keeps the
sink operator's sequence as-is, so on the Fig. 6 merge chain no tuple is
built until a reader of a sink record asks for it.
"""

from __future__ import annotations

import operator
from collections import namedtuple
from collections.abc import Sequence as SequenceABC
from dataclasses import FrozenInstanceError
from itertools import chain, cycle, repeat
from math import gcd
from typing import Any, Iterable, Iterator, Sequence

from repro.topology.operators import TaskId

#: A stream element: ``(key, value)``.
KeyedTuple = tuple[str, Any]


class KeyCycleRun:
    """Strided runs of key-cycle tuples, built on demand.

    A run is a tuple of *segments* ``(keys, owner, base, step, count)``, read
    one after the other.  Item ``i`` of a segment is ``(keys[n % len(keys)],
    (owner, n))`` with ``n = base + i*step``, for ``0 <= i < count``; it is
    built on demand, so the run itself holds only its segments.  A source
    batch, ``KeyCycleRun(keys, owner, base, count)``, is one segment with
    step 1; a selectivity take ``run[first::k]`` multiplies the step, and an
    operator's per-upstream takes concatenate (:meth:`concat`), so an
    ``n``-way merge chain stays lazy end to end.

    The run behaves as an immutable sequence: ``len``, iteration, int
    indexing (negative indexes included) and slicing, where a slice is
    again a run.  It compares equal to any sequence with the same items, is
    unhashable like ``list``, pickles, and deep-copies to itself.

    >>> run = KeyCycleRun(("a", "b", "c"), 7, 4, 3)
    >>> list(run)
    [('b', (7, 4)), ('c', (7, 5)), ('a', (7, 6))]
    >>> run[-1], run[::2]
    (('a', (7, 6)), KeyCycleRun(<1 segment>, len=2))
    >>> list(KeyCycleRun.concat([run[::2], run[1:]]))
    [('b', (7, 4)), ('a', (7, 6)), ('c', (7, 5)), ('a', (7, 6))]
    >>> run == [("b", (7, 4)), ("c", (7, 5)), ("a", (7, 6))]
    True
    """

    __slots__ = ("segments", "_len")

    def __init__(self, keys: tuple[str, ...], owner: int, base: int,
                 count: int):
        # One step-1 segment: a source batch.  Takes and concatenations
        # build their multi-segment runs through ``_run``.
        self.segments = ((keys, owner, base, 1, count),) if count else ()
        self._len = count

    @staticmethod
    def concat(runs: Iterable["KeyCycleRun"]) -> "KeyCycleRun":
        """The runs read one after the other, as one run."""
        segments: tuple = ()
        length = 0
        for run in runs:
            segments += run.segments
            length += run._len
        return _run(segments, length)

    def __len__(self) -> int:
        return self._len

    def __iter__(self) -> Iterator[KeyedTuple]:
        return chain.from_iterable(map(_segment_tuples, self.segments))

    def __getitem__(self, index):
        if isinstance(index, slice):
            return self._slice(range(self._len)[index])
        i = operator.index(index)
        if i < 0:
            i += self._len
        if not 0 <= i < self._len:
            raise IndexError("KeyCycleRun index out of range")
        for keys, owner, base, step, count in self.segments:
            if i < count:
                n = base + i * step
                return (keys[n % len(keys)], (owner, n))
            i -= count

    def _slice(self, picked: range) -> "KeyCycleRun":
        """The items at positions ``picked``, in that order, as a run."""
        if picked.step < 0:
            # Take the same positions forwards, then reverse every segment
            # and the segment order.
            return _run(tuple(
                (keys, owner, base + (count - 1) * step, -step, count)
                for keys, owner, base, step, count
                in reversed(self._slice(picked[::-1]).segments)
            ), len(picked))
        first, stride, total = picked.start, picked.step, len(picked)
        segments = []
        start = 0
        for keys, owner, base, step, count in self.segments:
            # Positions of ``picked`` inside [start, start + count) are its
            # items lo..hi-1 (ceiling divisions, clamped to the range).
            lo = -((first - start) // stride)
            if lo < 0:
                lo = 0
            hi = -((first - start - count) // stride)
            if hi > total:
                hi = total
            if hi > lo:
                offset = first + lo * stride - start
                segments.append((keys, owner, base + offset * step,
                                 step * stride, hi - lo))
            start += count
        return _run(tuple(segments), total)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, KeyCycleRun):
            if self.segments == other.segments:
                return True
        elif not isinstance(other, SequenceABC):
            return NotImplemented
        return len(self) == len(other) and all(map(operator.eq, self, other))

    __hash__ = None  # type: ignore[assignment]  # unhashable, like list

    def __deepcopy__(self, memo: dict) -> "KeyCycleRun":
        # Immutable: checkpoint snapshots may share the run as-is.
        return self

    def __reduce__(self):
        return (_run, (self.segments, self._len))

    def __repr__(self) -> str:
        n = len(self.segments)
        return (f"KeyCycleRun(<{n} segment{'' if n == 1 else 's'}>, "
                f"len={len(self)})")


def _run(segments: tuple, length: int) -> KeyCycleRun:
    """A run of non-empty ``segments`` holding ``length`` items in all."""
    run = object.__new__(KeyCycleRun)
    run.segments = segments
    run._len = length
    return run


def _segment_tuples(segment: tuple[tuple[str, ...], int, int, int, int]
                    ) -> Iterator[KeyedTuple]:
    """The tuples of one run segment, built at C speed without indexing."""
    keys, owner, base, step, count = segment
    ids = range(base, base + step * count, step)
    # Strided ids walk the key cycle with a period of len(keys) / gcd.
    space = len(keys)
    period = space // gcd(step, space)
    cycled = cycle([keys[n % space] for n in ids[:period]])
    return zip(cycled, zip(repeat(owner), ids))


#: The sequence types a batch's ``tuples`` may share without copying: the
#: router hands them over as the bucket of a single-destination edge, and
#: :meth:`~repro.queries.windows.SlidingWindow.extend` keeps them as window
#: blocks.  Anything else is materialised into a list once.
SHARED_SEQUENCES = (list, tuple, KeyCycleRun)


#: The stored fields of a :class:`Batch`, ``size`` last.
_BatchFields = namedtuple(
    "_BatchFields", "src dst index tuples complete forged size")
_new_tuple = tuple.__new__
_tuple_eq = tuple.__eq__


class Batch(_BatchFields):
    """One batch of tuples flowing along a substream.

    ``tuples`` is a *shared, immutable-by-contract* sequence, one of
    :data:`SHARED_SEQUENCES`: the router's per-destination buckets are
    handed to the batch as-is (no re-tupling at emit), and the same object
    then lives in the upstream's output history, in the downstream inbox and
    — for window operators — inside
    :class:`~repro.queries.windows.SlidingWindow` blocks.  On a
    single-destination edge a uniform-rate source batch, and a periodic
    selectivity operator's output, travels that whole way as one zero-copy
    :class:`KeyCycleRun`.  Nobody may mutate a batch's tuple sequence after
    construction.

    The engine builds one batch per emitted substream, so the class is a
    tuple underneath: building one is a single C call, and ``size`` is
    counted once, here, instead of on every read.  Fields are read by name;
    assigning one raises, and batches compare equal only to batches with
    equal fields, as a frozen dataclass would:

    >>> b = Batch("S", "O", 3, ("a", "b"))
    >>> b.size, b.complete, b.forged
    (2, True, False)
    >>> b == Batch("S", "O", 3, ("a", "b")), b == tuple(b), b != tuple(b)
    (True, False, True)
    >>> b.size = 5  # doctest: +IGNORE_EXCEPTION_DETAIL
    Traceback (most recent call last):
        ...
    AttributeError: can't set attribute
    """

    __slots__ = ()

    def __new__(cls, src: TaskId, dst: TaskId, index: int,
                tuples: Sequence[KeyedTuple] = (), complete: bool = True,
                forged: bool = False) -> "Batch":
        # ``complete`` is False when the batch lineage lost data (the
        # tentative output path); ``forged`` marks a fabricated empty
        # punctuation for a dead task.
        return _new_tuple(cls, (src, dst, index, tuples, complete, forged,
                                len(tuples)))

    def __getnewargs__(self) -> tuple:
        # Pickle and deepcopy rebuild through ``__new__``: ``size`` is
        # derived, not an argument.
        return self[:6]

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return _tuple_eq(self, other)
        # A plain tuple would otherwise answer for the batch's fields.
        return False if isinstance(other, tuple) else NotImplemented

    def __ne__(self, other: object) -> bool:
        equal = self.__eq__(other)
        return equal if equal is NotImplemented else not equal

    __hash__ = tuple.__hash__

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        flags = "" if self.complete else " tentative"
        flags += " forged" if self.forged else ""
        return f"Batch({self.src}->{self.dst} #{self.index} n={self.size}{flags})"


def forged_batch(src: TaskId, dst: TaskId, index: int) -> Batch:
    """An empty punctuation standing in for a failed upstream task."""
    return Batch(src=src, dst=dst, index=index, tuples=(), complete=False, forged=True)


class SinkRecord:
    """One batch of final output captured at a sink task.

    ``outputs`` is the sequence the sink operator returned, kept as-is: one
    of :data:`SHARED_SEQUENCES`, under the same never-mutate contract as
    :attr:`Batch.tuples`.  ``tuples`` builds the tuple of its items on each
    read, so a run builds no output tuple that nobody reads.  Otherwise it
    behaves as a frozen dataclass of ``(task, index, tuples, complete,
    emitted_at)``: constructor, repr, equality, hash and pickle bytes do not
    depend on which sequence type it holds.

    >>> record = SinkRecord("K", 4, KeyCycleRun(("a", "b"), 7, 0, 2), True, 2.5)
    >>> record.outputs
    KeyCycleRun(<1 segment>, len=2)
    >>> record
    SinkRecord(task='K', index=4, tuples=(('a', (7, 0)), ('b', (7, 1))), complete=True, emitted_at=2.5)
    >>> record == SinkRecord("K", 4, [("a", (7, 0)), ("b", (7, 1))], True, 2.5)
    True
    """

    __slots__ = ("task", "index", "outputs", "complete", "emitted_at")

    def __init__(self, task: TaskId, index: int,
                 tuples: Sequence[KeyedTuple], complete: bool,
                 emitted_at: float):
        self.__setstate__({"task": task, "index": index, "tuples": tuples,
                           "complete": complete, "emitted_at": emitted_at})

    @property
    def tuples(self) -> tuple[KeyedTuple, ...]:
        """The output items as a tuple, built on each read (a tuple
        ``outputs`` is returned as-is)."""
        return tuple(self.outputs)

    @property
    def tentative(self) -> bool:
        """Whether this output was produced from incomplete inputs."""
        return not self.complete

    def __getstate__(self) -> dict[str, Any]:
        # The dataclass's instance dict, so pickles stay byte-identical.
        return {"task": self.task, "index": self.index, "tuples": self.tuples,
                "complete": self.complete, "emitted_at": self.emitted_at}

    def __setstate__(self, state: dict[str, Any]) -> None:
        setter = object.__setattr__
        for name, value in state.items():
            setter(self, "outputs" if name == "tuples" else name, value)

    def __setattr__(self, name: str, value: Any) -> None:
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self.__getstate__() == other.__getstate__()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(tuple(self.__getstate__().values()))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}"
                           for name, value in self.__getstate__().items())
        return f"{self.__class__.__qualname__}({fields})"
