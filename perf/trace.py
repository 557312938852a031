"""In-memory span tracer used by the traced benchmark pass.

A span is one call across a layer boundary.  It is stored as a plain tuple::

    (name, start, end, self_s, span_id, parent_id, op, count, key)

``start``/``end`` are ``time.perf_counter()`` readings (CLOCK_MONOTONIC on
Linux, so spans recorded in the server process line up with the benchmark
process's timed window).  ``self_s`` is the span's duration minus the part
its child spans cover; ``parent_id`` is the span that caused it (-1 for a
root); ``op`` is the benchmark operation it belongs to; ``count`` is the
work the call handled (tuples, cells, ...) and ``key`` an optional
correlation key (a cell id).  Spans stay in memory until the pass ends.

Everything here is benchmark-side: wrappers are installed around *public*
callables of ``src/`` by name and removed again, nothing in ``src/`` knows
about them.  A target that no longer resolves is recorded in
:attr:`Tracer.missing` instead of raising, so a refactor that renames a
layer turns its metric into a reported gap, not a broken benchmark.
"""

from __future__ import annotations

import importlib
import itertools
import json
import threading
from contextlib import contextmanager
from time import perf_counter
from typing import Any, Callable, Iterable

#: Span tuple field positions.
NAME, START, END, SELF, SPAN_ID, PARENT, OP, COUNT, KEY = range(9)

CountFn = Callable[[tuple, dict, Any], float]
KeyFn = Callable[[tuple, dict, Any], Any]


def resolve(target: str) -> tuple[Any, str, Any]:
    """``"pkg.module:Attr.path"`` -> ``(owner, attribute name, value)``.

    Raises ``ImportError``/``AttributeError`` when the target is gone.
    """
    module_name, _, path = target.partition(":")
    owner: Any = importlib.import_module(module_name)
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1], getattr(owner, parts[-1])


class LayerTotals:
    """Calls, self time, inclusive time and handled work of one span name."""

    __slots__ = ("calls", "busy_s", "total_s", "count")

    def __init__(self) -> None:
        self.calls = 0
        self.busy_s = 0.0
        self.total_s = 0.0
        self.count = 0.0


class Tracer:
    """Records spans and installs/removes the wrappers that produce them."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.counters: dict[str, float] = {}
        #: Probe targets that did not resolve (reported as ``probes_missing``).
        self.missing: list[str] = []
        #: The benchmark operation currently running (-1 outside any).
        self.op = -1
        #: Calibrated wall cost one wrapper adds *outside* its own span; it
        #: is credited to the child so a parent's self time is not inflated
        #: by the tracing of its children.
        self.span_cost_s = 0.0
        self._ids = itertools.count()
        self._local = threading.local()
        self._patches: list[tuple[Any, str, Any]] = []

    # -- recording -------------------------------------------------------
    def _stack(self) -> list:
        try:
            return self._local.stack
        except AttributeError:
            stack = self._local.stack = []
            return stack

    def _open(self, name: str) -> tuple[list, list | None]:
        stack = self._stack()
        parent = stack[-1] if stack else None
        frame = [name, 0.0, next(self._ids)]
        stack.append(frame)
        return frame, parent

    def _close(self, frame: list, parent: list | None, start: float,
               count: float, key: Any) -> None:
        end = perf_counter()
        self._stack().pop()
        duration = end - start
        if parent is not None:
            parent[1] += duration + self.span_cost_s
        self.spans.append((frame[0], start, end, duration - frame[1],
                           frame[2], parent[2] if parent is not None else -1,
                           self.op, count, key))

    @contextmanager
    def span(self, name: str, count: float = 1, key: Any = None):
        """Record the ``with`` body as one span."""
        frame, parent = self._open(name)
        start = perf_counter()
        try:
            yield
        finally:
            self._close(frame, parent, start, count, key)

    def wrap(self, name: str, fn: Callable, count: CountFn | None = None,
             key: KeyFn | None = None) -> Callable:
        """``fn`` with a span around every outermost call.

        A call made while a span of the same name is already the innermost
        open one (``super()`` chains, recursion inside one layer) runs
        untraced, so one logical call is one span.
        """
        tracer = self

        def traced(*args, **kwargs):
            stack = tracer._stack()
            if stack and stack[-1][0] == name:
                return fn(*args, **kwargs)
            frame, parent = tracer._open(name)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer._close(frame, parent, start, 0, None)
                raise
            tracer._close(frame, parent, start,
                          count(args, kwargs, result) if count else 1,
                          key(args, kwargs, result) if key else None)
            return result

        traced.__wrapped__ = fn  # type: ignore[attr-defined]
        return traced

    def add(self, counter: str, amount: float = 1) -> None:
        self.counters[counter] = self.counters.get(counter, 0) + amount

    def calibrate(self, batches: int = 8, calls: int = 2500) -> float:
        """Measure :attr:`span_cost_s` on this machine (spans are discarded).

        The smallest of several batches, so a garbage collection or a
        descheduling in one of them does not end up in the constant.
        """
        probe = self.wrap("bench.calibrate", lambda: None)
        self.span_cost_s = 0.0
        costs = []
        for _ in range(batches):
            kept = len(self.spans)
            with self.span("bench.calibrate.outer"):
                start = perf_counter()
                for _ in range(calls):
                    probe()
                wall = perf_counter() - start
            inside = sum(s[END] - s[START]
                         for s in self.spans[kept:kept + calls])
            del self.spans[kept:]
            costs.append((wall - inside) / calls)
        self.span_cost_s = max(0.0, min(costs))
        return self.span_cost_s

    # -- installing wrappers by name -------------------------------------
    def replace(self, target: str,
                make: Callable[[Callable], Callable]) -> bool:
        """Swap ``target`` for ``make(original)`` until :meth:`unpatch`.

        Returns ``False`` (and notes the target as missing) when the target
        does not resolve.
        """
        try:
            owner, attr, original = resolve(target)
        except (ImportError, AttributeError):
            self.missing.append(target)
            return False
        self._patches.append((owner, attr, original))
        setattr(owner, attr, make(original))
        return True

    def patch(self, target: str, name: str, count: CountFn | None = None,
              key: KeyFn | None = None) -> bool:
        """Put a span called ``name`` around every call of ``target``."""
        return self.replace(
            target, lambda original: self.wrap(name, original, count, key))

    def unpatch(self) -> None:
        """Restore every callable :meth:`replace`/:meth:`patch` swapped."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- reading ---------------------------------------------------------
    def totals(self, start: float | None = None,
               end: float | None = None) -> dict[str, LayerTotals]:
        return totals(self.spans, start, end)

    def dump(self, path: str, **extra: Any) -> None:
        """Write spans, counters and missing probes as one JSON document."""
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"fields": ["name", "start", "end", "self_s", "span",
                                  "parent", "op", "count", "key"],
                       "spans": self.spans, "counters": self.counters,
                       "missing": self.missing, **extra}, handle)


def totals(spans: Iterable[tuple], start: float | None = None,
           end: float | None = None) -> dict[str, LayerTotals]:
    """Per-name :class:`LayerTotals` of the spans that began in the window."""
    out: dict[str, LayerTotals] = {}
    for span in spans:
        if start is not None and span[START] < start:
            continue
        if end is not None and span[START] > end:
            continue
        layer = out.get(span[NAME])
        if layer is None:
            layer = out[span[NAME]] = LayerTotals()
        layer.calls += 1
        layer.busy_s += span[SELF]
        layer.total_s += span[END] - span[START]
        layer.count += span[COUNT] or 0
    return out


def layer(all_totals: dict[str, LayerTotals], name: str) -> LayerTotals:
    """The totals of ``name`` (all zero when the layer never ran)."""
    return all_totals.get(name) or LayerTotals()


def load_dump(path: str) -> dict[str, Any]:
    """Read a :meth:`Tracer.dump` file; spans come back as tuples."""
    with open(path, encoding="utf-8") as handle:
        data = json.load(handle)
    data["spans"] = [tuple(span) for span in data["spans"]]
    return data
