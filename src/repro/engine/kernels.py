"""The selectivity kernel: the synthetic operator's batch fast path.

:class:`~repro.queries.synthetic.WindowedSelectivityOperator` keeps a
deterministic accumulator per task (``acc += s; if acc >= 1.0: acc -= 1.0;
emit``).  :meth:`BatchKernel.selectivity_take` applies that loop to a whole
batch and must reproduce it *exactly* — emitted tuples and the float
accumulator — because replicas, checkpoint recovery and the golden parity
fixtures all re-execute batches and compare byte for byte.  It therefore
takes a shortcut only where the arithmetic is provably exact: a dyadic
selectivity ``p / 2**30`` whose period divides the grid (``0.5``, ``0.25``,
…) with an accumulator on the same grid emits every ``(2**30 / p)``-th
item, which is one strided slice.  Every other selectivity — non-periodic
dyadic ones such as ``3/8`` and inexact ones such as ``0.3`` — runs the
per-tuple loop.

The paper's synthetic operator has selectivity 0.5 (Sec. VI-A), so every
Fig. 6 take is the slice.  A numpy backend once vectorised the non-periodic
dyadic case, but no benchmark workload reached that path, and runs with it
measured within noise of pure Python (``steady_tuples`` medians 37.4 M vs
36.8 M tuples/s over 9 interleaved pairs), so there is one kernel.

A periodic take of a :class:`~repro.engine.tuples.KeyCycleRun` is a run;
every other take is a fresh list:

>>> run = KeyCycleRun(("a", "b", "c"), 0, 0, 8)
>>> taken, acc = KERNEL.selectivity_take(run, 0.5, 0.0)
>>> type(taken).__name__, len(taken), acc
('KeyCycleRun', 4, 0.0)
>>> items = list(range(8))
>>> KERNEL.selectivity_take(items, 0.375, 0.0)
([2, 5, 7], 0.0)
>>> _selectivity_loop(items, 0.375, 0.0)
([2, 5, 7], 0.0)

Each operator's per-tuple ``process_batch_reference`` stays the executable
specification, as ``Router.distribute_reference`` does for routing;
``tests/test_kernels.py`` pins the kernel to it.
"""

from __future__ import annotations

import functools
from typing import Any, Sequence

from repro.engine.tuples import KeyCycleRun

#: Denominator grid for exact selectivity arithmetic.  A selectivity ``p/_Q``
#: with integer ``p`` keeps every accumulator value on the same grid:
#: numerators stay below ``2**31`` (far under the 2**53 float64 integer
#: range), so the reference loop's ``acc += s`` / ``acc -= 1.0`` round to
#: nothing and integer emulation is bit-exact.
_Q = 1 << 30


@functools.lru_cache(maxsize=64)
def _dyadic_numerator(value: float) -> int | None:
    """``value * _Q`` when that is an exact integer, else ``None``.

    Asked once per operator batch for its selectivity, of which a run has
    a handful, so it is memoized.
    """
    scaled = value * _Q
    numerator = int(scaled)
    return numerator if scaled == numerator else None


def _selectivity_loop(items: Sequence[Any], selectivity: float,
                      acc: float) -> tuple[list[Any], float]:
    """The reference per-tuple accumulator loop (the exact fallback)."""
    out: list[Any] = []
    append = out.append
    for item in items:
        acc += selectivity
        if acc >= 1.0:
            acc -= 1.0
            append(item)
    return out, acc


class BatchKernel:
    """The operator compute plane's batch kernel.

    Stateless: operator state (windows, accumulators) stays on the operator,
    so snapshots and restores are unchanged.  Operators call the one
    instance :data:`KERNEL`.
    """

    def selectivity_take(self, items: Sequence[Any], selectivity: float,
                         acc: float) -> tuple[Sequence[Any], float]:
        """Batched deterministic-selectivity filter.

        Equivalent to the reference accumulator loop applied to ``items``
        in order: returns the emitted items and the updated accumulator,
        bit-identical to the loop.  Periodic dyadic selectivities become a
        C-speed slice (a :class:`~repro.engine.tuples.KeyCycleRun` input
        yields a lazy run, every other input a fresh list); every other
        selectivity runs the loop.
        """
        if selectivity >= 1.0:
            # Pass-through: the reference emits everything, acc untouched.
            return list(items), acc
        n = len(items)
        if n == 0:
            return [], acc
        p = _dyadic_numerator(selectivity)
        # The accumulator takes many values: its numerator is worked out
        # inline rather than memoized.
        scaled = acc * _Q
        a = int(scaled)
        if p is None or scaled != a or p <= 0 or _Q % p:
            return _selectivity_loop(items, selectivity, acc)
        # Emissions are exactly periodic: every (_Q // p)-th item, starting
        # at the first index where the accumulator wraps.
        step = _Q // p
        first = -(-(_Q - a) // p) - 1  # ceil((_Q - a) / p) - 1
        # A list's slice is a fresh list and a KeyCycleRun's a lazy run, so
        # the kept tuples of a source run are never built here.
        out = items[first::step]
        if type(out) not in (list, KeyCycleRun):
            out = list(out)
        return out, ((a + n * p) % _Q) / _Q


#: The kernel every operator dispatches to.
KERNEL = BatchKernel()
