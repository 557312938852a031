"""Columnar batch kernels: the operator compute plane's fast path.

PR 4 moved the engine's hot spot out of routing/checkpointing and into
``OperatorLogic.process_batch`` plus window maintenance.  This module holds
the *batch kernels* the query operators in :mod:`repro.queries` dispatch to:
whole-batch (columnar) implementations of the per-tuple inner loops, with a
numpy backend and a pure-python one.

Two guarantees shape everything here:

* **Byte parity.**  A kernel must reproduce the per-tuple reference
  implementation (`OperatorLogic.process_batch_reference`) *exactly* —
  emitted tuples, operator state and floating-point accumulators included —
  because replicas, checkpoint recovery and the golden parity fixtures all
  re-execute batches and compare byte-for-byte.  The numpy selectivity
  kernel therefore only vectorises when the arithmetic is provably exact
  (dyadic selectivities on a power-of-two grid, where float adds/subtracts
  round to nothing) and falls back to the reference loop otherwise.
* **Two backends, one answer.**  numpy is a hard dependency of the
  package (the ``zipf`` and ``traffic`` workloads import it), but every
  kernel also has a pure-python implementation, selected when
  ``REPRO_PURE_PYTHON`` is set in the environment or when
  :func:`set_kernel_backend` forces it (how the parity tests pin both
  paths).

The kernel selection mirrors the routing fast path's contract
(:meth:`repro.engine.routing.Router.distribute_reference`): the reference is
the executable specification, the kernel is the measured path, and
randomized parity tests in ``tests/test_kernels.py`` pin the two together.
"""

from __future__ import annotations

import os
from typing import Any, Sequence

try:  # pragma: no cover - depends on the environment at import
    if os.environ.get("REPRO_PURE_PYTHON"):
        raise ImportError("numpy disabled by REPRO_PURE_PYTHON")
    import numpy as _np
except ImportError:  # pragma: no cover - REPRO_PURE_PYTHON=1
    _np = None

#: Denominator grid for exact selectivity arithmetic.  A selectivity ``p/_Q``
#: with integer ``p`` keeps every accumulator value on the same grid:
#: numerators stay below ``2**31`` (far under the 2**53 float64 integer
#: range), so the reference loop's ``acc += s`` / ``acc -= 1.0`` round to
#: nothing and integer emulation is bit-exact.
_Q = 1 << 30


def _dyadic_numerator(value: float) -> int | None:
    """``value * _Q`` when that is an exact integer, else ``None``."""
    scaled = value * _Q
    numerator = int(scaled)
    return numerator if scaled == numerator else None


class BatchKernel:
    """One backend of the columnar compute plane.

    The base class *is* the pure-python backend; :class:`NumpyKernel`
    overrides the pieces numpy can do exactly.  Kernels are stateless —
    operator state (windows, accumulators, running totals) stays on the
    operator so snapshots and restores are unchanged.
    """

    #: Registry-style backend name (``"python"`` or ``"numpy"``).
    name = "python"

    # ------------------------------------------------------------------
    def selectivity_take(self, items: Sequence[Any], selectivity: float,
                         acc: float) -> tuple[list[Any], float]:
        """Batched deterministic-selectivity filter.

        Equivalent to the reference accumulator loop (``acc += s; if acc >=
        1.0: acc -= 1.0; emit``) applied to ``items`` in order: returns the
        emitted items and the updated accumulator, bit-identical to the
        loop.  This method owns the dispatch for *every* backend — the
        pass-through/empty/exactness guards live only here, so the backends
        can never disagree on which inputs take which path.  Dyadic
        selectivities whose period divides the grid become a C-speed slice;
        other dyadic selectivities go through :meth:`_general_dyadic` (the
        backend hook); inexact selectivities always run the reference loop.
        """
        if selectivity >= 1.0:
            # Pass-through: the reference emits everything, acc untouched.
            return list(items), acc
        n = len(items)
        if n == 0:
            return [], acc
        p = _dyadic_numerator(selectivity)
        a = _dyadic_numerator(acc)
        if p is None or a is None or p <= 0:
            return self._selectivity_loop(items, selectivity, acc)
        if _Q % p == 0:
            # Emissions are exactly periodic: every (_Q // p)-th item,
            # starting at the first index where the accumulator wraps.
            step = _Q // p
            first = -(-(_Q - a) // p) - 1  # ceil((_Q - a) / p) - 1
            # A slice of a list or a KeyCycleRun is already a fresh list.
            out = items[first::step]
            if type(out) is not list:
                out = list(out)
            return out, ((a + n * p) % _Q) / _Q
        return self._general_dyadic(items, selectivity, acc, p, a)

    def _general_dyadic(self, items: Sequence[Any], selectivity: float,
                        acc: float, p: int, a: int) -> tuple[list[Any], float]:
        """Backend hook for exact non-periodic dyadic selectivities.

        ``p``/``a`` are the grid numerators of ``selectivity``/``acc``.
        The base backend runs the (already exact) reference loop; the numpy
        backend vectorises with int64 arithmetic.
        """
        return self._selectivity_loop(items, selectivity, acc)

    def _selectivity_loop(self, items: Sequence[Any], selectivity: float,
                          acc: float) -> tuple[list[Any], float]:
        """The reference per-tuple loop (shared exact fallback)."""
        out: list[Any] = []
        append = out.append
        for item in items:
            acc += selectivity
            if acc >= 1.0:
                acc -= 1.0
                append(item)
        return out, acc

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return f"{type(self).__name__}()"


class PythonKernel(BatchKernel):
    """The pure-python backend (always available)."""

    name = "python"


class NumpyKernel(BatchKernel):
    """The numpy backend: vectorises the exactly-representable cases.

    Only constructed when numpy imported; anything it cannot do exactly is
    delegated to the pure-python code paths, so switching backends can never
    change results.
    """

    name = "numpy"

    def _general_dyadic(self, items: Sequence[Any], selectivity: float,
                        acc: float, p: int, a: int) -> tuple[list[Any], float]:
        """Vectorised accumulator filter for general dyadic selectivities.

        A non-periodic dyadic selectivity (e.g. ``3/8``) is computed with
        exact int64 arithmetic — the emission mask is where the integer
        accumulator crosses a multiple of ``_Q``.  Dispatch (pass-through,
        empty batches, exactness guards, the periodic slice path) lives
        solely in :meth:`BatchKernel.selectivity_take`.
        """
        n = len(items)
        totals = a + p * _np.arange(1, n + 1, dtype=_np.int64)
        emitted = _np.flatnonzero(totals // _Q > (totals - p) // _Q)
        out = [items[i] for i in emitted.tolist()]
        return out, int(totals[-1] % _Q) / _Q


_PYTHON_KERNEL = PythonKernel()
_NUMPY_KERNEL = NumpyKernel() if _np is not None else None

#: Explicit override installed by :func:`set_kernel_backend` (None = auto).
_forced: BatchKernel | None = None


def numpy_available() -> bool:
    """Whether the numpy backend can be selected in this process."""
    return _NUMPY_KERNEL is not None


def active_kernel() -> BatchKernel:
    """The kernel the operators dispatch to right now.

    Auto-selection prefers numpy when it imported (and
    ``REPRO_PURE_PYTHON`` was not set); :func:`set_kernel_backend` pins a
    specific backend for tests and benchmarks.
    """
    if _forced is not None:
        return _forced
    return _NUMPY_KERNEL if _NUMPY_KERNEL is not None else _PYTHON_KERNEL


def kernel_backend() -> str:
    """Name of the active backend (``"python"`` or ``"numpy"``)."""
    return active_kernel().name


def set_kernel_backend(name: str | None) -> None:
    """Force the kernel backend: ``"python"``, ``"numpy"`` or ``None`` (auto).

    Forcing ``"numpy"`` when numpy is unavailable raises ``ValueError`` —
    the CI matrix legs use this to prove which backend they exercised.
    """
    global _forced
    if name is None:
        _forced = None
        return
    if name == "python":
        _forced = _PYTHON_KERNEL
        return
    if name == "numpy":
        if _NUMPY_KERNEL is None:
            raise ValueError(
                "numpy backend requested but numpy is not importable "
                "(or REPRO_PURE_PYTHON is set)"
            )
        _forced = _NUMPY_KERNEL
        return
    raise ValueError(f"unknown kernel backend {name!r}; "
                     f"one of 'python', 'numpy', None")
