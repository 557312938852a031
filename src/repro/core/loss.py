"""Operator output-loss model: Eq. 1–3 of the paper (Sec. III-A.1).

Given a set of failed tasks, information loss is propagated from sources to
sinks through the task DAG:

* a failed task's output stream has information loss 1;
* the loss of an input stream is the rate-weighted average of the losses of
  its substreams (Eq. 1);
* a *correlated-input* (join) task's output loss treats the Cartesian product
  of its input streams as effective input:
  ``IL_out = 1 − Π_j (1 − IL_in_j)`` (Eq. 2);
* an *independent-input* task's output loss is the rate-weighted average of
  its input stream losses (Eq. 3).

The ``ignore_correlation`` flag forces Eq. 3 everywhere, which is how the
Internal Completeness baseline metric treats joins
(:mod:`repro.core.completeness`).

The compiled program
--------------------
Every planner scores thousands of failed sets on one ``(topology, rates)``
pair, so the pair is compiled once into a flat program and each failed set is
one loop over a ``list[float]`` indexed by int:

* tasks are numbered in ``topology.tasks()`` order — the topological/task
  order the propagation visits, so every upstream index is smaller;
* per non-source task one step ``(index, is_correlated, streams,
  stream_rates, rate_total)``; per input stream ``(substreams, total, λ_in)``
  with ``substreams`` the ``(source index, substream rate)`` pairs and
  ``total`` the precomputed sum of those rates; ``stream_rates`` repeats the
  ``λ_in`` of the task's streams and ``rate_total`` is their sum;
* the sink indices, the sink output rates and their sum (Eq. 4), and the
  failure-free input volume of Internal Completeness.

Programs are kept in a small LRU keyed on the *identity* of the topology and
the rates (``StreamRates`` holds dicts and is unhashable); each entry holds
weak references to both and is only served while they are the very same
objects, so an ``id()`` recycled after garbage collection can never alias.

Bit-identity contract: the program performs the same float operations in the
same order as :func:`propagate_information_loss_reference`, the dict-walking
original kept as the test oracle, so every result is ``==``, not merely
close.  In particular the program calls builtin ``sum()`` exactly where the
reference does and accumulates with ``+=`` where the reference does: from
Python 3.12 on ``sum()`` of floats is compensated and a hand-rolled loop is
not, so swapping one for the other (or vectorising with numpy, whose
reductions reorder additions) changes last digits.
"""

from __future__ import annotations

import threading
import weakref
from collections import OrderedDict
from operator import mul
from typing import AbstractSet, Iterable, Mapping

from repro.topology.graph import Topology
from repro.topology.operators import TaskId
from repro.topology.rates import StreamRates


def _clamp01(value: float) -> float:
    if value < 0.0:
        return 0.0
    if value > 1.0:
        return 1.0
    return value


def input_stream_loss(loss_by_task: Mapping[TaskId, float], rates: StreamRates,
                      task: TaskId, substreams: tuple[tuple[TaskId, float], ...]) -> float:
    """Eq. 1: rate-weighted average loss over the substreams of one input stream.

    An input stream whose total pre-failure rate is zero carries no
    information; its loss is conservatively reported as 1.
    """
    weighted = 0.0
    total = 0.0
    for src, _weight in substreams:
        rate = rates.substream_rate(src, task)
        weighted += rate * loss_by_task[src]
        total += rate
    if total <= 0.0:
        return 1.0
    return _clamp01(weighted / total)


class _LossProgram:
    """``(topology, rates)`` compiled for repeated loss propagation.

    Holds no reference to the topology or the rates (the cache refers to them
    weakly), only task ids, indices and floats.
    """

    __slots__ = ("tasks", "index", "steps", "sinks", "sink_rates", "sink_total",
                 "input_total")

    def __init__(self, topology: Topology, rates: StreamRates):
        self.tasks = topology.tasks()
        self.index = index = {task: i for i, task in enumerate(self.tasks)}
        steps = []
        input_total = 0.0
        for name in topology.topological_order():
            spec = topology.operator(name)
            if spec.is_source:
                continue
            for task in spec.tasks():
                streams = []
                for stream in topology.input_streams(task):
                    substreams = tuple(
                        (index[src], rates.substream_rate(src, task))
                        for src, _w in stream.substreams
                    )
                    total = 0.0
                    for _src, rate in substreams:
                        total += rate
                    stream_rate = rates.input_stream_rate(task, stream.upstream_operator)
                    streams.append((substreams, total, stream_rate))
                    input_total += stream_rate
                stream_rates = tuple(stream[2] for stream in streams)
                # A non-source task with no input stream cannot receive
                # information: compiled as independent-input with
                # ``rate_total == 0``, which evaluates to loss 1.
                steps.append((
                    index[task], spec.is_correlated and bool(streams), tuple(streams),
                    stream_rates, sum(stream_rates),
                ))
        self.steps = tuple(steps)
        #: Σ λ_in over every input stream: the IC denominator.
        self.input_total = input_total
        sink_tasks = topology.sink_tasks()
        self.sinks = tuple(index[task] for task in sink_tasks)
        self.sink_rates = tuple(rates.output_rate(task) for task in sink_tasks)
        self.sink_total = sum(self.sink_rates)

    def _state(self, tasks: Iterable[TaskId], mark: float) -> list[float]:
        loss = [1.0 - mark] * len(self.tasks)
        lookup = self.index.get
        for task in tasks:
            i = lookup(task)
            if i is not None:  # tasks unknown to the topology are ignored
                loss[i] = mark
        return loss

    def failed_state(self, failed: Iterable[TaskId]) -> list[float]:
        """Initial loss list with exactly the ``failed`` tasks lost."""
        return self._state(failed, 1.0)

    def alive_state(self, alive: Iterable[TaskId]) -> list[float]:
        """Initial loss list with every task lost except the ``alive`` ones."""
        return self._state(alive, 0.0)

    def propagate(self, loss: list[float], ignore_correlation: bool = False) -> float:
        """Fill ``loss`` (an initial state: 1.0 at failed tasks, else 0.0) in place.

        Returns IC's surviving input volume ``Σ λ_in · (1 − IL_in)`` over the
        input streams of the non-failed tasks, which falls out of the same
        pass.
        """
        processed = 0.0
        for i, correlated, streams, stream_rates, rate_total in self.steps:
            if loss[i]:
                continue  # failed: stays 1.0
            stream_losses = []
            for substreams, total, stream_rate in streams:
                if total <= 0.0:
                    il = 1.0
                else:
                    weighted = 0.0
                    for src, rate in substreams:
                        weighted += rate * loss[src]
                    il = weighted / total
                    if il < 0.0:
                        il = 0.0
                    elif il > 1.0:
                        il = 1.0
                stream_losses.append(il)
                processed += stream_rate * (1.0 - il)
            if correlated and not ignore_correlation:
                survival = 1.0
                for il in stream_losses:
                    survival *= 1.0 - il
                out = 1.0 - survival
            elif rate_total <= 0.0:
                out = 1.0
            else:
                out = sum(map(mul, stream_rates, stream_losses)) / rate_total
            if out < 0.0:
                out = 0.0
            elif out > 1.0:
                out = 1.0
            loss[i] = out
        return processed


_PROGRAM_CACHE_SIZE = 8
_programs: OrderedDict[tuple[int, int],
                       tuple[weakref.ref, weakref.ref, _LossProgram]] = OrderedDict()
_programs_lock = threading.Lock()


def _loss_program(topology: Topology, rates: StreamRates) -> _LossProgram:
    """The compiled program of this very ``(topology, rates)`` pair (LRU-cached)."""
    key = (id(topology), id(rates))
    with _programs_lock:
        entry = _programs.get(key)
        if entry is not None and entry[0]() is topology and entry[1]() is rates:
            _programs.move_to_end(key)
            return entry[2]
    program = _LossProgram(topology, rates)
    with _programs_lock:
        _programs[key] = (weakref.ref(topology), weakref.ref(rates), program)
        _programs.move_to_end(key)
        while len(_programs) > _PROGRAM_CACHE_SIZE:
            _programs.popitem(last=False)
    return program


def propagate_information_loss(topology: Topology, rates: StreamRates,
                               failed: AbstractSet[TaskId], *,
                               ignore_correlation: bool = False) -> dict[TaskId, float]:
    """Output-stream information loss (``IL_out``) of every task.

    Parameters
    ----------
    topology, rates:
        The query topology and its pre-failure stream rates.
    failed:
        Tasks whose outputs are entirely lost (``IL_out = 1``).
    ignore_correlation:
        Treat every operator as independent-input (used by the IC metric).

    Returns
    -------
    dict mapping every task to its output information loss in ``[0, 1]``.
    """
    program = _loss_program(topology, rates)
    loss = program.failed_state(failed)
    program.propagate(loss, ignore_correlation)
    return dict(zip(program.tasks, loss))


def propagate_information_loss_reference(
        topology: Topology, rates: StreamRates, failed: AbstractSet[TaskId], *,
        ignore_correlation: bool = False) -> dict[TaskId, float]:
    """The dict-walking original of :func:`propagate_information_loss`.

    Kept as the test oracle: the compiled program must return ``==`` floats.
    """
    loss: dict[TaskId, float] = {}
    for name in topology.topological_order():
        spec = topology.operator(name)
        correlated = spec.is_correlated and not ignore_correlation
        for task in spec.tasks():
            if task in failed:
                loss[task] = 1.0
                continue
            if spec.is_source:
                loss[task] = 0.0
                continue
            stream_losses: list[float] = []
            stream_rates: list[float] = []
            for stream in topology.input_streams(task):
                stream_losses.append(
                    input_stream_loss(loss, rates, task, stream.substreams)
                )
                stream_rates.append(
                    rates.input_stream_rate(task, stream.upstream_operator)
                )
            loss[task] = _combine_stream_losses(stream_losses, stream_rates, correlated)
    return loss


def _combine_stream_losses(stream_losses: list[float], stream_rates: list[float],
                           correlated: bool) -> float:
    """Eq. 2 (correlated) or Eq. 3 (independent) over per-stream losses."""
    if not stream_losses:
        # A non-source task with no input stream cannot receive information.
        return 1.0
    if correlated:
        survival = 1.0
        for il in stream_losses:
            survival *= 1.0 - il
        return _clamp01(1.0 - survival)
    total = sum(stream_rates)
    if total <= 0.0:
        return 1.0
    weighted = sum(r * il for r, il in zip(stream_rates, stream_losses))
    return _clamp01(weighted / total)
