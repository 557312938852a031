"""Internal Completeness (IC): the baseline quality metric of [4] (Sec. VI-B).

IC measures "the fraction of the tuples that are expected to be processed by
all the tasks in case of failures compared to the case without failures".
Two properties distinguish it from Output Fidelity:

* it weighs *every* task's processed volume, not only the sink outputs;
* it ignores the correlation between a join's input streams (losses are
  always combined with the independent-input rule, Eq. 3).

The paper shows experimentally (Fig. 12(b)) that ignoring correlation makes
IC a poor predictor for queries with joins; this module exists so that the
comparison can be reproduced.
"""

from __future__ import annotations

from typing import AbstractSet, Iterable

from repro.core.loss import _loss_program, _LossProgram
from repro.topology.graph import Topology
from repro.topology.operators import TaskId
from repro.topology.rates import StreamRates


def _evaluate(program: _LossProgram, loss: list[float], any_failed: bool) -> float:
    """IC from an initial loss state of ``program`` (propagated in place)."""
    processed = program.propagate(loss, ignore_correlation=True)
    total = program.input_total
    if total <= 0.0:
        return 1.0 if not any_failed else 0.0
    return max(0.0, min(1.0, processed / total))


def internal_completeness(topology: Topology, rates: StreamRates,
                          failed: AbstractSet[TaskId]) -> float:
    """IC over all non-source tasks.

    For every non-source, non-failed task the surviving input volume is
    ``Σ_streams λ_in · (1 − IL_in)``; failed tasks process nothing.  IC is the
    ratio of surviving input volume to the failure-free input volume, summed
    over the whole topology.  Losses are propagated with joins treated as
    independent-input operators, matching [4].
    """
    program = _loss_program(topology, rates)
    return _evaluate(program, program.failed_state(failed), bool(failed))


def worst_case_completeness(topology: Topology, rates: StreamRates,
                            replicated: Iterable[TaskId]) -> float:
    """IC of a plan under the worst-case correlated failure (all others fail)."""
    program = _loss_program(topology, rates)
    loss = program.alive_state(replicated)
    return _evaluate(program, loss, 1.0 in loss)


def single_failure_completeness(topology: Topology, rates: StreamRates,
                                task: TaskId) -> float:
    """IC when exactly one task fails (greedy ranking under the IC objective)."""
    return internal_completeness(topology, rates, frozenset((task,)))
