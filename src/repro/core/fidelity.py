"""Output Fidelity (OF): Eq. 4 of the paper (Sec. III-A.2).

OF is the rate-weighted fraction of sink output that still reflects source
input after a set of tasks failed.  A PPA replication plan is evaluated under
the *worst-case correlated failure* of Sec. IV: every task that is not
actively replicated fails simultaneously, so
``OF(plan) = OF(failed = all_tasks − plan)``.

The information-loss propagation of :mod:`repro.core.loss` makes partially
replicated MC-trees contribute nothing automatically (a replicated task whose
inputs are all lost outputs loss 1), so planners and the metric share this
single evaluation path.
"""

from __future__ import annotations

from operator import mul
from typing import AbstractSet, Iterable, Sequence

from repro.core.loss import _loss_program, _LossProgram
from repro.errors import PlanningError
from repro.topology.graph import Topology
from repro.topology.operators import TaskId
from repro.topology.rates import StreamRates


def _evaluate(program: _LossProgram, rates: StreamRates, loss: list[float],
              any_failed: bool, sink_tasks: Sequence[TaskId] | None = None,
              ignore_correlation: bool = False) -> float:
    """Eq. 4 from an initial loss state of ``program`` (propagated in place)."""
    if sink_tasks is None:
        sinks, sink_rates, total = program.sinks, program.sink_rates, program.sink_total
    else:
        sink_tasks = tuple(sink_tasks)
        sink_rates = [rates.output_rate(t) for t in sink_tasks]
        sinks = [program.index[t] for t in sink_tasks]
        total = sum(sink_rates)
    if not sinks:
        raise PlanningError("topology has no sink tasks; output fidelity is undefined")
    program.propagate(loss, ignore_correlation)
    if total <= 0.0:
        # Degenerate: sinks emit nothing even without failures. Treat any
        # failure-free configuration as fidelity 1 and anything else as 0.
        return 1.0 if not any_failed else 0.0
    lost = sum(map(mul, sink_rates, map(loss.__getitem__, sinks)))
    return max(0.0, min(1.0, 1.0 - lost / total))


def output_fidelity(topology: Topology, rates: StreamRates,
                    failed: AbstractSet[TaskId], *,
                    sink_tasks: Sequence[TaskId] | None = None,
                    ignore_correlation: bool = False) -> float:
    """Eq. 4: ``1 − Σ λ_i · IL_i / Σ λ_i`` over the sink tasks.

    ``sink_tasks`` defaults to all tasks of all sink operators.  Rates are the
    pre-failure rates, matching the paper (losses are fractions of the
    original streams).
    """
    program = _loss_program(topology, rates)
    return _evaluate(program, rates, program.failed_state(failed), bool(failed),
                     sink_tasks, ignore_correlation)


def worst_case_fidelity(topology: Topology, rates: StreamRates,
                        replicated: Iterable[TaskId]) -> float:
    """OF of a plan under the worst-case correlated failure (Sec. IV).

    All tasks outside ``replicated`` are considered failed, including source
    tasks; only completely replicated MC-trees keep contributing output.
    """
    program = _loss_program(topology, rates)
    loss = program.alive_state(replicated)
    return _evaluate(program, rates, loss, 1.0 in loss)


def single_failure_fidelity(topology: Topology, rates: StreamRates, task: TaskId) -> float:
    """OF when exactly one task fails (the ranking key of the greedy planner)."""
    return output_fidelity(topology, rates, frozenset((task,)))
