"""What one scenario run produced: :class:`ScenarioResult` and its recoveries.

Both are :class:`~repro.scenarios.spec.Record`\\ s, serialized through the
field tables below wherever results persist: cache, sinks, journals, wire.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.core.plans import ReplicationPlan
from repro.errors import ScenarioError
from repro.scenarios.spec import (
    Codec,
    Field,
    Record,
    Scenario,
    list_of,
    mapping,
    nested,
    task_ref,
    text,
    to_dicts,
    unset,
)
from repro.topology.operators import TaskId


@dataclass(frozen=True)
class RecoveryOutcome(Record):
    """One task's recovery as observed by the engine run."""

    task: TaskId
    mode: str
    fail_time: float
    detect_time: float
    recovered_time: float | None = None
    #: Approximate-recovery fidelity accounting (None for exact schemes):
    #: the configured divergence bound and the realized loss charged by the
    #: replay the scheme skipped.  Omitted from :meth:`to_dict` when None so
    #: exact-scheme results serialize exactly as before.
    fidelity_bound: float | None = None
    fidelity_loss: float | None = None

    @property
    def latency(self) -> float | None:
        """Detection-to-catch-up latency (the paper's definition), if finished."""
        if self.recovered_time is None:
            return None
        return self.recovered_time - self.detect_time


RecoveryOutcome.codec = Codec(RecoveryOutcome, "recovery", "a recovery outcome", (
    Field("task", task_ref, str),
    Field("mode", text),
    Field("fail_time", float),
    Field("detect_time", float),
    Field("recovered_time", float, nullable=True),
    Field("latency", None),
    Field("fidelity_bound", float, nullable=True, omit=unset),
    Field("fidelity_loss", float, nullable=True, omit=unset),
), label="result")


@dataclass
class ScenarioResult(Record):
    """Everything one scenario run produced, ready for tables or JSON."""

    scenario: Scenario
    plan: ReplicationPlan
    worst_case_fidelity: float
    failure_fidelity: float
    failed_tasks: tuple[TaskId, ...] = ()
    recoveries: tuple[RecoveryOutcome, ...] = ()
    batches_processed: int = 0
    tuples_processed: int = 0
    checkpoints_taken: int = 0
    batches_forged: int = 0
    complete_sink_batches: int = 0
    tentative_sink_batches: int = 0
    #: Mean sink-output accuracy vs a failure-free baseline run (the paper's
    #: Fig. 12/13 measure), only computed when the scenario requests it via
    #: ``Scenario.quality``; omitted from :meth:`to_dict` when None so runs
    #: without the quality axis serialize exactly as before.
    output_quality: float | None = None
    #: Engine-throughput profile (processed events, wall seconds, peak
    #: physical history) — only collected when the run was profiled, and
    #: machine-dependent, so it never participates in digests or
    #: result-equality comparisons of unprofiled runs.
    profile: dict[str, Any] | None = None

    # ------------------------------------------------------------------
    @property
    def recovery_latencies(self) -> tuple[float, ...]:
        """Latencies of every completed recovery."""
        return tuple(r.latency for r in self.recoveries if r.latency is not None)

    @property
    def mean_recovery_latency(self) -> float | None:
        """Mean completed recovery latency, or None when nothing recovered."""
        values = self.recovery_latencies
        if not values:
            return None
        return sum(values) / len(values)

    @property
    def max_recovery_latency(self) -> float | None:
        """Completion time of the slowest recovery (the correlated-failure view)."""
        values = self.recovery_latencies
        if not values:
            return None
        return max(values)

    @property
    def all_recovered(self) -> bool:
        """Whether every detected failure finished recovering."""
        return all(r.recovered_time is not None for r in self.recoveries)

    # ------------------------------------------------------------------
    def render(self) -> str:
        """Human-readable multi-line summary (what the CLI prints)."""
        s = self.scenario
        label = s.name or s.workload
        metric = s.objective
        lines = [f"== ScenarioResult: {label} =="]
        lines.append(
            f"workload={s.workload}  planner={self.plan.planner or s.planner}"
            f"  budget={self.plan.budget}  |plan|={self.plan.usage}"
            + (f"  recovery={s.recovery}" if s.recovery else "")
        )
        lines.append(
            f"worst-case {metric}={self.worst_case_fidelity:.3f}  "
            f"{metric} under injected failures={self.failure_fidelity:.3f}"
        )
        if self.failed_tasks:
            n_rec = sum(1 for r in self.recoveries if r.recovered_time is not None)
            mean = self.mean_recovery_latency
            peak = self.max_recovery_latency
            lines.append(
                f"failures: {len(self.failed_tasks)} tasks killed; "
                f"{n_rec}/{len(self.recoveries)} recoveries finished"
                + (f", mean {mean:.2f}s, max {peak:.2f}s" if mean is not None else "")
            )
        else:
            lines.append("failures: none injected")
        lines.append(
            f"outputs: {self.complete_sink_batches} complete + "
            f"{self.tentative_sink_batches} tentative sink batches "
            f"({self.batches_forged} forged punctuations); "
            f"{self.batches_processed} batches / "
            f"{self.tuples_processed} tuples processed"
        )
        if self.output_quality is not None:
            lines.append(
                f"output quality vs failure-free baseline: "
                f"{self.output_quality:.3f}"
            )
        if self.profile:
            p = self.profile
            lines.append(
                f"profile: {p.get('sim_seconds_per_wall_second', 0.0):,.0f} "
                f"sim-s/wall-s, {p.get('events_per_second', 0.0):,.0f} "
                f"events/s ({p.get('processed_events', 0)} events in "
                f"{p.get('wall_seconds', 0.0):.3f}s wall), peak history "
                f"{p.get('peak_history_batches', 0)} batches"
            )
        return "\n".join(lines)


_task_list = list_of(task_ref)


def _scenario(data: Any) -> Scenario:
    """The nested scenario, its errors prefixed with the result's field."""
    try:
        return Scenario.from_dict(data)
    except ScenarioError as exc:
        raise ValueError(str(exc)) from None


#: The plan with its provenance, an object inside the result document.
_PLAN = Codec(ReplicationPlan, "result plan", "a plan", (
    Field("planner", text),
    Field("budget", int, nullable=True),
    Field("replicated", lambda tasks: frozenset(_task_list(tasks)),
          lambda tasks: [str(task) for task in sorted(tasks)]),
), label="result", prefix="plan.")

#: ``mean_recovery_latency``, ``max_recovery_latency`` and ``all_recovered``
#: (like each recovery's ``latency``) are derived: accepted, recomputed.
ScenarioResult.codec = Codec(ScenarioResult, "result", "a result document", (
    Field("scenario", _scenario, Record.to_dict),
    Field("plan", nested(_PLAN.decode), _PLAN.encode),
    Field("worst_case_fidelity", float),
    Field("failure_fidelity", float),
    Field("failed_tasks", _task_list, lambda tasks: list(map(str, tasks))),
    Field("recoveries", list_of(RecoveryOutcome.from_dict), to_dicts),
    Field("mean_recovery_latency", None),
    Field("max_recovery_latency", None),
    Field("all_recovered", None),
    Field("batches_processed", int),
    Field("tuples_processed", int),
    Field("checkpoints_taken", int),
    Field("batches_forged", int),
    Field("complete_sink_batches", int),
    Field("tentative_sink_batches", int),
    Field("output_quality", float, nullable=True, omit=unset),
    Field("profile", mapping, dict, nullable=True, omit=unset),
))
