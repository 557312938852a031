"""The three policy families a recovery scheme is declared from.

Against the Nasir taxonomy (arXiv:1605.00928) a fault-tolerance scheme is
one choice on each of three independent axes: *placement* (which tasks keep
a hot replica, and where it lives), *catch-up* (how a task without a live
replica gets back to the live edge) and checkpoint *cadence*.  The first
policy of each family — :class:`PlanPlacement`, :class:`ConfiguredCatchUp`,
:class:`FixedCadence` — is also the family's base class: it documents the
hooks :class:`~repro.engine.recovery.RecoveryScheme` calls and gives the
paper's PPA behaviour as the default.  Policies hold per-run state (one
instance per engine run) and take their parameters as keyword-only
constructor arguments; the scheme routes each ``recovery_params`` entry to
the policy that declares it.
"""

from __future__ import annotations

import inspect
import math
from typing import TYPE_CHECKING, AbstractSet, Iterable, Mapping

from repro.engine.checkpoint import CheckpointTimings
from repro.engine.cluster import placement_node_map
from repro.engine.config import PassiveStrategy
from repro.engine.metrics import RecoveryMode
from repro.engine.tasks import TaskRuntime
from repro.errors import SimulationError
from repro.topology.graph import Topology
from repro.topology.operators import TaskId

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.engine.checkpoint import Checkpoint
    from repro.engine.recovery.scheme import RecoveryContext


def policy_params(policy: type) -> tuple[str, ...]:
    """The keyword-only parameters ``policy``'s constructor declares."""
    return tuple(name for name, parameter
                 in inspect.signature(policy).parameters.items()
                 if parameter.kind is parameter.KEYWORD_ONLY)


def _coerce(name: str, kind: type, value: object):
    try:
        return kind(value)
    except (TypeError, ValueError):
        raise SimulationError(
            f"{name} must be a {kind.__name__}, got {value!r}") from None


class Policy:
    """One axis of a scheme; :meth:`RecoveryScheme.attach` binds ``ctx``."""

    ctx: "RecoveryContext" = None  # type: ignore[assignment]


# ----------------------------------------------------------------------
# Placement
# ----------------------------------------------------------------------
class PlanPlacement(Policy):
    """Hot replicas for exactly the replication plan (the paper's PPA)."""

    #: Whether the policy places replicas against the node→rack map the
    #: failure models kill by (``placement``/``assignment`` parameters).
    consumes_failure_domains = False

    def replicated_tasks(self, topology: Topology,
                         planned: AbstractSet[TaskId]) -> frozenset[TaskId]:
        """Which tasks keep a hot replica."""
        return frozenset(planned)

    def on_task_failed(self, rt: TaskRuntime) -> Iterable[TaskId]:
        """Tasks whose *replica* dies together with ``rt``'s primary."""
        return ()


class NoReplicas(PlanPlacement):
    """No task has a hot replica; the plan is ignored."""

    def replicated_tasks(self, topology: Topology,
                         planned: AbstractSet[TaskId]) -> frozenset[TaskId]:
        return frozenset()


class AllReplicas(PlanPlacement):
    """Every task, sources included, keeps a hot replica."""

    def replicated_tasks(self, topology: Topology,
                         planned: AbstractSet[TaskId]) -> frozenset[TaskId]:
        return frozenset(topology.tasks())


class RackDisjointPlacement(PlanPlacement):
    """The plan's replicas, each on another rack than its primary.

    Consumes the same node→rack ``placement`` mapping (and optional
    task→node ``assignment`` pins) that the ``rack-correlated`` failure
    model uses to pick its victims, so no single blast radius takes out
    both a task and its standby.  Primaries follow the shared round-robin
    placement (:func:`~repro.engine.cluster.placement_node_map`), which is
    exactly how the failure model maps tasks to nodes.  With no
    ``placement`` this is plain :class:`PlanPlacement`.  When a later wave
    *does* take out a rack hosting replicas (multi-rack outages), those
    replicas die with it and their tasks fall back to passive recovery.
    """

    consumes_failure_domains = True

    def __init__(self, *, placement: Mapping[str, str] | None = None,
                 assignment: Mapping[str, object] | None = None) -> None:
        #: node name → rack id (from ``placement``).
        self.rack_of: dict[str, str] = {
            str(node): str(rack) for node, rack
            in _coerce("placement", dict, placement or {}).items()}
        self._assignment = _coerce("assignment", dict, assignment or {})
        if self._assignment and not self.rack_of:
            raise SimulationError(
                "assignment pins need a placement map to pin into")
        #: task → node hosting its primary (all tasks; shared round-robin).
        self.primary_host: dict[TaskId, str] = {}
        #: planned task → node hosting its standby replica (different rack).
        self.replica_host: dict[TaskId, str] = {}
        self._dead_nodes: set[str] = set()

    def replicated_tasks(self, topology: Topology,
                         planned: AbstractSet[TaskId]) -> frozenset[TaskId]:
        if not self.rack_of:
            return frozenset(planned)
        nodes = list(self.rack_of)
        by_rack: dict[str, list[str]] = {}
        for node in nodes:
            by_rack.setdefault(self.rack_of[node], []).append(node)
        if len(by_rack) < 2:
            raise SimulationError(
                "rack-disjoint placement needs a placement spanning at "
                f"least two racks; got {list(by_rack)!r}"
            )
        pins: dict[TaskId, str] = {}
        for ref, node_name in self._assignment.items():
            task = ref if isinstance(ref, TaskId) else TaskId.parse(str(ref))
            if task is None or task not in topology.tasks():
                raise SimulationError(f"assignment pins unknown task {ref!r}")
            node_name = str(node_name)
            if node_name not in self.rack_of:
                known = ", ".join(repr(n) for n in nodes)
                raise SimulationError(
                    f"assignment pins {task} to unknown node "
                    f"{node_name!r}; placement has {known}"
                )
            pins[task] = node_name
        self.primary_host = placement_node_map(topology.tasks(), nodes, pins)

        rack_cursor = 0
        node_cursor = dict.fromkeys(by_rack, 0)
        for task in topology.tasks():
            if task not in planned:
                continue
            primary_rack = self.rack_of[self.primary_host[task]]
            candidates = [r for r in by_rack if r != primary_rack]
            rack = candidates[rack_cursor % len(candidates)]
            rack_cursor += 1
            hosts = by_rack[rack]
            self.replica_host[task] = hosts[node_cursor[rack] % len(hosts)]
            node_cursor[rack] += 1
        return frozenset(planned)

    def on_task_failed(self, rt: TaskRuntime) -> Iterable[TaskId]:
        """Track the blast radius: a dead node kills the replicas it hosts."""
        node = self.primary_host.get(rt.task)
        if node is None or node in self._dead_nodes or not self.replica_host:
            return ()
        self._dead_nodes.add(node)
        return [task for task, host in sorted(self.replica_host.items())
                if host == node]


# ----------------------------------------------------------------------
# Catch-up
# ----------------------------------------------------------------------
class ConfiguredCatchUp(Policy):
    """Passive recovery per ``EngineConfig.passive_strategy`` (PPA)."""

    def passive_mode(self) -> RecoveryMode:
        """How a task without a live replica rebuilds its state."""
        if self.ctx.config.passive_strategy is PassiveStrategy.CHECKPOINT:
            return RecoveryMode.CHECKPOINT
        return RecoveryMode.SOURCE_REPLAY

    def skip_to(self, rt: TaskRuntime,
                checkpoint: "Checkpoint | None") -> int | None:
        """The batch to resume ``rt`` at *without* replaying what it missed.

        Asked once per restore, with the checkpoint about to be loaded.
        ``None`` (the default) means exact recovery: resume after the
        checkpoint and request replay.
        """
        return None

    def skipped(self, rt: TaskRuntime, lo: int, hi: int) -> None:
        """``rt`` resumed past output batches ``[lo, hi)``; never sent."""

    def replay_skipped(self, up: TaskRuntime, sub: TaskRuntime,
                       from_exclusive: int, upto: int) -> Iterable[int]:
        """Batches of ``(from, upto]`` that ``up`` skipped and owes ``sub``
        a punctuation for, since no replay will ever produce them."""
        return ()


class CheckpointCatchUp(ConfiguredCatchUp):
    """Always restore the latest checkpoint and replay upstream buffers."""

    def passive_mode(self) -> RecoveryMode:
        return RecoveryMode.CHECKPOINT


class SourceReplayCatchUp(ConfiguredCatchUp):
    """Vanilla Storm: never restore; replay sources through the topology."""

    def passive_mode(self) -> RecoveryMode:
        return RecoveryMode.SOURCE_REPLAY


class SkipWithinBound(CheckpointCatchUp):
    """Approximate fault tolerance: bounded-loss recovery without replay.

    Replaying the backlog is what recovery latency is made of.  This policy
    (after Cheng et al., arXiv:1811.04570) instead *jumps* the task to the
    live edge — restore the latest checkpoint for state, skip the batches
    that fell into the outage, resume with the next batch the topology
    produces — whenever the estimated output divergence of doing so stays
    within ``fidelity_bound``.  The estimate is the fraction of the
    operator's effective window the skipped batches cover; above the bound,
    recovery is the exact checkpoint path.  Either way the realized loss is
    reported as ``fidelity_loss`` on the recovery record (always
    ``<= fidelity_bound``), and the skipped batch indices are punctuated
    downstream so the rest of the topology never waits for them.
    """

    def __init__(self, *, fidelity_bound: float = 0.1) -> None:
        self.fidelity_bound = _coerce("fidelity_bound", float, fidelity_bound)
        if not 0.0 <= self.fidelity_bound <= 1.0:
            raise SimulationError(
                f"fidelity_bound must be in [0, 1], got {fidelity_bound!r}")
        #: Batch-index ranges ``[lo, hi)`` each task skipped.
        self._gaps: dict[TaskId, list[tuple[int, int]]] = {}

    def skip_to(self, rt: TaskRuntime,
                checkpoint: "Checkpoint | None") -> int | None:
        ctx = self.ctx
        record = rt.recovery_record
        if record is not None:
            record.fidelity_bound = self.fidelity_bound
            record.fidelity_loss = 0.0
        if rt.is_source:
            return None  # sources resume from their log offset: no loss
        resume_from = 0 if checkpoint is None else checkpoint.batch_index + 1
        start = max(int(ctx.now / ctx.config.batch_interval), resume_from)
        window = max(1, ctx.source_replay_window_batches)
        loss = min(1.0, (start - resume_from) / window)
        if loss > self.fidelity_bound:
            return None  # too much divergence: recover exactly
        if record is not None:
            record.mode = RecoveryMode.APPROXIMATE
            record.fidelity_loss = loss
        return start

    def skipped(self, rt: TaskRuntime, lo: int, hi: int) -> None:
        self._gaps.setdefault(rt.task, []).append((lo, hi))

    def replay_skipped(self, up: TaskRuntime, sub: TaskRuntime,
                       from_exclusive: int, upto: int) -> Iterable[int]:
        sizes = up.output_sizes
        for lo, hi in self._gaps.get(up.task, ()):
            for index in range(max(lo, from_exclusive + 1),
                               min(hi, upto + 1)):
                if index not in sizes or sub.task not in sizes[index]:
                    yield index


# ----------------------------------------------------------------------
# Cadence
# ----------------------------------------------------------------------
class FixedCadence(Policy):
    """Checkpoint every ``EngineConfig.checkpoint_interval`` (PPA)."""

    def checkpoint_period(self, rt: TaskRuntime) -> int | None:
        """Period for ``rt`` in whole batches, asked after every processed
        batch (so it may be retuned online); ``None`` disables."""
        return self.ctx.config.checkpoint_batches

    def on_checkpoint(self, rt: TaskRuntime, cost: float) -> None:
        """Observe one taken checkpoint and its measured CPU cost."""

    def on_task_failed(self, rt: TaskRuntime) -> None:
        """Observe one failure instant."""


class YoungDalyCadence(FixedCadence):
    """Online interval tuning from failure rate and snapshot cost.

    The period is retuned after every snapshot to the Young/Daly optimum
    ``τ* = sqrt(2·δ·MTBF)``: ``δ`` is the task's measured snapshot cost
    (EWMA over the costs the engine reports) and MTBF the mean
    inter-arrival of observed failure instants (``mtbf_prior`` until two
    failures have been seen).  Cheap snapshots and frequent failures
    shorten the interval; expensive snapshots on a quiet cluster stretch
    it, clamped to ``[min_interval, max_interval]`` seconds.  Until a
    task's first measurement the configured interval applies unchanged.
    """

    def __init__(self, *, min_interval: float = 2.0,
                 max_interval: float = 120.0, mtbf_prior: float = 120.0,
                 smoothing: float = 0.3) -> None:
        self.min_interval = _coerce("min_interval", float, min_interval)
        self.max_interval = _coerce("max_interval", float, max_interval)
        self.mtbf_prior = _coerce("mtbf_prior", float, mtbf_prior)
        smoothing = _coerce("smoothing", float, smoothing)
        if not 0.0 < self.min_interval <= self.max_interval:
            raise SimulationError(
                "cadence needs 0 < min_interval <= max_interval, got "
                f"{min_interval} / {max_interval}")
        if self.mtbf_prior <= 0.0:
            raise SimulationError(
                f"mtbf_prior must be positive, got {mtbf_prior}")
        if not 0.0 < smoothing <= 1.0:
            raise SimulationError(
                f"smoothing must be in (0, 1], got {smoothing}")
        self.timings = CheckpointTimings(smoothing=smoothing)
        self._failure_times: list[float] = []

    def on_task_failed(self, rt: TaskRuntime) -> None:
        now = self.ctx.now
        if not self._failure_times or now > self._failure_times[-1] + 1e-9:
            self._failure_times.append(now)

    def mtbf_estimate(self) -> float:
        """Mean failure inter-arrival; the prior until two failures seen."""
        times = self._failure_times
        if len(times) >= 2:
            return (times[-1] - times[0]) / (len(times) - 1)
        return self.mtbf_prior

    def checkpoint_period(self, rt: TaskRuntime) -> int | None:
        configured = self.ctx.config.checkpoint_batches
        if configured is None:
            return None
        delta = self.timings.cost_estimate(rt.task)
        if delta is None:
            return configured
        tau = math.sqrt(2.0 * delta * self.mtbf_estimate())
        tau = min(max(tau, self.min_interval), self.max_interval)
        return max(1, round(tau / self.ctx.config.batch_interval))

    def on_checkpoint(self, rt: TaskRuntime, cost: float) -> None:
        self.timings.observe(rt.task, cost)
