"""Per-task runtime state used by the engine's protocol loops.

A :class:`TaskRuntime` holds everything that belongs to one logical task:
batch-protocol position, inbox, output history (the output buffer of
Sec. II-B), checkpoint/trim bookkeeping, replica-sync position and recovery
bookkeeping.  All *behaviour* lives in :mod:`repro.engine.engine`; this
module is deliberately mostly data.

The output buffer is split into two layers so a long run keeps bounded
memory without changing recovery semantics:

* :attr:`TaskRuntime.history` holds the actual :class:`Batch` objects and is
  *physically trimmed* (:meth:`TaskRuntime.trim_history`) once batches fall
  behind both the logical trim point and the replay retention window;
* :attr:`TaskRuntime.output_sizes` is a compact per-batch, per-destination
  tuple-count skeleton retained for the whole run, so replay/takeover cost
  accounting (:meth:`buffered_tuples`, recompute-on-replay) stays byte
  identical to the physically-retained implementation.
"""

from __future__ import annotations

import enum
from typing import TYPE_CHECKING

from repro.engine.tuples import Batch
from repro.topology.operators import TaskId

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.engine.logic import OperatorLogic, SourceFunction
    from repro.engine.metrics import RecoveryRecord, TaskCpu


class TaskStatus(enum.Enum):
    """Lifecycle of a task (incl. its active replica, if any)."""

    #: Processing normally (primary, or replica after takeover).
    RUNNING = "running"
    #: Dead with no active replica; waiting for passive recovery.
    FAILED = "failed"
    #: Restarted on a standby; catching up to its pre-failure progress.
    RECOVERING = "recovering"
    #: Primary dead; the active replica keeps processing with output held
    #: until takeover completes.
    FAILOVER = "failover"


# Module-level aliases for the engine's per-batch status tests: a global
# load is several times cheaper than an enum class-attribute lookup.
RUNNING = TaskStatus.RUNNING
FAILED = TaskStatus.FAILED
RECOVERING = TaskStatus.RECOVERING
FAILOVER = TaskStatus.FAILOVER


class TaskRuntime:
    """Mutable state of one logical task within an engine run."""

    def __init__(self, task: TaskId, *, is_source: bool, is_sink: bool,
                 expected_upstreams: tuple[TaskId, ...], replicated: bool,
                 logic: "OperatorLogic | None" = None,
                 source_fn: "SourceFunction | None" = None):
        self.task = task
        self.is_source = is_source
        self.is_sink = is_sink
        self.expected_upstreams = expected_upstreams
        self.replicated = replicated
        self.logic = logic
        self.source_fn = source_fn

        self.status = RUNNING
        #: Bumped on unreplicated failure; stale scheduled events check it.
        self.incarnation = 0
        #: Next batch index to process (non-source) / emit (source).
        self.next_batch = 0
        #: Pending input batches: index -> upstream task -> batch.
        self.inbox: dict[int, dict[TaskId, Batch]] = {}
        #: Whether a batch is currently being processed (one at a time).
        self.processing = False
        #: Last processed batch per upstream task (the progress vector).
        self.progress: dict[TaskId, int] = {u: -1 for u in expected_upstreams}
        #: Last batch index emitted downstream.
        self.emitted = -1
        #: CPU timeline: this task's (or its replica's) core is busy until here.
        self.busy_until = 0.0

        #: Output history: batch index -> destination -> batch.  Physically
        #: trimmed via :meth:`trim_history`; ``trimmed_upto`` marks what a
        #: real system would have pruned (replaying pruned batches charges
        #: recompute cost).
        self.history: dict[int, dict[TaskId, Batch]] = {}
        #: Per-batch, per-destination tuple counts; survives physical trims
        #: so cost accounting over pruned ranges is unchanged.
        self.output_sizes: dict[int, dict[TaskId, int]] = {}
        #: Lowest batch index whose content may still be in ``history``.
        self.history_floor = 0
        #: Largest ``len(history)`` ever observed (memory diagnostics).
        self.peak_history_batches = 0
        self.trimmed_upto = -1
        #: Per-subscriber checkpoint acknowledgements driving the trim.
        self.acked: dict[TaskId, int] = {}
        #: Last batch whose outputs the active replica has trimmed.
        self.replica_synced = -1
        #: Outputs produced while in FAILOVER, flushed at takeover.
        self.held_outputs: list[tuple[TaskId, Batch]] = []
        #: Replay requests from subscribers arriving while this task was
        #: down: subscriber -> from-batch (exclusive).
        self.pending_replays: dict[TaskId, int] = {}
        #: Storm-mode recompute memo: (lo, hi, ready_time) of the last
        #: recomputed range.
        self.recompute_cover: tuple[int, int, float] | None = None

        self.last_checkpoint_batch = -1
        self.checkpoint_phase = 0
        #: Extra per-task detection latency on top of the heartbeat that
        #: notices the failure (the detection-jitter failure axis).
        self.detect_extra = 0.0
        self.fail_time: float | None = None
        self.pre_failure_progress: dict[TaskId, int] | None = None
        self.pre_failure_emitted: int | None = None
        self.recovery_record: "RecoveryRecord | None" = None
        #: This task's CPU accounting entry, bound by the engine on first
        #: use (``MetricsCollector.cpu_of`` creates entries on demand).
        self.cpu: "TaskCpu | None" = None

    # ------------------------------------------------------------------
    def alive(self) -> bool:
        """Whether the task currently processes batches."""
        return self.status is not FAILED

    def inbox_put(self, batch: Batch) -> bool:
        """Store an incoming batch; returns False for stale duplicates.

        A real batch replaces a forged placeholder for the same index, but a
        forged batch never overwrites real data.
        """
        index = batch.index
        if index < self.next_batch:
            return False
        slot = self.inbox.get(index)
        if slot is None:
            self.inbox[index] = {batch.src: batch}
            return True
        existing = slot.get(batch.src)
        if existing is not None and (batch.forged or not existing.forged):
            return False
        slot[batch.src] = batch
        return True

    def inbox_ready(self, index: int) -> bool:
        """Whether batch ``index`` has arrived from every upstream task."""
        slot = self.inbox.get(index)
        if slot is None:
            return not self.expected_upstreams
        for upstream in self.expected_upstreams:
            if upstream not in slot:
                return False
        return True

    def take_inbox(self, index: int) -> dict[TaskId, Batch]:
        """Remove and return the input batches of ``index``."""
        return self.inbox.pop(index, {})

    def snapshot_progress(self) -> dict[TaskId, int]:
        """A copy of the progress vector (stored in checkpoints)."""
        return dict(self.progress)

    def caught_up(self) -> bool:
        """Whether the progress vector reached its pre-failure value."""
        if self.is_source:
            target = self.pre_failure_emitted
            return target is None or self.emitted >= target
        if self.pre_failure_progress is None:
            return True
        return all(
            self.progress.get(u, -1) >= before
            for u, before in self.pre_failure_progress.items()
        )

    def record_output(self, index: int, per_dst: dict[TaskId, Batch]) -> None:
        """Store batch ``index``'s output content and its size skeleton."""
        self.history[index] = per_dst
        sizes = {}
        for dst, batch in per_dst.items():
            sizes[dst] = batch.size
        self.output_sizes[index] = sizes
        n = len(self.history)
        if n > self.peak_history_batches:
            self.peak_history_batches = n

    def trim_history(self, horizon: int) -> None:
        """Physically delete batch content at indices ``<= horizon``.

        Only :attr:`history` shrinks; :attr:`output_sizes` keeps the count
        skeleton so replay/takeover cost accounting still covers the pruned
        range.  Amortised O(1) per emitted batch via :attr:`history_floor`.
        """
        if horizon < self.history_floor:
            return
        pop = self.history.pop
        for index in range(self.history_floor, horizon + 1):
            pop(index, None)
        self.history_floor = horizon + 1

    def buffered_tuples(self, lo_exclusive: int, hi_inclusive: int) -> int:
        """Total tuples in output batches ``(lo, hi]`` (takeover/replay cost)."""
        total = 0
        sizes = self.output_sizes
        for index in range(lo_exclusive + 1, hi_inclusive + 1):
            per_dst = sizes.get(index)
            if per_dst:
                total += sum(per_dst.values())
        return total

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"TaskRuntime({self.task}, {self.status.value}, next={self.next_batch}, "
            f"emitted={self.emitted})"
        )
