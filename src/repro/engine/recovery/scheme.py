"""The recovery machinery: every protocol step of Sec. V, written once.

:class:`RecoveryScheme` implements failure classification, replica takeover,
checkpoint restore + upstream replay, source replay, recompute of pruned
buffers and forged punctuations against the :class:`RecoveryContext`
capability object, and asks three policy objects
(:mod:`repro.engine.recovery.policies`) wherever schemes differ.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, AbstractSet, Callable

from repro.engine.config import EngineConfig
from repro.engine.metrics import MetricsCollector, RecoveryMode
from repro.engine.recovery.policies import (
    ConfiguredCatchUp,
    FixedCadence,
    PlanPlacement,
    policy_params,
)
from repro.engine.tasks import TaskRuntime, TaskStatus
from repro.engine.tuples import Batch, forged_batch
from repro.topology.graph import Topology
from repro.topology.operators import TaskId

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.engine.checkpoint import Checkpoint
    from repro.engine.engine import StreamEngine
    from repro.engine.logic import OperatorLogic

#: The three axes of a scheme, in declaration order.
POLICY_ROLES = ("placement", "catch_up", "cadence")


class RecoveryContext:
    """The engine-facing capability surface handed to a recovery scheme.

    Wraps one :class:`~repro.engine.engine.StreamEngine` run and exposes
    exactly what fault-tolerance protocols need — nothing else.  Keeping
    schemes behind this facade means the engine's internals can evolve
    without breaking third-party schemes, and a scheme can be unit-tested
    against a stub context.
    """

    __slots__ = ("_engine",)

    def __init__(self, engine: "StreamEngine"):
        self._engine = engine

    # -- static facts ---------------------------------------------------
    @property
    def config(self) -> EngineConfig:
        """The run's engine configuration (intervals, costs, switches)."""
        return self._engine.config

    @property
    def metrics(self) -> MetricsCollector:
        """The run's metrics collector (CPU accounting, recovery records)."""
        return self._engine.metrics

    @property
    def topology(self) -> Topology:
        """The query topology under execution."""
        return self._engine.topology

    @property
    def end_time(self) -> float:
        """Virtual time at which sources stop emitting."""
        return self._engine._end_time

    @property
    def source_replay_window_batches(self) -> int:
        """Batches a source-replay restart reprocesses to rebuild windows."""
        return self._engine.source_replay_window_batches

    @property
    def planned_tasks(self) -> frozenset[TaskId]:
        """The replication plan's task set (planner provenance intact)."""
        return self._engine.plan.replicated

    # -- virtual time and scheduling ------------------------------------
    @property
    def now(self) -> float:
        """Current virtual time in seconds."""
        return self._engine.sim.now

    def at(self, time: float, fn: Callable[..., None], priority: int = 0,
           args: tuple = ()) -> None:
        """Schedule ``fn(*args)`` at absolute virtual time ``time``."""
        self._engine.sim.at(time, fn, priority, args)

    def after(self, delay: float, fn: Callable[..., None], priority: int = 0,
              args: tuple = ()) -> None:
        """Schedule ``fn(*args)`` ``delay`` virtual seconds from now."""
        self._engine.sim.after(delay, fn, priority, args)

    # -- tasks and state ------------------------------------------------
    def runtime(self, task: TaskId) -> TaskRuntime:
        """The runtime of ``task``."""
        return self._engine.runtimes[task]

    def downstream_tasks(self, task: TaskId) -> tuple[TaskId, ...]:
        """The tasks subscribed to ``task``'s output."""
        return self._engine.topology.downstream_tasks(task)

    def latest_checkpoint(self, task: TaskId) -> "Checkpoint | None":
        """The most recent checkpoint of ``task``, if any."""
        return self._engine.checkpoints.latest(task)

    def make_logic(self, task: TaskId) -> "OperatorLogic":
        """A fresh (empty-state) logic instance for ``task``."""
        return self._engine.logic_factory.logic_for(task)

    # -- data-plane operations ------------------------------------------
    def send(self, batch: Batch) -> None:
        """Send ``batch`` downstream with the normal network delay."""
        self._engine._send(batch)

    def deliver(self, batch: Batch) -> None:
        """Deliver ``batch`` to its destination immediately (post-delay)."""
        self._engine._deliver(batch)

    def try_process(self, rt: TaskRuntime) -> None:
        """Let ``rt`` process its next batch if the inbox is ready."""
        self._engine._try_process(rt)

    def produce_source_batch(self, rt: TaskRuntime, index: int) -> None:
        """Make source task ``rt`` produce batch ``index`` now."""
        self._engine._produce_source_batch(rt, index)

    def replay_batch(self, up: TaskRuntime, sub: TaskId, index: int) -> Batch:
        """The output batch ``up`` sent to ``sub`` at ``index``, for resend.

        Reads the physically-retained buffer when the batch is still there;
        physically-trimmed *source* batches are regenerated exactly from the
        (pure, memoized) source function.  A trimmed non-source batch is a
        retention-window bug, reported loudly rather than silently replayed
        wrong.
        """
        return self._engine._replay_batch(up, sub, index)

    def schedule_source_emission(self, rt: TaskRuntime, index: int) -> None:
        """Re-arm source ``rt``'s normal emission chain at batch ``index``."""
        self._engine._schedule_source_emission(rt, index)

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return f"RecoveryContext({self._engine!r})"


class RecoveryScheme:
    """One fault-tolerance scheme: the PPA machinery plus a policy triple.

    A scheme *declares* its point in the design space as three class
    attributes — ``placement``, ``catch_up``, ``cadence``, each a policy
    class from :mod:`repro.engine.recovery.policies` — and inherits all
    protocol machinery.  The defaults are the paper's PPA.  Constructor
    keyword arguments (``recovery_params``) are routed to whichever policy
    declares them; on the instance the three attributes hold the per-run
    policy *objects* (``scheme.placement.replica_host``, ...).

    The engine drives a scheme through four hooks:

    * :meth:`replicated_tasks` — at construction, which tasks get a hot
      replica (sets ``TaskRuntime.replicated``);
    * :meth:`on_task_failed` — at failure *injection*, classify the task
      (``FAILOVER`` when a replica keeps running, ``FAILED`` otherwise);
    * :meth:`on_failure_detected` — at the heartbeat that *detects* the
      failure, start takeover or passive recovery;
    * :meth:`check_recovered` — after every processed batch of a
      ``RECOVERING`` task, to finish recovery at progress catch-up;

    plus :meth:`checkpoint_period`/:meth:`on_checkpoint` around every
    snapshot.  A scheme the three families cannot express may still
    subclass and override any method here.
    """

    #: Registry key, repeated on the class for introspection/rendering.
    name = "ppa"
    #: The declared triple (policy classes; instances after construction).
    placement: type[PlanPlacement] = PlanPlacement
    catch_up: type[ConfiguredCatchUp] = ConfiguredCatchUp
    cadence: type[FixedCadence] = FixedCadence

    def __init__(self, **params: object) -> None:
        self.ctx: RecoveryContext = None  # type: ignore[assignment]
        accepted: list[str] = []
        for role in POLICY_ROLES:
            policy = getattr(type(self), role)
            names = policy_params(policy)
            accepted.extend(names)
            setattr(self, role, policy(
                **{n: params.pop(n) for n in names if n in params}))
        if params:
            raise TypeError(
                f"unknown parameter(s) {', '.join(map(repr, params))}; the "
                f"scheme's policies accept: {', '.join(accepted) or 'none'}")

    def attach(self, ctx: RecoveryContext) -> None:
        """Bind this (per-run) scheme instance to an engine run."""
        self.ctx = ctx
        for role in POLICY_ROLES:
            getattr(self, role).ctx = ctx

    # ------------------------------------------------------------------
    # The points where policies are asked
    # ------------------------------------------------------------------
    def replicated_tasks(self, topology: Topology,
                         planned: AbstractSet[TaskId]) -> frozenset[TaskId]:
        """Which tasks keep a hot replica (placement policy)."""
        return self.placement.replicated_tasks(topology, planned)

    def passive_mode(self) -> RecoveryMode:
        """How tasks without a live replica recover (catch-up policy)."""
        return self.catch_up.passive_mode()

    def checkpoint_period(self, rt: TaskRuntime) -> int | None:
        """Checkpoint period for ``rt`` in whole batches; ``None`` disables.

        The engine asks after every processed batch, so the cadence policy
        may retune the interval online.
        """
        return self.cadence.checkpoint_period(rt)

    def on_checkpoint(self, rt: TaskRuntime, cost: float) -> None:
        """Observe one taken checkpoint and its measured CPU cost."""
        self.cadence.on_checkpoint(rt, cost)

    # ------------------------------------------------------------------
    # Failure injection
    # ------------------------------------------------------------------
    def on_task_failed(self, rt: TaskRuntime) -> None:
        """Classify a just-killed task (engine has set fail-time snapshots)."""
        self.cadence.on_task_failed(rt)
        for task in self.placement.on_task_failed(rt):
            self.lose_replica(self.ctx.runtime(task))
        if rt.replicated:
            # The hot replica keeps processing; outputs are held until
            # takeover re-routes subscribers to it.
            rt.status = TaskStatus.FAILOVER
        else:
            self.fail_unreplicated(rt)

    def lose_replica(self, rt: TaskRuntime) -> None:
        """``rt``'s standby died with its host: recover passively instead."""
        if not rt.replicated:
            return
        rt.replicated = False
        if rt.status is not TaskStatus.FAILOVER:
            return
        # Mid-takeover: a takeover that can never complete is restarted as
        # a passive recovery.  Not yet detected, the pending heartbeat will
        # see a FAILED task and open the passive path itself.
        detected = rt.recovery_record is not None
        rt.held_outputs = []
        self.fail_unreplicated(rt)  # also drops the aborted ACTIVE record
        if detected:
            self.open_passive_recovery(rt)

    def fail_unreplicated(self, rt: TaskRuntime) -> None:
        """Mark ``rt`` dead with nothing standing in: await recovery."""
        record = rt.recovery_record
        if record is not None and record.recovered_time is None:
            # A re-failure aborted an in-flight recovery (flapping): the
            # superseded record would otherwise stay open forever.
            try:
                self.ctx.metrics.recoveries.remove(record)
            except ValueError:  # pragma: no cover - defensive
                pass
        rt.recovery_record = None
        rt.status = TaskStatus.FAILED
        rt.incarnation += 1
        rt.processing = False
        rt.inbox.clear()

    # ------------------------------------------------------------------
    # Failure detection (called from the master's heartbeat)
    # ------------------------------------------------------------------
    def on_failure_detected(self, rt: TaskRuntime) -> None:
        """Start takeover (FAILOVER) or passive recovery (FAILED)."""
        assert rt.fail_time is not None
        ctx = self.ctx
        if (rt.recovery_record is not None
                and rt.recovery_record.recovered_time is None):
            return  # recovery of this failure is already under way
        if rt.status is TaskStatus.FAILOVER:
            record = ctx.metrics.record_recovery_start(
                rt.task, RecoveryMode.ACTIVE, rt.fail_time, ctx.now
            )
            rt.recovery_record = record
            costs = ctx.config.costs
            resend = rt.buffered_tuples(rt.replica_synced, rt.emitted)
            delay = costs.takeover_fixed + resend * costs.per_tuple_resend
            ctx.metrics.cpu_of(rt.task).replay += resend * costs.per_tuple_resend
            ctx.after(delay, self.complete_takeover, args=(rt,))
        elif rt.status is TaskStatus.FAILED:
            self.open_passive_recovery(rt)

    def open_passive_recovery(self, rt: TaskRuntime) -> None:
        """Open ``rt``'s recovery record; arm forging and the restart."""
        ctx = self.ctx
        rt.recovery_record = ctx.metrics.record_recovery_start(
            rt.task, self.passive_mode(), rt.fail_time, ctx.now
        )
        if ctx.config.tentative_outputs:
            self.start_forging(rt)
        if ctx.config.recovery_enabled:
            ctx.after(ctx.config.costs.restart_delay, self.restore_task,
                      args=(rt, rt.incarnation))

    def complete_takeover(self, rt: TaskRuntime) -> None:
        """Replica becomes primary: flush held outputs, resume serving."""
        if rt.status is not TaskStatus.FAILOVER:
            return
        rt.status = TaskStatus.RUNNING
        held, rt.held_outputs = rt.held_outputs, []
        for _dst, batch in held:
            self.ctx.send(batch)
        if rt.recovery_record is not None:
            rt.recovery_record.recovered_time = self.ctx.now
        self.serve_pending_replays(rt)
        self.ctx.try_process(rt)

    # ------------------------------------------------------------------
    # Passive recovery
    # ------------------------------------------------------------------
    def restore_task(self, rt: TaskRuntime,
                     incarnation: int | None = None) -> None:
        """Restart ``rt`` on a standby node and begin catching up.

        ``incarnation`` pins the restore to the failure that scheduled it:
        if the task was killed *again* in the meantime (flapping), the stale
        restore is dropped — the re-failure's own detection schedules a
        fresh one.
        """
        if incarnation is not None and rt.incarnation != incarnation:
            return
        if rt.status is not TaskStatus.FAILED:
            return
        ctx = self.ctx
        rt.status = TaskStatus.RECOVERING
        use_checkpoint = self.passive_mode() is RecoveryMode.CHECKPOINT
        checkpoint = ctx.latest_checkpoint(rt.task) if use_checkpoint else None
        skip = self.catch_up.skip_to(rt, checkpoint)
        if rt.is_source:
            self.restore_source(rt, checkpoint)
            return

        rt.logic = ctx.make_logic(rt.task)
        rt.busy_until = ctx.now
        if checkpoint is not None:
            load = checkpoint.state_tuples * ctx.config.costs.per_tuple_load
            rt.busy_until = ctx.now + load
            ctx.metrics.cpu_of(rt.task).replay += load
            if checkpoint.state is not None:
                rt.logic.restore(checkpoint.state)
        if skip is not None:
            # Live edge: the batches in between are given up for good.
            start = skip
        elif checkpoint is not None:
            start = checkpoint.batch_index + 1
        elif use_checkpoint:
            # The task died before its first checkpoint: cold restart from
            # batch 0. Its upstream buffers are fully retained because it
            # never acknowledged a checkpoint, so replay covers everything.
            start = 0
        else:
            # Source-replay (Storm) restart: empty state; rebuild the window
            # by reprocessing the last `source_replay_window_batches` batches.
            current = int(ctx.now / ctx.config.batch_interval)
            start = max(0, current - ctx.source_replay_window_batches)
        if skip is None and checkpoint is not None:
            rt.progress = dict(checkpoint.progress)
        else:
            rt.progress = {u: start - 1 for u in rt.expected_upstreams}
        gap_lo = rt.emitted + 1
        rt.next_batch = start
        rt.emitted = start - 1

        if skip is None:
            for upstream in rt.expected_upstreams:
                self.request_replay(ctx.runtime(upstream), rt, start - 1)
        elif gap_lo < start:
            # Punctuate the skipped range so subscribers keep moving.
            self.catch_up.skipped(rt, gap_lo, start)
            for sub in ctx.downstream_tasks(rt.task):
                for index in range(gap_lo, start):
                    self.forge_batch(rt, ctx.runtime(sub), index)
        self.serve_pending_replays(rt)
        self.check_recovered(rt)
        ctx.try_process(rt)

    def restore_source(self, rt: TaskRuntime,
                       checkpoint: "Checkpoint | None") -> None:
        """Resume a source from its log offset, backfilling missed batches."""
        # Sources always resume from their log offset (no data loss): the
        # checkpoint only matters for the progress bookkeeping.
        ctx = self.ctx
        rt.status = TaskStatus.RECOVERING
        rt.busy_until = ctx.now
        backlog_start = rt.next_batch
        due = int(ctx.now / ctx.config.batch_interval) - 1
        due = min(due, int(ctx.end_time / ctx.config.batch_interval) - 1)
        for index in range(backlog_start, due + 1):
            ctx.produce_source_batch(rt, index)
        self.check_recovered(rt)
        if rt.status is TaskStatus.RECOVERING:
            # Not caught up only if there was nothing to emit yet.
            self.check_recovered(rt)
        self.serve_pending_replays(rt)
        ctx.schedule_source_emission(rt, rt.next_batch)

    def check_recovered(self, rt: TaskRuntime) -> None:
        """Finish recovery once the progress vector caught up."""
        if rt.status is not TaskStatus.RECOVERING:
            return
        if not rt.caught_up():
            return
        rt.status = TaskStatus.RUNNING
        if rt.recovery_record is not None and rt.recovery_record.recovered_time is None:
            rt.recovery_record.recovered_time = max(self.ctx.now, rt.busy_until)
        self.serve_pending_replays(rt)

    # ------------------------------------------------------------------
    # Replay
    # ------------------------------------------------------------------
    def request_replay(self, up: TaskRuntime, sub: TaskRuntime,
                       from_exclusive: int) -> None:
        """Ask ``up`` to resend its output to ``sub`` from a batch onwards."""
        if up.status in (TaskStatus.FAILED, TaskStatus.FAILOVER):
            up.pending_replays[sub.task] = min(
                up.pending_replays.get(sub.task, from_exclusive), from_exclusive
            )
            return
        # RUNNING or RECOVERING: serve what the buffer already covers; the
        # rest arrives through the upstream's own catch-up emissions.
        self.serve_replay(up, sub, from_exclusive, up.emitted)

    def serve_pending_replays(self, rt: TaskRuntime) -> None:
        """Serve replay requests that queued up while ``rt`` was down."""
        pending, rt.pending_replays = rt.pending_replays, {}
        for sub_task, from_exclusive in sorted(pending.items()):
            self.serve_replay(rt, self.ctx.runtime(sub_task), from_exclusive,
                              rt.emitted)

    def serve_replay(self, up: TaskRuntime, sub: TaskRuntime,
                     from_exclusive: int, upto: int) -> None:
        """Resend ``up``'s buffered output batches ``(from, upto]`` to ``sub``.

        Batches ``up`` skipped on an approximate restore were never
        produced; ``sub`` gets a punctuation for each instead.
        """
        ctx = self.ctx
        costs = ctx.config.costs
        sizes = up.output_sizes
        indices = [
            i for i in range(from_exclusive + 1, upto + 1)
            if i in sizes and sub.task in sizes[i]
        ]
        if indices:
            pruned = [i for i in indices if i <= up.trimmed_upto]
            ready = ctx.now
            if pruned:
                ready = self.ensure_recomputed(up, min(pruned), max(pruned))
            cursor = max(ready, ctx.now)
            for index in indices:
                batch = ctx.replay_batch(up, sub.task, index)
                resend_cost = batch.size * costs.per_tuple_resend
                cursor = max(cursor, up.busy_until) + resend_cost
                up.busy_until = cursor
                ctx.metrics.cpu_of(up.task).replay += resend_cost
                send_at = cursor + costs.network_delay
                ctx.at(send_at, ctx.deliver, args=(batch,))
        for index in self.catch_up.replay_skipped(up, sub, from_exclusive,
                                                  upto):
            self.forge_batch(up, sub, index)

    def ensure_recomputed(self, rt: TaskRuntime, lo: int, hi: int) -> float:
        """Virtual time when ``rt`` has regenerated output batches [lo, hi].

        Models Storm's source replay: pruned batches must be recomputed by
        replaying the inputs through every task between the sources and this
        one, charging reprocessing CPU along the chain.
        """
        ctx = self.ctx
        if rt.recompute_cover is not None:
            c_lo, c_hi, c_ready = rt.recompute_cover
            if c_lo <= lo and hi <= c_hi:
                return c_ready
            lo, hi = min(lo, c_lo), max(hi, c_hi)
        costs = ctx.config.costs
        if rt.is_source:
            # Reading the source log back costs resend time per tuple.
            tuples = rt.buffered_tuples(lo - 1, hi)
            ready = max(ctx.now, rt.busy_until) + tuples * costs.per_tuple_resend
            rt.busy_until = ready
            ctx.metrics.cpu_of(rt.task).replay += tuples * costs.per_tuple_resend
        else:
            upstream_ready = ctx.now
            input_tuples = 0
            for upstream in rt.expected_upstreams:
                up = ctx.runtime(upstream)
                pruned_input = up.trimmed_upto >= lo
                if pruned_input:
                    upstream_ready = max(
                        upstream_ready, self.ensure_recomputed(up, lo, hi)
                    )
                up_sizes = up.output_sizes
                input_tuples += sum(
                    up_sizes[i][rt.task]
                    for i in range(lo, hi + 1)
                    if i in up_sizes and rt.task in up_sizes[i]
                )
            cost = input_tuples * costs.per_tuple_process
            ready = max(upstream_ready, rt.busy_until, ctx.now) + cost
            rt.busy_until = ready
            ctx.metrics.cpu_of(rt.task).replay += cost
        rt.recompute_cover = (lo, hi, ready)
        return ready

    # ------------------------------------------------------------------
    # Tentative outputs (forged punctuations)
    # ------------------------------------------------------------------
    def start_forging(self, failed: TaskRuntime) -> None:
        """Forge batch-over punctuations for ``failed`` to its subscribers."""
        subscribers = self.ctx.downstream_tasks(failed.task)
        for sub in subscribers:
            self.schedule_forge(failed, self.ctx.runtime(sub),
                                failed.emitted + 1)

    def schedule_forge(self, failed: TaskRuntime, sub: TaskRuntime,
                       index: int) -> None:
        """Arm the forge of batch ``index`` at its natural due time."""
        ctx = self.ctx
        due = ((index + 1) * ctx.config.batch_interval
               + ctx.config.costs.network_delay)
        if due > ctx.end_time + 1e-9:
            return
        ctx.at(max(due, ctx.now), self.forge, args=(failed, sub, index))

    def forge(self, failed: TaskRuntime, sub: TaskRuntime, index: int) -> None:
        """Deliver one forged punctuation (unless the task recovered)."""
        if failed.status is TaskStatus.RUNNING:
            return  # recovered: downstream waits for real batches again
        if failed.emitted < index:
            self.forge_batch(failed, sub, index)
        self.schedule_forge(failed, sub, index + 1)

    def forge_batch(self, failed: TaskRuntime, sub: TaskRuntime,
                    index: int) -> None:
        """Put one batch-over punctuation of ``failed`` into ``sub``'s inbox."""
        batch = forged_batch(failed.task, sub.task, index)
        if sub.alive() and sub.inbox_put(batch):
            self.ctx.metrics.batches_forged += 1
            self.ctx.try_process(sub)

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return f"{type(self).__name__}({self.name!r})"
