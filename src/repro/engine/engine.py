"""The simulated MPSPE: batch dataflow, pluggable fault tolerance, recovery.

:class:`StreamEngine` executes a query topology on a simulated cluster in
virtual time, implementing the data-plane protocols of Sec. V:

* batch processing with batch-over punctuations (a batch message *is* the
  punctuation for its index);
* periodic (staggered) checkpoints of operator state + progress vector,
  with upstream output-buffer trimming;
* failure injection and detection by heartbeat.

What happens *after* a failure is detected — replica takeover, checkpoint
restore + upstream replay, source replay through the whole topology, forged
batch-over punctuations — is delegated to a pluggable
:class:`~repro.engine.recovery.RecoveryScheme` selected by
:attr:`EngineConfig.recovery_scheme <repro.engine.config.EngineConfig>`
(``"ppa"`` by default, the paper's partially-active replication).  The
scheme holds a weak proxy of the engine and drives the run through its
public data-plane methods (``send``, ``deliver``, ``try_process``,
``produce_source_batch``, ``replay_batch``, ``schedule_source_emission``);
see :mod:`repro.engine.recovery` for the strategy protocol and the
:data:`~repro.engine.recovery.RECOVERY_SCHEMES` registry.

Determinism: all scheduling goes through :class:`~repro.engine.events.Simulator`
with stable tie-breaking, keys route via CRC32, and operator logic is
required to be deterministic, so two runs with the same inputs are identical.

The per-batch loop — ``_emit_source`` → ``produce_source_batch`` →
``_emit_outputs`` → ``send`` → ``deliver`` → ``try_process`` →
``_process_done`` — runs once per simulated event, several hundred
thousand times in a recovery sweep, so it is kept lean: config constants
are read once at construction, task statuses are compared against the
module-level aliases of :mod:`repro.engine.tasks`, each task's CPU entry
is bound to its runtime on first use, the inputs of a batch are walked
once, a :class:`~repro.engine.tuples.Batch` counts its tuples once at
construction, a :class:`~repro.engine.tuples.SinkRecord` keeps the sink
operator's output sequence instead of copying it, and ``state_size()`` is
asked only when a checkpoint is due.  None of it changes which events run
or in what order.
"""

from __future__ import annotations

import math
import time
from typing import Iterable, Mapping, Sequence

from repro.core.plans import ReplicationPlan
from repro.engine.checkpoint import Checkpoint, CheckpointStore
from repro.engine.cluster import Cluster
from repro.engine.config import EngineConfig
from repro.engine.events import Simulator
from repro.engine.logic import LogicFactory, MemoizedSource
from repro.engine.metrics import MetricsCollector, TaskCpu
from repro.engine.recovery import create_scheme
from repro.engine.routing import Router, stable_hash
from repro.engine.tasks import FAILED, FAILOVER, RECOVERING, TaskRuntime
from repro.engine.tuples import Batch, KeyedTuple, SinkRecord
from repro.errors import SimulationError
from repro.topology.graph import Topology
from repro.topology.operators import TaskId


class StreamEngine:
    """One simulated run of a topology under an engine configuration."""

    def __init__(self, topology: Topology, logic: LogicFactory,
                 config: EngineConfig | None = None, *,
                 plan: ReplicationPlan | Iterable[TaskId] = (),
                 cluster: Cluster | None = None,
                 source_replay_window_batches: int = 30,
                 router: Router | None = None,
                 source_memos: "dict[TaskId, MemoizedSource] | None" = None):
        self.topology = topology
        self.logic_factory = logic
        self.config = config or EngineConfig()
        # ``plan`` is either a full ReplicationPlan (keeping planner
        # provenance attached to the run's metrics) or a bare task iterable.
        if isinstance(plan, ReplicationPlan):
            self.plan = plan
        else:
            self.plan = ReplicationPlan(frozenset(plan))
        unknown = self.plan.replicated - set(topology.tasks())
        if unknown:
            raise SimulationError(f"plan references unknown tasks: {sorted(unknown)}")
        self.source_replay_window_batches = source_replay_window_batches
        # Physical output-history retention, in batches: enough for the
        # deepest replay lookback (a Storm-style restart reprocesses the
        # source-replay window, reached heartbeat-detection + restart-delay
        # after the failure), plus slack.  Content older than this AND below
        # the logical trim point can never be replayed again, so it is
        # physically deleted — O(replay window) memory instead of
        # O(duration).
        cfg = self.config
        detection_slack = math.ceil(
            (cfg.heartbeat_interval + cfg.costs.restart_delay)
            / cfg.batch_interval
        )
        self._retention_batches = (
            source_replay_window_batches + detection_slack + 8
        )
        # Per-batch constants of the hot path, read from the (frozen)
        # config once instead of once per simulated event.
        self._batch_interval = cfg.batch_interval
        self._network_delay = cfg.costs.network_delay
        self._per_tuple_process = cfg.costs.per_tuple_process
        self._storm_acks = cfg.checkpoint_interval is None

        self.sim = Simulator()
        self.metrics = MetricsCollector(plan=self.plan)
        # Routing tables are a pure function of the topology, so repeated
        # runs over one topology (grid cells, prebuilt workers) can share a
        # prebuilt Router — its key memo is content-transparent.
        if router is not None and router.topology is not topology:
            raise SimulationError(
                "router was built for a different topology instance"
            )
        self.router = router if router is not None else Router(topology)
        # Optional cross-run memo of source batches: source functions are
        # pure, so repeated runs over one workload (grid cells) can share
        # the generated tuples instead of regenerating them per run.
        self._source_memos = source_memos
        self.checkpoints = CheckpointStore()
        self.cluster = cluster or self._default_cluster()
        # Node names whose failure the master has not yet noticed.  Keyed on
        # the *kill*, not the current node flag, so a node that flaps back up
        # before the next heartbeat still gets its dead tasks detected.
        self._pending_detection: set[str] = set()
        #: Virtual time at which sources stop emitting (set by :meth:`run`).
        self.end_time = 0.0
        self._started = False

        # The fault-tolerance scheme decides which tasks get hot replicas
        # and owns everything that happens after a failure is detected.
        self.scheme = create_scheme(self.config.recovery_scheme,
                                    self.config.recovery_params)
        self.scheme.attach(self)
        self.replicated = self.scheme.replicated_tasks(
            topology, self.plan.replicated
        )

        self.runtimes: dict[TaskId, TaskRuntime] = {}
        self._build_runtimes()

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def _default_cluster(self) -> Cluster:
        n = self.topology.num_tasks
        cluster = Cluster(n_workers=n, n_standby=max(1, n))
        cluster.place_round_robin(self.topology)
        return cluster

    def _build_runtimes(self) -> None:
        ckpt_batches = self.config.checkpoint_batches
        for task in self.topology.tasks():
            spec = self.topology.operator(task.operator)
            upstreams = self.topology.upstream_tasks(task)
            is_sink = not self.topology.downstream_tasks(task)
            source_fn = None
            if spec.is_source:
                # Sources are pure, so their batches are memoized: replays
                # and trimmed-log regeneration reuse tuples instead of
                # recomputing them.  A shared memo dict extends the reuse
                # across runs of the same workload.
                memos = self._source_memos
                source_fn = None if memos is None else memos.get(task)
                if source_fn is None:
                    source_fn = MemoizedSource(
                        self.logic_factory.source_for(task), task,
                        capacity=self._retention_batches + 8,
                    )
                    if memos is not None:
                        memos[task] = source_fn
            runtime = TaskRuntime(
                task,
                is_source=spec.is_source,
                is_sink=is_sink,
                expected_upstreams=upstreams,
                replicated=task in self.replicated,
                logic=None if spec.is_source else self.logic_factory.logic_for(task),
                source_fn=source_fn,
            )
            if ckpt_batches is not None and self.config.stagger_checkpoints:
                runtime.checkpoint_phase = stable_hash(str(task)) % ckpt_batches
            self.runtimes[task] = runtime

    def runtime(self, task: TaskId) -> TaskRuntime:
        """Runtime of ``task`` (test/diagnostic access)."""
        try:
            return self.runtimes[task]
        except KeyError:
            raise SimulationError(f"unknown task {task!r}") from None

    # ------------------------------------------------------------------
    # Driving the run
    # ------------------------------------------------------------------
    def schedule_node_failure(self, time: float, node_names: Sequence[str],
                              detect_delay: float = 0.0) -> None:
        """Kill the given nodes at virtual time ``time``.

        ``detect_delay`` adds per-task detection latency on top of the
        heartbeat that notices the failure (the detection-jitter axis).
        """
        names = list(node_names)
        self.sim.at(time, self._fail_nodes, priority=-1,
                    args=(names, detect_delay))

    def schedule_task_failure(self, time: float, tasks: Iterable[TaskId],
                              detect_delay: float = 0.0) -> None:
        """Kill every node hosting one of ``tasks`` at ``time``."""
        names = self.cluster.nodes_hosting(tasks)
        self.schedule_node_failure(time, names, detect_delay)

    def schedule_node_restore(self, time: float,
                              node_names: Sequence[str]) -> None:
        """Bring the given nodes back up at virtual time ``time``.

        Restoring a node makes it eligible to fail again (flapping); it does
        not resurrect the tasks that died on it — those still recover
        through the scheme.  Runs before same-instant kills and heartbeats.
        """
        names = list(node_names)
        self.sim.at(time, self._restore_nodes, priority=-3, args=(names,))

    def schedule_task_restore(self, time: float,
                              tasks: Iterable[TaskId]) -> None:
        """Restore every node hosting one of ``tasks`` at ``time``."""
        names = self.cluster.nodes_hosting(tasks)
        self.schedule_node_restore(time, names)

    def run(self, duration: float, *, settle: bool = True) -> MetricsCollector:
        """Run for ``duration`` virtual seconds of stream input.

        Sources stop emitting at ``duration``; with ``settle=True`` the
        engine then drains remaining events so in-flight recoveries finish
        (the clock advances past ``duration`` as needed).
        """
        if not 0.0 <= duration < math.inf:  # also rejects NaN
            raise SimulationError(
                f"duration must be >= 0 and finite, got {duration!r}")
        if self._started:
            raise SimulationError("an engine instance runs exactly once")
        self._started = True
        self.end_time = duration
        wall_start = time.perf_counter()
        for task in self.topology.source_tasks():
            self.schedule_source_emission(self.runtimes[task], 0)
        self.sim.at(self.config.heartbeat_interval, self._heartbeat, priority=-2)
        self.sim.run_until(duration)
        if settle:
            self.sim.drain()
        metrics = self.metrics
        metrics.wall_seconds = time.perf_counter() - wall_start
        metrics.simulated_seconds = self.sim.now
        metrics.processed_events = self.sim.processed_events
        metrics.peak_history_batches = max(
            (rt.peak_history_batches for rt in self.runtimes.values()),
            default=0,
        )
        return metrics

    # ------------------------------------------------------------------
    # Source emission
    # ------------------------------------------------------------------
    def schedule_source_emission(self, rt: TaskRuntime, index: int) -> None:
        """Re-arm source ``rt``'s normal emission chain at batch ``index``."""
        due = (index + 1) * self._batch_interval
        if due > self.end_time + 1e-9:
            return
        self.sim.at(due, self._emit_source, 0, (rt, index))

    def _emit_source(self, rt: TaskRuntime, index: int) -> None:
        status = rt.status
        if status is FAILED or status is RECOVERING:
            return  # the emission chain is re-armed by recovery
        if index < rt.next_batch:
            # Already emitted (e.g. during a recovery backlog flush).
            self.schedule_source_emission(rt, rt.next_batch)
            return
        self.produce_source_batch(rt, index)
        self.schedule_source_emission(rt, index + 1)

    def produce_source_batch(self, rt: TaskRuntime, index: int) -> None:
        """Make source task ``rt`` produce batch ``index`` now."""
        assert rt.source_fn is not None
        tuples = rt.source_fn.tuples_for_batch(rt.task, index)
        count = len(tuples)
        cost = count * self._per_tuple_process
        now = self.sim.now
        rt.busy_until = (rt.busy_until if rt.busy_until > now else now) + cost
        (rt.cpu or self._cpu(rt)).process += cost
        self.metrics.tuples_processed += count
        rt.next_batch = index + 1
        self._emit_outputs(rt, index, tuples, True)
        # The source log is regenerable from the (pure) source function, so
        # its physical buffer only keeps the replay retention window.
        rt.trim_history(index - self._retention_batches)
        self._maybe_checkpoint(rt, index)
        if rt.status is RECOVERING:  # pragma: no cover - defensive
            self.scheme.check_recovered(rt)

    def _cpu(self, rt: TaskRuntime) -> TaskCpu:
        """Bind ``rt``'s CPU accounting entry (created on first use)."""
        rt.cpu = self.metrics.cpu_of(rt.task)
        return rt.cpu

    # ------------------------------------------------------------------
    # Batch processing
    # ------------------------------------------------------------------
    def _emit_outputs(self, rt: TaskRuntime, index: int,
                      tuples: Sequence[KeyedTuple],
                      complete: bool) -> None:
        # Zero-copy handoff: the router's buckets go into the batches as-is
        # (no per-destination re-tupling), and the same sequence objects are
        # then shared between the output history, the downstream inbox and
        # any operator windows.  Batch tuples are immutable by contract.
        src = rt.task
        per_dst: dict[TaskId, Batch] = {}
        for dst, dst_tuples in self.router.distribute(src, tuples).items():
            per_dst[dst] = Batch(src, dst, index, dst_tuples, complete)
        rt.record_output(index, per_dst)
        if index > rt.emitted:
            rt.emitted = index
        if rt.replicated and (index + 1) % self.config.sync_batches == 0:
            rt.replica_synced = index
        # Destinations go out in task order; one needs no sort.
        outputs = (sorted(per_dst.items()) if len(per_dst) > 1
                   else per_dst.items())
        if rt.status is FAILOVER:
            rt.held_outputs.extend(outputs)
            return
        send = self.send
        for _dst, batch in outputs:
            send(batch)

    def send(self, batch: Batch) -> None:
        """Send ``batch`` downstream with the normal network delay."""
        self.sim.after(self._network_delay, self.deliver, 0, (batch,))

    def deliver(self, batch: Batch) -> None:
        """Deliver ``batch`` to its destination immediately (post-delay)."""
        rt = self.runtimes[batch.dst]
        if rt.status is FAILED:
            return  # data sent to a dead, unreplicated task is lost
        if rt.inbox_put(batch):
            self.try_process(rt)

    def try_process(self, rt: TaskRuntime) -> None:
        """Let ``rt`` (a FAILOVER task's replica included) process its next
        batch if the inbox is ready."""
        if rt.processing or rt.is_source or rt.status is FAILED:
            return
        index = rt.next_batch
        if not rt.inbox_ready(index):
            return
        inputs = rt.take_inbox(index)
        count = 0
        for batch in inputs.values():
            count += batch.size
        cost = count * self._per_tuple_process
        now = self.sim.now
        done = (rt.busy_until if rt.busy_until > now else now) + cost
        rt.busy_until = done
        rt.processing = True
        self.sim.at(done, self._process_done, 0,
                    (rt, index, inputs, cost, rt.incarnation))

    def _process_done(self, rt: TaskRuntime, index: int,
                      inputs: dict[TaskId, Batch], cost: float,
                      incarnation: int) -> None:
        if rt.incarnation != incarnation or rt.status is FAILED:
            return  # the task died while this batch was in flight
        logic = rt.logic
        assert logic is not None
        (rt.cpu or self._cpu(rt)).process += cost
        # One pass over the inputs, in upstream order: the operator's view,
        # the lineage flag, the progress vector and the tuple count.
        ordered = {}
        complete = True
        tuples_in = 0
        progress = rt.progress
        for upstream in sorted(inputs):
            batch = inputs[upstream]
            ordered[upstream] = batch.tuples
            if not batch.complete:
                complete = False
            if not batch.forged:
                tuples_in += batch.size
            if progress.get(upstream, -1) < index:
                progress[upstream] = index
        outputs = logic.process_batch(
            rt.task, (index + 1) * self._batch_interval, ordered)
        metrics = self.metrics
        metrics.tuples_processed += tuples_in
        metrics.batches_processed += 1
        rt.processing = False
        rt.next_batch = index + 1

        if rt.is_sink:
            metrics.sink_records.append(
                SinkRecord(rt.task, index, outputs, complete, self.sim.now)
            )
        else:
            self._emit_outputs(rt, index, outputs, complete)

        self._maybe_checkpoint(rt, index)
        if self._storm_acks:
            self._ack_storm_style(rt, index)
        if rt.status is RECOVERING:
            self.scheme.check_recovered(rt)
        self.try_process(rt)

    # ------------------------------------------------------------------
    # Checkpoints and trimming
    # ------------------------------------------------------------------
    def _maybe_checkpoint(self, rt: TaskRuntime, index: int) -> None:
        period = self.scheme.checkpoint_period(rt)
        if period is None or (index + 1 - rt.checkpoint_phase) % period:
            return
        # Asked only now that a snapshot is due: sources hold no state.
        logic = rt.logic
        state_tuples = logic.state_size() if logic is not None else 0
        costs = self.config.costs
        cost = costs.checkpoint_fixed + state_tuples * costs.per_tuple_serialize
        rt.busy_until = max(self.sim.now, rt.busy_until) + cost
        (rt.cpu or self._cpu(rt)).checkpoint += cost
        snapshot = logic.snapshot() if logic is not None else None
        self.checkpoints.put(Checkpoint(
            task=rt.task, batch_index=index, state=snapshot,
            progress=rt.snapshot_progress(), state_tuples=state_tuples,
            taken_at=self.sim.now,
        ))
        rt.last_checkpoint_batch = index
        self.metrics.checkpoints_taken += 1
        self.scheme.on_checkpoint(rt, cost)
        self.sim.after(costs.network_delay, self._trim_upstreams,
                       args=(rt, index))

    def _trim_upstreams(self, rt: TaskRuntime, index: int) -> None:
        for upstream in rt.expected_upstreams:
            up = self.runtimes[upstream]
            up.acked[rt.task] = max(up.acked.get(rt.task, -1), index)
            subscribers = self.topology.downstream_tasks(upstream)
            up.trimmed_upto = min(up.acked.get(s, -1) for s in subscribers)
            self._trim_physical(up)

    def _ack_storm_style(self, rt: TaskRuntime, index: int) -> None:
        """Vanilla Storm acks tuples once processed: buffers trim immediately."""
        for upstream in rt.expected_upstreams:
            up = self.runtimes[upstream]
            if up.is_source:
                continue  # the source log remains replayable
            up.acked[rt.task] = max(up.acked.get(rt.task, -1), index)
            subscribers = self.topology.downstream_tasks(upstream)
            up.trimmed_upto = min(up.acked.get(s, -1) for s in subscribers)
            self._trim_physical(up)

    def _trim_physical(self, up: TaskRuntime) -> None:
        """Delete batch content that no replay can reach any more.

        Non-source content above ``trimmed_upto`` is still replayable and is
        always kept; below it, only the retention window (the deepest
        Storm-style recompute lookback) survives.  Cost accounting over the
        deleted range keeps working off the retained size skeleton.
        """
        up.trim_history(min(up.trimmed_upto,
                            up.emitted - self._retention_batches))

    def replay_batch(self, up: TaskRuntime, sub: TaskId, index: int) -> Batch:
        """The output batch ``up`` sent to ``sub`` at ``index``, for resend.

        Reads the physically-retained buffer when the batch is still there;
        physically-trimmed *source* batches are regenerated bit-for-bit from
        the memoized (pure) source function and the deterministic router.  A
        trimmed non-source batch means the retention window was violated,
        which is an engine bug and raises rather than silently replaying
        wrong data.
        """
        per_dst = up.history.get(index)
        if per_dst is not None:
            batch = per_dst.get(sub)
            if batch is not None:
                return batch
        if not up.is_source or up.source_fn is None:
            raise SimulationError(
                f"replay of {up.task} batch {index} to {sub} needs physically "
                f"trimmed content (retention window of "
                f"{self._retention_batches} batches was violated)"
            )
        tuples = up.source_fn.tuples_for_batch(up.task, index)
        dst_tuples = self.router.distribute(up.task, tuples)[sub]
        return Batch(src=up.task, dst=sub, index=index,
                     tuples=dst_tuples, complete=True)

    # ------------------------------------------------------------------
    # Failure injection and detection
    # ------------------------------------------------------------------
    def _fail_nodes(self, names: list[str],
                    detect_delay: float = 0.0) -> None:
        fresh = [n for n in names if not self.cluster.node(n).failed]
        died = self.cluster.fail_nodes(names)
        self._pending_detection.update(fresh)
        for task in died:
            rt = self.runtimes[task]
            rt.fail_time = self.sim.now
            rt.detect_extra = detect_delay
            rt.pre_failure_progress = rt.snapshot_progress()
            rt.pre_failure_emitted = rt.emitted
            self.scheme.on_task_failed(rt)

    def _restore_nodes(self, names: list[str]) -> None:
        for name in names:
            self.cluster.restore_node(name)

    def _heartbeat(self) -> None:
        for node in self.cluster.workers:
            if node.name in self._pending_detection:
                self._pending_detection.discard(node.name)
                for task in sorted(node.tasks):
                    rt = self.runtimes[task]
                    if rt.detect_extra > 0.0:
                        self.sim.after(rt.detect_extra,
                                       self._deferred_detection,
                                       args=(rt, rt.incarnation))
                    else:
                        self.scheme.on_failure_detected(rt)
        undetected = bool(self._pending_detection)
        next_beat = self.sim.now + self.config.heartbeat_interval
        if next_beat <= self.end_time + 1e-9 or undetected:
            self.sim.at(next_beat, self._heartbeat, priority=-2)

    def _deferred_detection(self, rt: TaskRuntime, incarnation: int) -> None:
        """Jittered per-task detection; dropped if the task was re-killed."""
        if rt.incarnation != incarnation:
            return
        if rt.status is FAILED or rt.status is FAILOVER:
            self.scheme.on_failure_detected(rt)

    # ------------------------------------------------------------------
    # Introspection helpers
    # ------------------------------------------------------------------
    def sink_records(self) -> list[SinkRecord]:
        """All captured sink outputs, in emission order."""
        return list(self.metrics.sink_records)

    def all_recovered(self) -> bool:
        """Whether every detected failure finished recovering."""
        return all(r.recovered_time is not None for r in self.metrics.recoveries)
