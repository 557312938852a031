"""Which calls get spans, and how spans turn into per-layer metrics.

Two sets of wrappers, both installed by name through
:meth:`perf.trace.Tracer.patch`:

* :func:`install_engine_probes` — the engine workloads, in the benchmark
  process: sources and operator logic (through ``LogicFactory``), routing,
  batch kernels, checkpoint store, the event loop, the recovery-scheme hooks
  and the scenario runner's steps;
* :func:`install_fabric_probes` — the sweep workloads, in the *server*
  process (see ``perf/serve_traced.py``): broker, both journals, the result
  cache and the worker fleet.

All per-layer numbers are normalised to one *cycle* of the workload (one
engine run, one 28-cell set, one job, ...), so they do not depend on how
many cycles fitted into the run.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Any

from perf.trace import LayerTotals, Tracer, layer, resolve

#: ``RecoveryScheme`` methods the engine (or the simulator, as scheduled
#: continuations) calls into.  ``restore_*`` get their own span name so the
#: restore share of recovery is visible.
RECOVERY_HOOKS = (
    "on_task_failed", "fail_unreplicated", "on_failure_detected",
    "complete_takeover", "check_recovered", "request_replay",
    "serve_pending_replays", "serve_replay", "ensure_recomputed",
    "start_forging", "schedule_forge", "forge",
)
RESTORE_HOOKS = ("restore_task", "restore_source")


class _TracedSource:
    """A ``SourceFunction`` with a span around batch generation."""

    __slots__ = ("tuples_for_batch",)

    def __init__(self, tracer: Tracer, inner: Any):
        self.tuples_for_batch = tracer.wrap(
            "workloads.sources", inner.tuples_for_batch,
            count=lambda a, k, result: len(result))


class _TracedLogic:
    """An ``OperatorLogic`` with spans around batch work, snapshot, restore."""

    def __init__(self, tracer: Tracer, inner: Any):
        self._inner = inner
        self.process_batch = tracer.wrap(
            "queries.operators", inner.process_batch,
            count=lambda a, k, result: sum(len(v) for v in a[2].values()))
        self.snapshot = tracer.wrap("engine.checkpoint.snapshot",
                                    inner.snapshot)
        self.restore = tracer.wrap("engine.recovery.restore", inner.restore)
        self.state_size = inner.state_size

    def __getattr__(self, name: str) -> Any:
        return getattr(self._inner, name)


def install_engine_probes(tracer: Tracer) -> list[tuple]:
    """Wrap the engine layers; returns the list run statistics collect in.

    Each finished ``StreamEngine.run`` appends ``(checkpointing enabled,
    checkpoint cpu ratio, peak history batches, processed events)``.
    """
    runs: list[tuple] = []

    tracer.replace(
        "repro.engine.logic:LogicFactory.logic_for",
        lambda original: lambda self, task:
            _TracedLogic(tracer, original(self, task)))
    tracer.replace(
        "repro.engine.logic:LogicFactory.source_for",
        lambda original: lambda self, task:
            _TracedSource(tracer, original(self, task)))

    def counting_memo(original):
        def tuples_for_batch(self, task, batch_index):
            tracer.add("engine.logic.memo_calls")
            return original(self, task, batch_index)
        return tuples_for_batch

    tracer.replace("repro.engine.logic:MemoizedSource.tuples_for_batch",
                   counting_memo)

    tracer.patch("repro.engine.routing:Router.distribute", "engine.routing",
                 count=lambda a, k, result: len(a[2]))
    tracer.patch("repro.engine.kernels:BatchKernel.selectivity_take",
                 "engine.kernels")
    tracer.patch("repro.engine.checkpoint:CheckpointStore.put",
                 "engine.checkpoint.put",
                 count=lambda a, k, result: a[1].state_tuples)
    tracer.patch("repro.engine.events:Simulator.run_until", "engine.events")
    tracer.patch("repro.engine.events:Simulator.drain", "engine.events")

    def observed_run(original):
        traced = tracer.wrap("engine.run", original)

        def run(self, *args, **kwargs):
            metrics = traced(self, *args, **kwargs)
            runs.append((self.config.checkpoint_interval is not None,
                         metrics.checkpoint_cpu_ratio(),
                         metrics.peak_history_batches,
                         metrics.processed_events))
            return metrics
        return run

    tracer.replace("repro.engine.engine:StreamEngine.run", observed_run)

    scheme_classes = ["repro.engine.recovery:RecoveryScheme"]
    try:
        registry = resolve("repro.engine.recovery:RECOVERY_SCHEMES")[2]
        for name in registry.names():
            cls = registry.get(name)
            scheme_classes.append(f"{cls.__module__}:{cls.__qualname__}")
    except (ImportError, AttributeError):
        tracer.missing.append("repro.engine.recovery:RECOVERY_SCHEMES")
    for target in scheme_classes:
        try:
            cls = resolve(target)[2]
        except (ImportError, AttributeError):
            tracer.missing.append(target)
            continue
        for hook in RECOVERY_HOOKS + RESTORE_HOOKS:
            # Only where the class defines it: inherited hooks are already
            # wrapped on the class they come from.
            if hook in vars(cls):
                tracer.patch(f"{target}.{hook}",
                             "engine.recovery.restore"
                             if hook in RESTORE_HOOKS else "engine.recovery")

    tracer.patch("repro.scenarios.runner:ScenarioRunner.run",
                 "scenarios.runner.run")
    tracer.patch("repro.scenarios.runner:ScenarioRunner.bundle",
                 "scenarios.runner.bundle")
    tracer.patch("repro.scenarios.runner:ScenarioRunner.plan",
                 "scenarios.runner.plan")
    return runs


def engine_layer_metrics(tracer: Tracer, runs: list[tuple], start: float,
                         end: float, cycles: int) -> dict[str, float]:
    """The engine-layer metrics of one traced pass, per cycle."""
    sums = tracer.totals(start, end)

    def per_cycle(value: float) -> float:
        return value / cycles

    sources = layer(sums, "workloads.sources")
    operators = layer(sums, "queries.operators")
    kernels = layer(sums, "engine.kernels")
    routing = layer(sums, "engine.routing")
    snapshot = layer(sums, "engine.checkpoint.snapshot")
    put = layer(sums, "engine.checkpoint.put")
    events = layer(sums, "engine.events")
    recovery = layer(sums, "engine.recovery")
    restore = layer(sums, "engine.recovery.restore")
    memo_calls = tracer.counters.get("engine.logic.memo_calls", 0)
    processed = sum(run[3] for run in runs)
    return {
        "workloads.sources.busy_s": per_cycle(sources.busy_s),
        "workloads.sources.tuples": per_cycle(sources.count),
        "engine.logic.source_memo_hit_ratio":
            1.0 - sources.calls / memo_calls if memo_calls else 0.0,
        "queries.operators.busy_s": per_cycle(operators.busy_s),
        "queries.operators.batches": per_cycle(operators.calls),
        "queries.operators.tuples_in": per_cycle(operators.count),
        "engine.kernels.busy_s": per_cycle(kernels.busy_s),
        "engine.kernels.calls": per_cycle(kernels.calls),
        "engine.routing.busy_s": per_cycle(routing.busy_s),
        "engine.routing.tuples": per_cycle(routing.count),
        "engine.checkpoint.snapshot_busy_s":
            per_cycle(snapshot.busy_s + put.busy_s),
        "engine.checkpoint.snapshots": per_cycle(put.calls),
        "engine.checkpoint.state_tuples": per_cycle(put.count),
        "engine.tasks.peak_history_batches":
            max((run[2] for run in runs), default=0),
        "engine.events.self_s": per_cycle(events.busy_s),
        "engine.events.events": per_cycle(processed),
        "engine.events.us_per_event":
            events.busy_s / processed * 1e6 if processed else 0.0,
        "engine.recovery.busy_s": per_cycle(recovery.busy_s + restore.busy_s),
        "engine.recovery.calls": per_cycle(recovery.calls + restore.calls),
        "engine.recovery.restore_busy_s": per_cycle(restore.busy_s),
    }


def runner_layer_metrics(sums: dict[str, LayerTotals],
                         cells: int) -> dict[str, float]:
    """Per-cell split of ``ScenarioRunner.run`` into its four steps (ms)."""
    if not cells:
        return {}

    def per_cell_ms(seconds: float) -> float:
        return seconds / cells * 1e3

    return {
        "scenarios.runner.bundle_ms":
            per_cell_ms(layer(sums, "scenarios.runner.bundle").total_s),
        "scenarios.runner.plan_ms":
            per_cell_ms(layer(sums, "scenarios.runner.plan").total_s),
        "scenarios.runner.engine_ms":
            per_cell_ms(layer(sums, "engine.run").total_s),
        # What is left of run(): engine construction, failure scheduling,
        # objective values, quality scoring, building the result.
        "scenarios.runner.result_ms":
            per_cell_ms(layer(sums, "scenarios.runner.run").busy_s),
    }


def install_fabric_probes(tracer: Tracer) -> None:
    """Wrap the service and cluster layers (runs in the server process)."""
    tracer.patch("repro.service.broker:SweepBroker.submit",
                 "service.broker.submit",
                 count=lambda a, k, result: len(a[2]))
    tracer.patch("repro.service.broker:SweepBroker.complete",
                 "service.broker.complete")
    tracer.patch("repro.service.journal:SweepJournal.record_queued",
                 "service.journal.queued")
    tracer.patch("repro.service.journal:SweepJournal.record_done",
                 "service.journal.done")
    tracer.patch("repro.cluster.journal:LedgerJournal.record_batch",
                 "cluster.journal.batch",
                 count=lambda a, k, result: len(a[1]))
    tracer.patch("repro.cluster.journal:LedgerJournal.record_lease",
                 "cluster.journal.lease", key=lambda a, k, result: a[1])
    tracer.patch("repro.cluster.journal:LedgerJournal.record_done",
                 "cluster.journal.done",
                 count=lambda a, k, result: a[3],  # attempts
                 key=lambda a, k, result: a[1])
    tracer.patch("repro.scenarios.cache:ScenarioCache.get",
                 "scenarios.cache.get",
                 count=lambda a, k, result: 0 if result is None else 1)
    tracer.patch("repro.scenarios.cache:ScenarioCache.put",
                 "scenarios.cache.put")
    tracer.patch("repro.cluster.fleet:LocalFleet.start",
                 "cluster.fleet.start")


@contextmanager
def other_kernel_backend(notes: list[str]):
    """Switch to the kernel backend that is *not* active; yields its name.

    Yields ``None`` (and runs the body on nothing) when there is no second
    backend here: numpy is missing, or the switch itself is gone.
    """
    try:
        set_backend = resolve("repro.engine:set_kernel_backend")[2]
        active = resolve("repro.engine:kernel_backend")[2]()
        numpy_ok = resolve("repro.engine:numpy_available")[2]()
    except (ImportError, AttributeError):
        notes.append("kernel backend switch not found; goldens were checked "
                     "on the active backend only")
        yield None
        return
    other = "python" if active == "numpy" else "numpy"
    if other == "numpy" and not numpy_ok:
        yield None
        return
    set_backend(other)
    try:
        yield other
    finally:
        set_backend(None)
