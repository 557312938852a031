"""Shared builders for engine tests: a tiny deterministic pipeline."""

from __future__ import annotations

import hashlib

from repro.engine import EngineConfig, LogicFactory, MetricsCollector, StreamEngine
from repro.queries import WindowedSelectivityOperator
from repro.topology import Partitioning, TopologyBuilder
from repro.workloads import UniformRateSource


def small_topology(source_parallelism: int = 2, depth_parallelism=(2, 1)):
    """S(n) -> A(...) -> B(...) with merge/full edges, selectivity 1."""
    builder = TopologyBuilder().source("S", source_parallelism)
    names = ["S"]
    for pos, par in enumerate(depth_parallelism):
        name = f"L{pos}"
        builder.operator(name, par)
        names.append(name)
    for up, down in zip(names, names[1:]):
        builder.connect(up, down, Partitioning.FULL)
    return builder.build()


def small_logic(rate: float = 20.0, window: float = 10.0,
                selectivity: float = 1.0, key_space: int = 16) -> LogicFactory:
    factory = LogicFactory()
    factory.register_source("S", UniformRateSource(rate, key_space=key_space))
    for name in ("L0", "L1", "L2", "L3"):
        factory.register_operator(
            name, lambda: WindowedSelectivityOperator(window, selectivity)
        )
    return factory


def build_engine(config: EngineConfig | None = None, *, plan=(),
                 source_parallelism: int = 2, depth_parallelism=(2, 1),
                 rate: float = 20.0, window: float = 10.0,
                 selectivity: float = 1.0) -> StreamEngine:
    topology = small_topology(source_parallelism, depth_parallelism)
    logic = small_logic(rate, window, selectivity)
    return StreamEngine(
        topology, logic, config or EngineConfig(), plan=plan,
        source_replay_window_batches=round(window),
    )


def sink_outputs(engine: StreamEngine) -> dict[int, tuple]:
    """Sink tuples by batch index (single-sink topologies)."""
    return {r.index: r.tuples for r in engine.metrics.sink_records}


def run_scenario_engine(scenario) -> StreamEngine:
    """Run ``scenario`` through a directly constructed engine.

    Mirrors :class:`repro.scenarios.runner.ScenarioRunner` but returns the
    engine itself, so parity tests can fingerprint the raw
    :class:`MetricsCollector` (per-task CPU, recovery records, sink log)
    rather than the distilled :class:`ScenarioResult`.  Like the runner, it
    takes the router and the shared plans and source batches from the
    workload memo (:func:`repro.scenarios.prebuilt.prebuilt_workload`).
    """
    from repro.scenarios.prebuilt import prebuilt_workload
    from repro.scenarios.runner import ScenarioRunner

    runner = ScenarioRunner(scenario)
    bundle, router, caches = prebuilt_workload(scenario)
    plan = runner.plan(bundle)
    config = runner.engine_config(bundle)
    kwargs = {}
    replay_window = scenario.engine.get("source_replay_window_batches")
    if replay_window is not None:
        kwargs["source_replay_window_batches"] = int(replay_window)
    engine = StreamEngine(bundle.topology, bundle.make_logic(), config,
                          plan=plan, router=router,
                          source_memos=caches.source_memos, **kwargs)
    for spec in scenario.failures:
        for wave in runner.failure_waves(spec, bundle, plan):
            at = spec.at + wave.offset
            if wave.tasks:
                engine.schedule_task_failure(at, wave.tasks,
                                             detect_delay=wave.detect_delay)
            if wave.restores:
                engine.schedule_task_restore(at, wave.restores)
    engine.run(scenario.duration)
    return engine


def metrics_fingerprint(metrics: MetricsCollector) -> dict:
    """A JSON-native, byte-stable digest of everything a run measured.

    Floats survive a JSON round-trip exactly (``json`` serialises via
    ``repr``), so two fingerprints compare equal iff the runs produced
    identical metrics: recovery records, per-task CPU split, counters,
    tentative-output counts, and a hash over the full sink output log.
    """
    sink_log = "\n".join(
        f"{r.task}|{r.index}|{r.complete}|{r.emitted_at!r}|{r.tuples!r}"
        for r in metrics.sink_records
    )
    return {
        "recoveries": [
            [str(r.task), r.mode.value, r.fail_time, r.detect_time,
             r.recovered_time]
            for r in metrics.recoveries
        ],
        "cpu": {
            str(task): [cpu.process, cpu.checkpoint, cpu.replay]
            for task, cpu in sorted(metrics.cpu.items())
        },
        "checkpoint_cpu_ratio": metrics.checkpoint_cpu_ratio(),
        "batches_processed": metrics.batches_processed,
        "tuples_processed": metrics.tuples_processed,
        "checkpoints_taken": metrics.checkpoints_taken,
        "batches_forged": metrics.batches_forged,
        "complete_sink_batches": len(metrics.sink_outputs(tentative=False)),
        "tentative_sink_batches": len(metrics.sink_outputs(tentative=True)),
        "sink_sha256": hashlib.sha256(sink_log.encode()).hexdigest(),
    }
