"""``steady_tuples`` — a failure-free full-scale Fig. 6 engine run.

One operation builds a fresh ``fig6_bundle(1000, 10, tuple_scale=0.5)`` and
a fresh ``StreamEngine`` and runs 60 simulated seconds: 5.52 M source and
operator tuples through 3,796 events.  Nothing is shared between runs (no
``source_memos``, no prebuilt router), so this is the tuple path end to end:
source generation, operator logic and kernels, routing, checkpoint
snapshots.  The event loop is a few percent of it, which makes this the
workload an event-path change must *not* move.
"""

from __future__ import annotations

import hashlib
from typing import Any

from repro.engine import EngineConfig, StreamEngine
from repro.workloads.bundles import fig6_bundle

from perf.harness import Timing, Workload
from perf.probes import (
    engine_layer_metrics,
    install_engine_probes,
    other_kernel_backend,
)

SIZES = {
    "full": {"tuple_scale": 0.5, "duration": 60.0},
    "smoke": {"tuple_scale": 16.0, "duration": 20.0},
}


def run_statistics(engine: StreamEngine) -> dict[str, int]:
    """The exact, host-independent counters of a finished run."""
    metrics = engine.metrics
    return {
        "tuples_processed": metrics.tuples_processed,
        "processed_events": metrics.processed_events,
        "batches_processed": metrics.batches_processed,
        "checkpoints_taken": metrics.checkpoints_taken,
        "sink_records": len(metrics.sink_records),
        "peak_history_batches": metrics.peak_history_batches,
    }


def sink_fingerprint(engine: StreamEngine) -> str:
    """SHA-256 over every sink record (task, batch, flags, time, tuples)."""
    digest = hashlib.sha256()
    for record in engine.metrics.sink_records:
        digest.update(repr((str(record.task), record.index, record.complete,
                            record.emitted_at, record.tuples)).encode())
    return digest.hexdigest()


class SteadyTuples(Workload):
    name = "steady_tuples"
    unit = "tuples"
    cycle = 1

    def __init__(self, seed: int, size: str = "full"):
        super().__init__(seed, size)
        self.params = SIZES[size]
        self._runs: list[tuple] = []
        self._first: dict | None = None

    def setup(self, traced: bool = False) -> None:
        if traced:
            self._runs = install_engine_probes(self.tracer)
        self.run_op(-1)  # warm-up, discarded
        if traced:
            del self._runs[:]
            self.tracer.counters.clear()

    def teardown(self) -> None:
        if self.tracer is not None:
            self.tracer.unpatch()

    def run_op(self, index: int) -> tuple[float, Any]:
        bundle = fig6_bundle(1000.0, 10.0,
                             tuple_scale=self.params["tuple_scale"])
        # The engine is deterministic; the seed is carried for the record.
        config = EngineConfig(checkpoint_interval=15.0, seed=self.seed)
        engine = StreamEngine(bundle.topology, bundle.make_logic(), config)
        metrics = engine.run(self.params["duration"])
        return metrics.tuples_processed, engine

    def verify(self, index: int, engine: StreamEngine) -> bool:
        stats = run_statistics(engine)
        ok = engine.all_recovered() and stats["sink_records"] > 0
        if index == 0:
            # Hashing 120k sink tuples is only worth doing once per pass:
            # every run of a pass is the same deterministic simulation.
            self._first = {"statistics": stats,
                           "sink_fingerprint": sink_fingerprint(engine)}
            if self.golden is not None and self._first != self.golden:
                self.problems.append("op 0 differs from the golden")
                ok = False
        elif self._first is not None and stats != self._first["statistics"]:
            self.problems.append(f"op {index} statistics differ from op 0")
            ok = False
        return ok

    def finish_checks(self) -> None:
        """On the default seed, one more run on the other kernel backend."""
        if self.golden is None:
            return
        with other_kernel_backend(self.notes) as other:
            if other is None:
                return
            _work, engine = self.run_op(-1)
            record = {"statistics": run_statistics(engine),
                      "sink_fingerprint": sink_fingerprint(engine)}
        if record != self.golden:
            self.problems.append(f"golden mismatch on the {other} backend")

    def golden_record(self) -> dict:
        return dict(self._first or {})

    def layer_metrics(self, timing: Timing) -> dict[str, float]:
        metrics = engine_layer_metrics(self.tracer, self._runs, timing.first,
                                       timing.last, timing.attempted)
        metrics["engine.checkpoint.sim_cpu_ratio"] = self._runs[0][1]
        return metrics
