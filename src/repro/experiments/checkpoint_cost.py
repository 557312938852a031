"""Fig. 9: CPU cost of maintaining checkpoints vs checkpoint interval.

The paper measures the ratio of the CPU usage spent creating checkpoints to
the CPU usage of normal processing, per task, for intervals of 1/5/15/30 s
at 1000 and 2000 tuples/s with a 30 s window — showing that very short
intervals are prohibitively expensive, which is why passive recovery latency
cannot simply be tuned away.

In the simulator the ratio comes from the engine's per-task virtual CPU
accounting: checkpoint cost is ``fixed + state_tuples × serialize`` per
checkpoint, processing cost is ``per_tuple_process`` per input tuple.
"""

from __future__ import annotations

from typing import Sequence

from repro.engine.config import EngineConfig
from repro.engine.engine import StreamEngine
from repro.experiments.recovery import FigureResult
from repro.workloads.bundles import fig6_bundle


def checkpoint_cpu_ratio(rate: float, interval: float, *,
                         window: float = 30.0, duration: float = 60.0,
                         tuple_scale: float = 8.0) -> float:
    """Mean checkpoint/process CPU ratio over the synthetic tasks."""
    bundle = fig6_bundle(rate, window, tuple_scale=tuple_scale)
    config = EngineConfig(checkpoint_interval=interval, costs=bundle.costs)
    engine = StreamEngine(bundle.topology, bundle.make_logic(), config)
    metrics = engine.run(duration)
    return metrics.checkpoint_cpu_ratio(bundle.synthetic_tasks)


def fig9(intervals: Sequence[float] = (1.0, 5.0, 15.0, 30.0),
         rates: Sequence[float] = (1000.0, 2000.0),
         window: float = 30.0, duration: float = 60.0,
         tuple_scale: float = 8.0) -> FigureResult:
    """Fig. 9: checkpoint CPU ratio by interval and rate (window 30 s)."""
    headers = ["ckpt interval"] + [f"{rate:g} tuples/s" for rate in rates]
    rows: list[list[object]] = []
    for interval in intervals:
        row: list[object] = [f"{interval:g}s"]
        for rate in rates:
            row.append(checkpoint_cpu_ratio(
                rate, interval, window=window, duration=duration,
                tuple_scale=tuple_scale,
            ))
        rows.append(row)
    return FigureResult(
        f"Fig. 9: checkpoint CPU / processing CPU (window {window:g}s)",
        headers, rows,
        notes="per-task ratio of checkpoint cost to normal processing cost",
    )
