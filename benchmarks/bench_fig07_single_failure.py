"""Fig. 7: recovery latency of single-node failures.

Regenerates the figure at reduced scale (one failure depth, rate 1000 t/s)
and times one representative cell: a checkpoint-recovery engine run.
"""

from repro.experiments.recovery import (
    DEFAULT_TECHNIQUES,
    fig7,
    single_failure_latency,
)
from repro.topology import TaskId

from benchmarks.conftest import record_figure

POSITION = (TaskId("O2", 0),)
SCALE = 16.0


def test_fig7_single_failure(benchmark):
    result = fig7(windows=(10.0, 30.0), rates=(1000.0,),
                  techniques=DEFAULT_TECHNIQUES, positions=POSITION,
                  tuple_scale=SCALE)
    record_figure(result)

    row = dict(zip(result.headers, result.rows[0]))
    assert row["Active-5s"] < row["Checkpoint-15s"], (
        "active replication must beat checkpoint recovery"
    )
    assert row["Checkpoint-5s"] <= row["Checkpoint-30s"], (
        "longer checkpoint intervals must not recover faster"
    )

    technique = next(t for t in DEFAULT_TECHNIQUES
                     if t.label == "Checkpoint-15s")
    benchmark.pedantic(
        single_failure_latency,
        kwargs=dict(technique=technique, window=10.0, rate=1000.0,
                    positions=POSITION, tuple_scale=SCALE),
        rounds=1, iterations=1,
    )
