"""Fig. 8: recovery latency of a correlated failure (all 15 tasks killed)."""

from repro.experiments.recovery import (
    DEFAULT_TECHNIQUES,
    correlated_failure_latency,
    fig8,
)

from benchmarks.conftest import record_figure

SCALE = 16.0


def test_fig8_correlated_failure(benchmark):
    result = fig8(windows=(10.0, 30.0), rates=(1000.0,),
                  techniques=DEFAULT_TECHNIQUES, tuple_scale=SCALE)
    record_figure(result)

    short_window = dict(zip(result.headers, result.rows[0]))
    assert short_window["Active-5s"] < short_window["Checkpoint-5s"]
    assert short_window["Active-5s"] <= short_window["Active-30s"]
    # The paper's crossover: with short windows, Storm's source replay beats
    # recovery from stale (30 s) checkpoints.
    assert short_window["Storm"] < short_window["Checkpoint-30s"]

    benchmark.pedantic(
        correlated_failure_latency,
        kwargs=dict(technique=DEFAULT_TECHNIQUES[0], window=10.0, rate=1000.0,
                    tuple_scale=SCALE),
        rounds=1, iterations=1,
    )
