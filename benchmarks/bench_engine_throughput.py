"""Engine microbenchmark: simulated-seconds-per-wall-second of the Fig. 6 run.

The same run is measured (without pytest-benchmark) by
``benchmarks/baseline.py``, which maintains the committed perf trajectory in
``BENCH_engine.json`` and gates regressions in CI.
"""

from repro.engine import EngineConfig, StreamEngine
from repro.workloads.bundles import fig6_bundle


def test_bench_engine_run(benchmark):
    def run_once():
        bundle = fig6_bundle(1000.0, 10.0, tuple_scale=16.0)
        config = EngineConfig(checkpoint_interval=15.0, costs=bundle.costs)
        engine = StreamEngine(bundle.topology, bundle.make_logic(), config)
        engine.run(30.0)
        return engine

    engine = benchmark.pedantic(run_once, rounds=2, iterations=1)
    assert engine.metrics.batches_processed > 0
    assert engine.metrics.sink_records
    # The physically-trimmed output buffer stays O(replay window).
    assert 0 < engine.metrics.peak_history_batches <= 60
    assert engine.metrics.processed_events > 0
