"""Fig. 13: DP vs SA vs Greedy — plan OF and measured tentative accuracy."""

from repro.experiments.accuracy import fig13

from benchmarks.conftest import record_figure

FRACTIONS = (0.3, 0.6)
Q1 = {"window_seconds": 20.0, "pages": 400, "tuple_scale": 8.0}


def test_fig13_q1(benchmark):
    result = benchmark.pedantic(
        fig13, args=("q1",),
        kwargs=dict(fractions=FRACTIONS, workload_params=Q1),
        rounds=1, iterations=1,
    )
    record_figure(result)
    for row in result.rows:
        cells = dict(zip(result.headers, row))
        # SA tracks the optimal DP closely; the structure-agnostic greedy
        # planner trails both (Sec. VI-B).
        assert cells["SA-OF"] >= cells["Greedy-OF"] - 1e-9
        assert cells["DP-OF"] >= cells["SA-OF"] - 1e-9
        assert cells["SA-Accuracy"] >= cells["Greedy-Accuracy"] - 0.05
