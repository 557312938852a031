"""Smoke tests for the experiment harness (small scales, real pipelines)."""

import json

import pytest

from repro.errors import ExperimentError
from repro.experiments import (
    FigureResult,
    Technique,
    checkpoint_cpu_ratio,
    correlated_failure_latency,
    fig9,
    fig12,
    format_table,
    half_subtree_plan,
    q1_bundle,
    quality_scenario,
    single_failure_latency,
    sweep_planner_fidelity,
    tentative_speedup,
)
from repro.scenarios import run_scenario
from repro.workloads.bundles import fig6_bundle, q2_bundle
from repro.experiments.random_topologies import BASE_SPEC, fig14
from repro.topology import TaskId

from tests.golden.make_figures_fast import (
    PATH,
    fast_figures,
    golden_keys,
    golden_section,
)

GOLDEN = json.loads(PATH.read_text())


class TestTables:
    def test_format_table_aligns_columns(self):
        text = format_table(["a", "bb"], [[1, 2.5], [10, 0.25]])
        lines = text.splitlines()
        assert len(lines) == 4
        assert all(len(line) == len(lines[0]) for line in lines)

    def test_none_renders_as_dash(self):
        text = format_table(["x"], [[None]])
        assert "-" in text.splitlines()[-1]

    def test_figure_result_render_includes_notes(self):
        result = FigureResult("Fig. X", ["a"], [[1.0]], notes="hello")
        assert "Fig. X" in result.render()
        assert "hello" in result.render()


class TestBundles:
    def test_fig6_bundle_matches_paper_shape(self):
        bundle = fig6_bundle(1000.0, 30.0)
        parallelism = [
            bundle.topology.operator(n).parallelism
            for n in ("S", "O1", "O2", "O3", "O4")
        ]
        assert parallelism == [16, 8, 4, 2, 1]
        assert len(bundle.synthetic_tasks) == 15

    def test_q1_bundle_has_accuracy_support(self):
        bundle = q1_bundle(window_seconds=10.0)
        assert bundle.accuracy_fn is not None
        assert bundle.sink_task == TaskId("O3", 0)
        assert bundle.window_seconds == 10.0

    def test_q2_bundle_join_operator(self):
        bundle = q2_bundle(window_seconds=10.0)
        assert bundle.topology.operator("O3").is_correlated

    def test_tuple_scale_preserves_planner_rates(self):
        a = q1_bundle(tuple_scale=2.0)
        b = q1_bundle(tuple_scale=8.0)
        task = a.topology.source_tasks()[0]
        assert a.rates.output_rate(task) == b.rates.output_rate(task)


class TestRecoveryHarness:
    TECH = Technique("Checkpoint-5s", "checkpoint-replay",
                     {"checkpoint_interval": 5.0})

    def test_single_failure_latency_positive(self):
        value = single_failure_latency(
            self.TECH, window=10.0, rate=500.0,
            positions=(TaskId("O2", 0),), tuple_scale=32.0,
        )
        assert value > 0.0

    def test_correlated_latency_exceeds_single(self):
        single = single_failure_latency(
            self.TECH, window=10.0, rate=500.0,
            positions=(TaskId("O2", 0),), tuple_scale=32.0,
        )
        correlated = correlated_failure_latency(
            self.TECH, window=10.0, rate=500.0, tuple_scale=32.0,
        )
        assert correlated >= single

    def test_half_subtree_plan_is_complete_subtree(self):
        bundle = fig6_bundle(500.0, 10.0, tuple_scale=32.0)
        plan = half_subtree_plan(bundle)
        assert len(plan) == 8
        assert TaskId("O4", 0) in plan


class TestCheckpointCost:
    def test_ratio_decreases_with_interval(self):
        short = checkpoint_cpu_ratio(500.0, 1.0, duration=20.0, tuple_scale=32.0)
        long = checkpoint_cpu_ratio(500.0, 10.0, duration=20.0, tuple_scale=32.0)
        assert short > long > 0.0

    def test_fig9_rows_cover_grid(self):
        result = fig9(intervals=(2.0, 8.0), rates=(500.0,), duration=20.0,
                      tuple_scale=32.0)
        assert len(result.rows) == 2
        assert len(result.rows[0]) == 2


class TestAccuracyHarness:
    Q1 = {"window_seconds": 8.0, "pages": 100, "rate_per_source": 200.0,
          "tuple_scale": 4.0}

    def test_measurement_starts_after_the_window_turned_over(self):
        cell = quality_scenario("q1", {"window_seconds": 20.0}, fraction=0.5,
                                fail_time=50.0)
        assert cell.quality == {"measure_from": 80.0}
        assert cell.duration > cell.quality["measure_from"]
        (failure,) = cell.failures
        assert (failure.model, failure.at) == ("unreplicated", 50.0)
        assert failure.params == {"include_sources": True}

    def test_unknown_query_rejected(self):
        with pytest.raises(ExperimentError, match="q3"):
            fig12("q3")

    def test_full_plan_keeps_accuracy_perfect(self):
        result = run_scenario(quality_scenario(
            "q1", self.Q1, fraction=1.0, fail_time=20.0, measure_seconds=7.0))
        assert result.plan.usage == 21 and not result.failed_tasks
        assert result.output_quality == pytest.approx(1.0)

    def test_empty_plan_gives_zero_accuracy(self):
        result = run_scenario(quality_scenario(
            "q1", self.Q1, fraction=0.0, fail_time=20.0, measure_seconds=7.0))
        assert result.plan.usage == 0 and len(result.failed_tasks) == 21
        assert result.output_quality == 0.0


class TestRandomTopologyHarness:
    def test_sweep_returns_series_per_fraction(self):
        sa, greedy = sweep_planner_fidelity(
            BASE_SPEC, fractions=(0.3, 0.7), n_topologies=4
        )
        assert len(sa) == len(greedy) == 2
        assert all(0.0 <= v <= 1.0 for v in sa + greedy)

    def test_sa_dominates_in_aggregate(self):
        sa, greedy = sweep_planner_fidelity(
            BASE_SPEC, fractions=(0.3,), n_topologies=6
        )
        assert sa[0] >= greedy[0] - 0.02

    def test_fig14_unknown_variant_rejected(self):
        with pytest.raises(ExperimentError):
            fig14("z", n_topologies=1)

    def test_fig14_builds_table(self):
        result = fig14("a", fractions=(0.4,), n_topologies=2)
        assert len(result.rows) == 1
        assert len(result.headers) == 5  # fraction + 2 specs x 2 planners


class TestClaims:
    def test_tentative_speedup_meaningful(self):
        speedup = tentative_speedup(rate=500.0, checkpoint_interval=15.0,
                                    window=10.0, tuple_scale=32.0)
        assert speedup >= 3.0


def _rows(name: str, table: int = 0) -> list[dict]:
    """Rows of one ``--fast`` table (shared with the golden test) by header."""
    result = fast_figures(name)[table]
    return [dict(zip(result.headers, row)) for row in result.rows]


class TestPaperShapes:
    """The orderings the paper's figures show, on the ``--fast`` rows."""

    def test_fig8_active_beats_checkpoint_and_interval_costs(self):
        (row,) = _rows("fig8")
        checkpoint = [row[f"Checkpoint-{s}s"] for s in (5, 15, 30)]
        assert max(row["Active-5s"], row["Active-30s"]) < checkpoint[0]
        assert checkpoint[0] < checkpoint[1] < checkpoint[2]

    def test_fig10_more_replication_recovers_sooner(self):
        for row in _rows("fig10"):
            assert (row["PPA-1.0"] <= row["PPA-0.5-active"]
                    <= row["PPA-0.5"] <= row["PPA-0"])

    def test_fig12_q1_accuracy_grows_with_the_budget(self):
        accuracies = [row["OF-SA-Accuracy"] for row in _rows("fig12", 0)]
        assert accuracies == sorted(accuracies)

    def test_fig12_q2_ic_promises_more_but_of_delivers(self):
        # The paper's key result on the join query: the IC-optimised plan
        # reports a higher metric value yet no better actual accuracy.
        top = _rows("fig12", 1)[-1]
        assert top["IC"] >= top["OF"]
        assert top["OF-SA-Accuracy"] >= top["IC-SA-Accuracy"]

    def test_fig13_sa_tracks_dp_and_greedy_trails(self):
        for row in _rows("fig13"):
            assert row["DP-OF"] >= row["SA-OF"] >= row["Greedy-OF"]
            assert row["SA-Accuracy"] >= row["Greedy-Accuracy"] - 0.05


class TestFastFigureGolden:
    """Every ``--fast`` figure, ablation and claim, digit for digit.

    The fixture predates the move of Fig. 12/13, the claims and the
    ablations onto the scenario path; it is only regenerated (see
    ``tests/golden/make_figures_fast.py``) when the simulation itself
    changes on purpose.
    """

    @pytest.mark.parametrize("section,name", golden_keys())
    def test_matches_golden(self, section, name):
        expected = GOLDEN[section][name] if name else GOLDEN[section]
        assert golden_section(section, name) == expected

    def test_golden_has_no_stale_entries(self):
        keys = golden_keys()
        for section in ("figures", "ablations"):
            assert set(GOLDEN[section]) == {n for s, n in keys if s == section}
