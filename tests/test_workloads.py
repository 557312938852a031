"""Unit tests for workload generators (purity, rates, distributions)."""

import pytest

from repro.errors import WorkloadError
from repro.topology import TaskId
from repro.workloads import (
    IncidentReportSource,
    IncidentSchedule,
    UniformRateSource,
    UserLocationSource,
    WorldCupAccessLog,
    batch_rng,
    sample_zipf,
    zipf_probabilities,
)

S0, S1 = TaskId("S", 0), TaskId("S", 1)


class TestZipfUtilities:
    def test_probabilities_sum_to_one(self):
        probs = zipf_probabilities(100, 0.8)
        assert probs.sum() == pytest.approx(1.0)

    def test_probabilities_decrease_with_rank(self):
        probs = zipf_probabilities(10, 1.0)
        assert all(probs[i] > probs[i + 1] for i in range(9))

    def test_zero_exponent_is_uniform(self):
        probs = zipf_probabilities(4, 0.0)
        assert probs == pytest.approx([0.25] * 4)

    def test_rejects_bad_arguments(self):
        with pytest.raises(WorkloadError):
            zipf_probabilities(0, 1.0)
        with pytest.raises(WorkloadError):
            zipf_probabilities(5, -1.0)

    def test_batch_rng_is_pure(self):
        a = batch_rng(7, "x", S0, 3).random()
        b = batch_rng(7, "x", S0, 3).random()
        assert a == b

    def test_batch_rng_varies_with_components(self):
        assert batch_rng(7, "x", S0, 3).random() != batch_rng(7, "x", S0, 4).random()

    def test_sample_zipf_counts(self):
        rng = batch_rng(1, "s")
        probs = zipf_probabilities(10, 0.5)
        assert len(sample_zipf(rng, probs, 25)) == 25
        assert len(sample_zipf(rng, probs, 0)) == 0


class TestUniformRateSource:
    def test_rate_times_interval_tuples(self):
        source = UniformRateSource(50.0, batch_interval=1.0)
        assert len(source.tuples_for_batch(S0, 0)) == 50

    def test_pure_in_task_and_batch(self):
        source = UniformRateSource(10.0)
        assert source.tuples_for_batch(S0, 2) == source.tuples_for_batch(S0, 2)
        assert source.tuples_for_batch(S0, 2) != source.tuples_for_batch(S1, 2)

    def test_keys_bounded_by_key_space(self):
        source = UniformRateSource(100.0, key_space=8)
        keys = {k for k, _v in source.tuples_for_batch(S0, 0)}
        assert len(keys) <= 8

    def test_rejects_negative_rate(self):
        with pytest.raises(WorkloadError):
            UniformRateSource(-1.0)

    @pytest.mark.parametrize("interval", [0.0, -1.0, float("nan")])
    def test_rejects_non_positive_batch_interval(self, interval):
        with pytest.raises(WorkloadError, match="batch_interval"):
            UniformRateSource(10.0, batch_interval=interval)


class TestWorldCup:
    def test_rotation_gives_servers_distinct_hot_pages(self):
        log = WorldCupAccessLog(1000.0, pages=800, servers=8)
        assert log.page_for_rank(0, 0) != log.page_for_rank(4, 0)

    def test_popular_pages_dominate(self):
        log = WorldCupAccessLog(2000.0, pages=100, servers=1, zipf_s=1.0)
        tuples = log.tuples_for_batch(S0, 0)
        counts = {}
        for key, _v in tuples:
            counts[key] = counts.get(key, 0) + 1
        top = max(counts.values())
        assert top > len(tuples) / 20  # rank-1 page stands out

    def test_purity(self):
        log = WorldCupAccessLog(100.0, pages=50)
        assert log.tuples_for_batch(S0, 5) == log.tuples_for_batch(S0, 5)

    def test_rejects_bad_parameters(self):
        with pytest.raises(WorkloadError):
            WorldCupAccessLog(-1.0)
        with pytest.raises(WorkloadError):
            WorldCupAccessLog(10.0, pages=0)


class TestTraffic:
    @pytest.fixture
    def schedule(self):
        return IncidentSchedule(segments=50, users=5000, horizon=60.0,
                                incident_interval=2.0, incident_duration=10.0,
                                seed=3)

    def test_incidents_scheduled_on_interval(self, schedule):
        times = [i.start_time for i in schedule.incidents]
        assert times == sorted(times)
        assert times[0] == pytest.approx(2.0)

    def test_active_segments_during_incident(self, schedule):
        incident = schedule.incidents[0]
        active = schedule.active_segments(incident.start_time + 1.0)
        assert incident.segment in active
        later = schedule.active_segments(incident.start_time + 11.0)
        assert incident.incident_id not in {
            i.incident_id for i in schedule.incidents if i.segment in later
            and i.active_at(incident.start_time + 11.0)
        } or True

    def test_location_speeds_drop_on_incident_segments(self, schedule):
        source = UserLocationSource(schedule, 500.0, free_flow_speed=60.0,
                                    jam_speed=10.0)
        incident = schedule.incidents[0]
        batch_time = int(incident.start_time) + 1
        tuples = source.tuples_for_batch(S0, batch_time)
        jam_key = f"seg-{incident.segment:04d}"
        jam_speeds = [v for k, v in tuples if k == jam_key]
        free_speeds = [v for k, v in tuples if k != jam_key]
        if jam_speeds and free_speeds:
            assert max(jam_speeds) < min(free_speeds)

    def test_reports_emitted_at_incident_start(self, schedule):
        source = IncidentReportSource(schedule, parallelism=1)
        incident = schedule.incidents[0]
        batch = int(incident.start_time)
        tuples = source.tuples_for_batch(S0, batch)
        assert any(v == incident.incident_id for _k, v in tuples)

    def test_reports_sharded_across_tasks(self, schedule):
        # Individual report tuples are indistinguishable (same segment and
        # incident id), so sharding splits the report *count* across tasks.
        sharded = IncidentReportSource(schedule, parallelism=2)
        whole = IncidentReportSource(schedule, parallelism=1)
        incident = schedule.incidents[0]
        batch = int(incident.start_time)
        a = sharded.tuples_for_batch(TaskId("S", 0), batch)
        b = sharded.tuples_for_batch(TaskId("S", 1), batch)
        total = whole.tuples_for_batch(TaskId("S", 0), batch)
        assert len(a) + len(b) == len(total)

    def test_rejects_bad_parallelism(self, schedule):
        with pytest.raises(WorkloadError):
            IncidentReportSource(schedule, parallelism=0)

    def test_schedule_rejects_bad_interval(self):
        with pytest.raises(WorkloadError):
            IncidentSchedule(incident_interval=0.0)


class TestSquareWaveSource:
    def _source(self, **kw):
        from repro.workloads import SquareWaveSource

        defaults = dict(high_rate=30.0, low_rate=10.0, period_batches=10,
                        duty=0.5)
        defaults.update(kw)
        return SquareWaveSource(**defaults)

    def test_burst_and_trough_counts(self):
        src = self._source()
        assert len(src.tuples_for_batch(S0, 0)) == 30   # burst phase
        assert len(src.tuples_for_batch(S0, 5)) == 10   # trough phase
        assert src.is_burst(0) and not src.is_burst(5)
        assert src.is_burst(10)  # periodic

    def test_mean_rate_is_duty_weighted(self):
        assert self._source().mean_rate() == pytest.approx(20.0)

    def test_deterministic_and_replay_safe(self):
        src = self._source()
        assert src.tuples_for_batch(S0, 7) == src.tuples_for_batch(S0, 7)

    def test_tuple_ids_are_contiguous_across_phases(self):
        src = self._source()
        seen = [t for b in range(12) for _, t in src.tuples_for_batch(S0, b)]
        assert [i for _, i in seen] == list(range(len(seen)))

    def test_validation(self):
        with pytest.raises(WorkloadError):
            self._source(high_rate=-1.0)
        with pytest.raises(WorkloadError):
            self._source(period_batches=1)
        with pytest.raises(WorkloadError):
            self._source(duty=1.0)
        with pytest.raises(WorkloadError):
            self._source(key_space=0)

    @pytest.mark.parametrize("interval", [0.0, -1.0, float("nan")])
    def test_rejects_non_positive_batch_interval(self, interval):
        with pytest.raises(WorkloadError, match="batch_interval"):
            self._source(batch_interval=interval)


class TestBurstyWorkload:
    def test_wraps_synthetic_bundle_with_square_wave_sources(self):
        from repro.scenarios import make_bundle
        from repro.workloads import SquareWaveSource

        bundle = make_bundle("bursty", base="synthetic",
                             rate_per_source=200.0, window_seconds=5.0,
                             tuple_scale=16.0, period_seconds=10.0)
        assert bundle.name.startswith("bursty(")
        factory = bundle.make_logic()
        source = factory.source_for(TaskId("S", 0))
        assert isinstance(source, SquareWaveSource)
        # Symmetric default factors keep the long-run mean at the base rate.
        assert source.mean_rate() == pytest.approx(200.0 / 16.0)
        # The planning rate model still carries the base (mean) rates.
        assert bundle.rates is not None

    def test_recovery_latency_burst_vs_trough(self):
        from repro.scenarios import FailureSpec, Scenario, run_scenario

        def run(fail_at):
            return run_scenario(Scenario(
                workload="bursty",
                workload_params={"base": "synthetic",
                                 "rate_per_source": 2000.0,
                                 "window_seconds": 10.0, "tuple_scale": 8.0,
                                 "period_seconds": 20.0, "high_factor": 1.9,
                                 "low_factor": 0.1},
                planner="none",
                engine={"checkpoint_interval": 5.0},
                failures=(FailureSpec("single-task", at=fail_at,
                                      params={"operator": "O2"}),),
                duration=60.0,
            ))

        # Period 20s, duty .5: 40-50s is a burst, 50-60s a trough.  What
        # drives recovery cost is the backlog the restored task replays, so
        # fail late in each phase: at t=48 the replayed window is mostly
        # burst-rate data, at t=58 mostly trough-rate data.
        burst = run(48.0)
        trough = run(58.0)
        assert burst.all_recovered and trough.all_recovered
        assert burst.max_recovery_latency > trough.max_recovery_latency

    def test_bursty_rejects_bad_parameters(self):
        from repro.errors import ScenarioError
        from repro.scenarios import make_bundle

        with pytest.raises(ScenarioError, match="cannot wrap itself"):
            make_bundle("bursty", base="bursty")
        with pytest.raises(ScenarioError, match="duty"):
            make_bundle("bursty", duty=0.0)
        with pytest.raises(ScenarioError, match="period_seconds"):
            make_bundle("bursty", period_seconds=0.0)

    def test_bursty_rejects_non_uniform_base(self):
        from repro.errors import ScenarioError
        from repro.scenarios import make_bundle

        bundle = make_bundle("bursty", base="worldcup", pages=50)
        with pytest.raises(ScenarioError, match="uniform-rate"):
            bundle.make_logic()
