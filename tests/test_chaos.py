"""Tests for the deterministic chaos-injection harness (repro.chaos).

Unit layers are socket-free: the seeded decision coin, the wire-fault
hook with an injected sleep, the fault log's canonical form, and the
controller against a stub backend.  The end-to-end layers run real
local fleets: a determinism run (same seed twice → identical canonical
fault logs) and the CI-style run (kills + a coordinator crash mid-grid
→ zero errors and a sink byte-identical to serial).
"""

import json
import threading
import time

import pytest

from repro.chaos import (
    ChaosController,
    ChaosEvent,
    ChaosSchedule,
    FaultLog,
    WireFaults,
    chaos_runner,
    run_chaos,
)
from repro.chaos.inject import (
    ENV_FAIL_FRACTION,
    ENV_SEED,
    ENV_SLOW_MS,
    _decide,
)
from repro.chaos.schedule import ChaosError
from repro.scenarios import GridSession, JsonlSink, Scenario, ScenarioResult


def cell(seed: int) -> Scenario:
    """A fast scenario whose digest is distinct per seed."""
    return Scenario(name=f"cell-{seed}", seed=seed, duration=5.0,
                    planner="none",
                    workload_params={"window_seconds": 5.0,
                                     "rate_per_source": 50.0})


def lease(index: int, attempt: int = 1) -> dict:
    return {"type": "cell", "cell": index + 1, "index": index,
            "attempt": attempt, "scenario": {}, "runner": None}


def result(cell_id: int) -> dict:
    return {"op": "result", "cell": cell_id, "outcome": {}}


# ---------------------------------------------------------------------------
# Schedules
# ---------------------------------------------------------------------------

class TestChaosSchedule:
    def test_json_round_trip(self):
        schedule = ChaosSchedule(
            seed=7,
            events=(ChaosEvent(0.5, "kill", 1), ChaosEvent(1.2, "crash")),
            delay_ms=50.0, delay_fraction=0.3, drop_fraction=0.1,
            duplicate_fraction=0.2, slow_runner_ms=25.0, fail_fraction=0.05)
        data = json.loads(json.dumps(schedule.to_dict()))
        assert ChaosSchedule.from_dict(data) == schedule

    def test_event_validation(self):
        with pytest.raises(ChaosError, match="unknown chaos action"):
            ChaosEvent(0.5, "reboot")
        with pytest.raises(ChaosError, match=">= 0"):
            ChaosEvent(-1.0, "kill")
        with pytest.raises(ChaosError, match="slot"):
            ChaosEvent(0.5, "kill", -1)

    @pytest.mark.parametrize("kwargs", [
        {"delay_ms": -1.0},
        {"slow_runner_ms": -5.0},
        {"delay_fraction": 1.5},
        {"drop_fraction": -0.1},
        {"duplicate_fraction": 2.0},
        {"fail_fraction": 1.01},
    ])
    def test_knob_validation(self, kwargs):
        with pytest.raises(ChaosError):
            ChaosSchedule(**kwargs)

    def test_from_dict_rejects_unknown_fields(self):
        with pytest.raises(ChaosError, match="unknown chaos schedule"):
            ChaosSchedule.from_dict({"seed": 1, "chaos_level": "maximum"})

    def test_delay_fraction_defaults_to_everything(self):
        assert ChaosSchedule(delay_ms=10.0).effective_delay_fraction == 1.0
        assert ChaosSchedule(delay_ms=10.0, delay_fraction=0.25) \
            .effective_delay_fraction == 0.25
        assert ChaosSchedule().effective_delay_fraction == 0.0

    def test_kill_and_crash_tallies(self):
        schedule = ChaosSchedule(events=(
            ChaosEvent(0.1, "kill"), ChaosEvent(0.2, "kill", 1),
            ChaosEvent(0.3, "pause"), ChaosEvent(0.4, "crash")))
        assert schedule.kills() == 2
        assert schedule.crashes() == 1


# ---------------------------------------------------------------------------
# The seeded coin + wire faults
# ---------------------------------------------------------------------------

class TestDecide:
    def test_same_seed_same_decisions(self):
        ids = [f"out:{i}:1" for i in range(200)]
        first = [_decide(7, "drop", i, 0.5) for i in ids]
        assert first == [_decide(7, "drop", i, 0.5) for i in ids]

    def test_different_seeds_differ(self):
        ids = [f"out:{i}:1" for i in range(200)]
        assert [_decide(7, "drop", i, 0.5) for i in ids] \
            != [_decide(8, "drop", i, 0.5) for i in ids]

    def test_fraction_extremes(self):
        assert not _decide(7, "delay", "in:3", 0.0)
        assert _decide(7, "delay", "in:3", 1.0)


class TestWireFaults:
    def test_ineligible_messages_pass_through_untouched(self):
        faults = WireFaults(
            ChaosSchedule(drop_fraction=1.0, duplicate_fraction=1.0,
                          delay_ms=1000.0),
            sleep=lambda s: pytest.fail("must not sleep"))
        for direction, message in [
            ("out", {"type": "welcome", "worker": "w"}),
            ("out", {"type": "shutdown"}),
            ("in", {"op": "heartbeat"}),
            ("in", {"op": "register", "worker": "w"}),
        ]:
            assert faults.apply(direction, "w", message) == [message]
        assert faults.log.wire == []

    def test_drop_swallows_outbound_leases_only(self):
        faults = WireFaults(ChaosSchedule(drop_fraction=1.0),
                            sleep=lambda s: None)
        assert faults.apply("out", "w", lease(0)) == []
        # Results are never dropped: the same lease would be re-dropped
        # on every retry, starving the cell forever.
        assert faults.apply("in", "w", result(1)) == [result(1)]
        assert faults.log.counts() == {"drop": 1}

    def test_duplicate_delivers_twice(self):
        faults = WireFaults(ChaosSchedule(duplicate_fraction=1.0),
                            sleep=lambda s: None)
        assert faults.apply("out", "w", lease(3)) == [lease(3), lease(3)]
        assert faults.apply("in", "w", result(4)) \
            == [result(4), result(4)]
        assert faults.log.counts() == {"duplicate": 2}

    def test_delay_sleeps_through_the_injected_clock(self):
        slept = []
        faults = WireFaults(ChaosSchedule(delay_ms=50.0),
                            sleep=slept.append)
        assert faults.apply("out", "w", lease(0)) == [lease(0)]
        assert slept == [0.05]
        assert faults.log.counts() == {"delay": 1}

    def test_reattempted_lease_gets_a_fresh_coin(self):
        # Find a seed/fraction where attempt 1 drops and attempt 2
        # survives — the liveness property drop_fraction < 1 relies on.
        schedule = ChaosSchedule(seed=3, drop_fraction=0.5)
        faults = WireFaults(schedule, sleep=lambda s: None)
        fates = {a: faults.apply("out", "w", lease(11, a)) != []
                 for a in range(1, 20)}
        assert True in fates.values() and False in fates.values()


class TestFaultLog:
    def test_canonical_is_insertion_order_independent_for_wire(self):
        a, b = FaultLog(), FaultLog()
        records = [{"fault": "delay", "id": f"out:{i}:1"} for i in range(5)]
        for record in records:
            a.record_wire(record)
        for record in reversed(records):
            b.record_wire(record)
        assert a.canonical() == b.canonical()

    def test_canonical_preserves_scheduled_order(self):
        a, b = FaultLog(), FaultLog()
        first = ChaosEvent(0.1, "kill").to_dict()
        second = ChaosEvent(0.2, "pause", 1).to_dict()
        a.record_scheduled(first)
        a.record_scheduled(second)
        b.record_scheduled(second)
        b.record_scheduled(first)
        assert a.canonical() != b.canonical()

    def test_errors_are_not_part_of_the_canonical_form(self):
        a, b = FaultLog(), FaultLog()
        a.record_error("kill@0.5: no such slot")
        assert a.canonical() == b.canonical()
        assert a.to_dict()["errors"] == ["kill@0.5: no such slot"]


# ---------------------------------------------------------------------------
# The controller, against a stub backend
# ---------------------------------------------------------------------------

class StubFleet:
    def __init__(self, size: int):
        self.processes = list(range(size))
        self.calls: list[tuple[str, int]] = []

    def kill(self, slot):
        self.calls.append(("kill", slot))

    def pause(self, slot):
        self.calls.append(("pause", slot))

    def resume(self, slot):
        self.calls.append(("resume", slot))


class StubBackend:
    def __init__(self, fleet):
        self._fleet = fleet
        self.restarts = 0

    def restart_coordinator(self):
        self.restarts += 1


class TestChaosController:
    def test_fires_events_in_time_order_and_logs_them(self):
        fleet = StubFleet(3)
        backend = StubBackend(fleet)
        schedule = ChaosSchedule(events=(
            ChaosEvent(0.10, "crash"),
            ChaosEvent(0.05, "pause", 1),
            ChaosEvent(0.15, "kill", 2),
        ))
        controller = ChaosController(schedule).attach(backend)
        controller.start()
        assert controller.wait(5.0)
        controller.stop()
        assert fleet.calls == [("pause", 1), ("kill", 2)]
        assert backend.restarts == 1
        assert [r["action"] for r in controller.log.scheduled] \
            == ["pause", "crash", "kill"]
        assert controller.log.errors == []

    def test_unresolvable_slot_is_a_harness_error_not_a_crash(self):
        backend = StubBackend(StubFleet(1))
        schedule = ChaosSchedule(events=(ChaosEvent(0.0, "kill", 5),))
        controller = ChaosController(schedule).attach(backend)
        controller.start()
        assert controller.wait(5.0)
        controller.stop()
        # The planned event is logged regardless (canonical form stays
        # a pure function of the schedule); the failure is separate.
        assert [r["action"] for r in controller.log.scheduled] == ["kill"]
        assert len(controller.log.errors) == 1
        assert "no fleet worker" in controller.log.errors[0]

    def test_start_requires_attach_and_refuses_restarts(self):
        controller = ChaosController(ChaosSchedule())
        with pytest.raises(ChaosError, match="attach"):
            controller.start()
        controller.attach(StubBackend(None))
        controller.start()
        with pytest.raises(ChaosError, match="already started"):
            controller.start()
        controller.stop()

    def test_stop_cancels_pending_events(self):
        fleet = StubFleet(1)
        schedule = ChaosSchedule(events=(ChaosEvent(30.0, "kill"),))
        controller = ChaosController(schedule).attach(StubBackend(fleet))
        controller.start()
        controller.stop()
        assert fleet.calls == []
        assert controller.log.scheduled == []


# ---------------------------------------------------------------------------
# The in-worker runner
# ---------------------------------------------------------------------------

class TestChaosRunner:
    def test_plain_delegation_without_env(self, monkeypatch):
        for key in (ENV_SLOW_MS, ENV_FAIL_FRACTION, ENV_SEED):
            monkeypatch.delenv(key, raising=False)
        outcome = chaos_runner(cell(1))
        assert isinstance(outcome, ScenarioResult)

    def test_fail_fraction_is_deterministic_per_scenario(self, monkeypatch):
        monkeypatch.setenv(ENV_FAIL_FRACTION, "0.5")
        monkeypatch.setenv(ENV_SEED, "7")
        monkeypatch.setenv(ENV_SLOW_MS, "0")

        def fate(scenario):
            try:
                chaos_runner(scenario)
                return "ok"
            except RuntimeError:
                return "fail"

        fates = [fate(cell(i)) for i in range(10)]
        assert "ok" in fates and "fail" in fates   # fraction really bites
        assert fates == [fate(cell(i)) for i in range(10)]   # and repeats


# ---------------------------------------------------------------------------
# run_chaos: validation + end-to-end
# ---------------------------------------------------------------------------

class TestRunChaos:
    def test_drop_without_lease_timeout_is_refused(self):
        with pytest.raises(ChaosError, match="lease_timeout"):
            run_chaos([cell(0)], ChaosSchedule(drop_fraction=0.5))

    def test_custom_runner_conflicts_with_runner_faults(self):
        with pytest.raises(ChaosError, match="not both"):
            run_chaos([cell(0)], ChaosSchedule(slow_runner_ms=10.0),
                      runner=chaos_runner)

    def test_same_seed_injects_identical_faults(self):
        """The determinism acceptance test: two runs, one canonical log.

        Kills and crashes are excluded on purpose — a kill changes
        *attempt* numbers on re-leases, which re-keys the wire coins —
        but pauses, delays and duplicates must reproduce exactly.  The
        slow runner stretches the grid so every scheduled event fires
        in both runs.
        """
        grid = [cell(i) for i in range(8)]
        schedule = ChaosSchedule(
            seed=11,
            events=(ChaosEvent(0.2, "pause", 1), ChaosEvent(0.45, "resume", 1)),
            delay_ms=20.0, delay_fraction=0.5,
            duplicate_fraction=0.4,
            slow_runner_ms=100.0)

        logs = []
        for _run in range(2):
            report, log = run_chaos(grid, schedule, local_workers=2,
                                    retries=2)
            assert report.executed == len(grid)
            assert report.errors == 0
            logs.append(log)
        assert logs[0].canonical() == logs[1].canonical()
        # And the schedule really did something in both runs.
        counts = logs[0].counts()
        assert counts.get("pause") == 1 and counts.get("resume") == 1
        assert counts.get("delay", 0) > 0
        assert counts.get("duplicate", 0) > 0

    def test_kills_and_coordinator_crash_cannot_corrupt_the_grid(
            self, tmp_path):
        """The CI chaos assertion: carnage in, clean identical sink out."""
        grid = [cell(i) for i in range(12)]
        serial = tmp_path / "serial.jsonl"
        report = GridSession("serial", sink=JsonlSink(serial)).run(grid)
        assert report.errors == 0

        chaotic = tmp_path / "chaos.jsonl"
        schedule = ChaosSchedule(
            seed=7,
            events=(ChaosEvent(0.4, "kill", 0),
                    ChaosEvent(0.9, "crash"),
                    ChaosEvent(1.2, "kill", 1)),
            delay_ms=25.0, delay_fraction=0.5,
            duplicate_fraction=0.3,
            slow_runner_ms=150.0)
        report, log = run_chaos(grid, schedule, local_workers=2,
                                sink=JsonlSink(chaotic), retries=2,
                                collect=False)
        assert report.executed == len(grid)
        assert report.errors == 0
        assert log.errors == []
        counts = log.counts()
        assert counts.get("kill") == 2 and counts.get("crash") == 1
        assert chaotic.read_bytes() == serial.read_bytes()


# ---------------------------------------------------------------------------
# The CLI face
# ---------------------------------------------------------------------------

class TestChaosCli:
    def test_cli_runs_a_schedule_file_and_writes_the_fault_log(
            self, tmp_path, capsys):
        from repro.experiments.cli import main

        grid_file = tmp_path / "grid.json"
        grid_file.write_text(json.dumps(
            {"scenarios": [cell(i).to_dict() for i in range(3)]}))
        schedule_file = tmp_path / "schedule.json"
        schedule_file.write_text(json.dumps(ChaosSchedule(
            seed=5, delay_ms=10.0, duplicate_fraction=0.5).to_dict()))
        fault_log = tmp_path / "faults.json"
        output = tmp_path / "out.jsonl"

        code = main(["chaos", str(grid_file),
                     "--schedule", str(schedule_file),
                     "--workers", "1",
                     "--output", str(output),
                     "--fault-log", str(fault_log)])
        out = capsys.readouterr().out
        assert code == 0
        assert "[chaos] seed 5" in out
        assert "3 cells: 3 executed, 0 errors" in out
        assert output.exists()
        assert len(output.read_text().splitlines()) == 3
        logged = json.loads(fault_log.read_text())
        assert set(logged) == {"scheduled", "wire", "errors"}

    def test_cli_inline_flags_build_the_schedule(self, tmp_path, capsys):
        from repro.chaos.cli import chaos_main

        grid_file = tmp_path / "grid.json"
        grid_file.write_text(json.dumps(
            {"scenarios": [cell(0).to_dict()]}))
        code = chaos_main([str(grid_file), "--seed", "3", "--workers", "1",
                           "--json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["seed"] == 3
        assert payload["executed"] == 1 and payload["errors"] == 0

    def test_cli_rejects_malformed_event_flags(self, tmp_path):
        from repro.chaos.cli import chaos_main

        grid_file = tmp_path / "grid.json"
        grid_file.write_text(json.dumps(
            {"scenarios": [cell(0).to_dict()]}))
        with pytest.raises(ChaosError, match="expected T or T:SLOT"):
            chaos_main([str(grid_file), "--kill", "soon"])
