"""Self-healing behaviour: worker reconnects, client retries, degradation.

Covers the resilience layer *applied* — tests/test_resilience.py proves
the policies themselves; this file proves the fabric actually uses them:

* a ``worker --connect`` facing a protocol-mismatched coordinator exits
  non-zero immediately with an actionable message (never retried);
* the sweep client's retry policy reconnects-and-resends a submit whose
  connection died between jobs;
* a cluster backend whose fleet dies mid-grid degrades to its
  in-process fallback, finishes cleanly, and surfaces the degraded
  cells on the report and in the sweep service's status counters.
"""

import dataclasses
import json
import socket
import threading
import time

import pytest

from test_cluster import KILL_SEED, kill_once_cluster_runner

from repro.cluster.backend import ClusterBackend
from repro.errors import ServiceError
from repro.resilience import RetryPolicy
from repro.scenarios import (
    GridSession,
    Scenario,
    ScenarioCache,
    ScenarioResult,
    run_scenario,
    scenario_digest,
)
from repro.service.broker import SweepBroker
from repro.service.client import SweepClient
from repro.service.server import SweepServer


def cell(seed: int) -> Scenario:
    """A fast scenario whose digest is distinct per seed."""
    return Scenario(name=f"cell-{seed}", seed=seed, duration=5.0,
                    planner="none",
                    workload_params={"window_seconds": 5.0,
                                     "rate_per_source": 50.0})


# ---------------------------------------------------------------------------
# Worker versus a protocol-mismatched coordinator
# ---------------------------------------------------------------------------

class FakeMismatchCoordinator:
    """Accepts workers and rejects every register with protocol-mismatch."""

    def __init__(self):
        self._listener = socket.socket()
        self._listener.bind(("127.0.0.1", 0))
        self._listener.listen(4)
        self.address = "127.0.0.1:%d" % self._listener.getsockname()[1]
        self.rejections = 0
        self._thread = threading.Thread(target=self._serve, daemon=True)
        self._thread.start()

    def _serve(self):
        while True:
            try:
                conn, _peer = self._listener.accept()
            except OSError:
                return
            with conn:
                conn.makefile("r").readline()   # the register attempt
                # Count before replying: the worker may exit as soon as it
                # reads the error, before a later increment would run.
                self.rejections += 1
                conn.sendall((json.dumps(
                    {"type": "error", "op": "register",
                     "code": "protocol-mismatch",
                     "message": "protocol 1 unsupported (coordinator "
                                "speaks 99)"}) + "\n").encode())

    def close(self):
        self._listener.close()


class TestProtocolMismatch:
    def test_worker_cli_exits_2_with_actionable_message(self, capsys):
        from repro.experiments.cli import main

        fake = FakeMismatchCoordinator()
        try:
            started = time.monotonic()
            # --reconnect 30 must NOT make it retry for 30s: version skew
            # is permanent, so the agent gives up on the first rejection.
            code = main(["worker", "--connect", fake.address,
                         "--reconnect", "30"])
            elapsed = time.monotonic() - started
        finally:
            fake.close()
        err = capsys.readouterr().err
        assert code == 2
        assert elapsed < 5.0
        assert fake.rejections == 1
        assert "different cluster protocol" in err
        assert "CLUSTER_PROTOCOL_VERSION" in err
        assert "update this host's repro checkout" in err


# ---------------------------------------------------------------------------
# Sweep client self-healing
# ---------------------------------------------------------------------------

class TestSweepClientHealing:
    def test_submit_reconnects_and_resends_after_a_dropped_wire(
            self, tmp_path):
        server = SweepServer(cache=ScenarioCache(tmp_path / "cache")).start()
        try:
            client = SweepClient(
                server.address, client_id="healer",
                retry=RetryPolicy(max_attempts=3, base_delay=0.05,
                                  jitter="none"))
            with client:
                job = client.submit([cell(1)])
                outcome = client.wait(job)
                assert isinstance(outcome.outcomes[0], ScenarioResult)
                # The wire dies between jobs (a server bounce, a cut
                # VPN): the next submit must heal, not raise.
                client._connection.sock.shutdown(socket.SHUT_RDWR)
                job = client.submit([cell(2)])
                outcome = client.wait(job)
            assert isinstance(outcome.outcomes[0], ScenarioResult)
            assert client.reconnects == 1
        finally:
            server.stop()

    def test_submit_without_retry_policy_stays_fail_fast(self, tmp_path):
        server = SweepServer(cache=ScenarioCache(tmp_path / "cache")).start()
        try:
            client = SweepClient(server.address, client_id="brittle")
            with client:
                client._connection.sock.shutdown(socket.SHUT_RDWR)
                with pytest.raises(ServiceError):
                    client.submit([cell(3)])
            assert client.reconnects == 0
        finally:
            server.stop()


# ---------------------------------------------------------------------------
# Cluster backend graceful degradation
# ---------------------------------------------------------------------------

class TestGracefulDegradation:
    def test_dead_fleet_degrades_to_fallback_and_reports_it(
            self, tmp_path, monkeypatch):
        flag = tmp_path / "killed.flag"
        monkeypatch.setenv("REPRO_TEST_CLUSTER_KILL_FLAG", str(flag))
        grid = [cell(i) for i in range(6)]
        grid[2] = dataclasses.replace(grid[2], seed=KILL_SEED)

        backend = ClusterBackend(local_workers=1, respawn=0,
                                 fallback="processes",
                                 degrade_after=0.5,
                                 heartbeat_timeout=2.0)
        try:
            report = GridSession(backend, runner=kill_once_cluster_runner,
                                 retries=1).run(grid)
        finally:
            backend.close()
        assert flag.exists()             # the whole fleet really died
        assert report.errors == 0        # and the grid still finished
        assert report.degraded > 0       # on the in-process fallback
        assert len(backend.degraded_positions) == report.degraded
        for scenario, outcome in zip(grid, report.outcomes):
            assert isinstance(outcome, ScenarioResult)
            assert outcome.scenario == scenario

    def test_no_fallback_means_fail_hard(self):
        backend = ClusterBackend(local_workers=1, fallback=None)
        assert backend.fallback is None


# ---------------------------------------------------------------------------
# Degraded cells in the sweep service's accounting
# ---------------------------------------------------------------------------

class TestDegradedCounters:
    def test_broker_counts_degraded_completions_per_client(self):
        broker = SweepBroker(publish=lambda client, message: None)
        scenarios = [cell(1), cell(2)]
        broker.submit("alice", scenarios, job="a")
        taken = dict(broker.take(5))
        for i, scenario in enumerate(scenarios):
            digest = scenario_digest(scenario)
            assert digest in taken
            broker.complete(digest, run_scenario(scenario),
                            attempts=1, degraded=(i == 0))
        assert broker.totals.degraded == 1
        assert broker.per_client["alice"].degraded == 1
        assert broker.totals.to_dict()["degraded"] == 1

    def test_status_payload_and_rendering_carry_degraded(self, tmp_path):
        from repro.service.cli import render_status

        server = SweepServer(cache=ScenarioCache(tmp_path / "cache")).start()
        try:
            with SweepClient(server.address, client_id="ops") as client:
                job = client.submit([cell(7)])
                client.wait(job)
                status = client.status()
        finally:
            server.stop()
        assert status["totals"]["degraded"] == 0
        assert status["clients"]["ops"]["degraded"] == 0

        # The operator-facing rendering spells the counter out, per
        # client, even when (as here) nothing degraded.
        out = render_status(status)
        assert "0 degraded" in out
        assert "  ops: " in out
