"""Tests for the two clusters: the placement model and the execution fabric.

The first half covers the *simulated* :class:`repro.engine.Cluster`
(node placement, failures).  The second half covers :mod:`repro.cluster`,
the real multi-host execution fabric: runner wire specs, the socket-free
:class:`CellLedger` state machine, in-process coordinator/worker pairs
over loopback TCP, and the acceptance path — ``backend="cluster"`` over
an auto-spawned two-worker local fleet producing sink output
byte-identical to a serial run, including when a worker dies mid-cell.
"""

import dataclasses
import os
import signal
import socket
import sys
import threading
import time

import pytest

from repro.cluster import (
    CellLedger,
    ClusterBackend,
    ClusterCoordinator,
    ClusterWorkerAgent,
)
from repro.cluster.protocol import (
    CLUSTER_PROTOCOL_VERSION,
    runner_from_wire,
    runner_to_wire,
)
from repro.chaos.inject import chaos_runner
from repro.cluster.fleet import LocalFleet
from repro.cluster.worker import parse_address
from repro.engine import Cluster, NodeKind
from repro.errors import ClusterError, SimulationError
from repro.fabric.transport import dump_message, parse_message
from repro.scenarios import (
    EXECUTION_BACKENDS,
    CellError,
    GridSession,
    JsonlSink,
    Scenario,
    ScenarioResult,
    expand_grid,
    resolve_backend,
    run_scenario,
)
from repro.service import SweepServer
from repro.topology import TaskId, linear_chain


class TestConstruction:
    def test_creates_named_nodes(self):
        cluster = Cluster(n_workers=2, n_standby=1)
        assert cluster.node("worker-0").kind is NodeKind.WORKER
        assert cluster.node("standby-0").kind is NodeKind.STANDBY

    def test_requires_at_least_one_worker(self):
        with pytest.raises(SimulationError):
            Cluster(n_workers=0, n_standby=1)

    def test_unknown_node_raises(self):
        with pytest.raises(SimulationError):
            Cluster(1, 0).node("nope")


class TestPlacement:
    def test_round_robin_spreads_tasks(self):
        topo = linear_chain([2, 2])
        cluster = Cluster(n_workers=2, n_standby=0)
        cluster.place_round_robin(topo)
        hosted = [len(cluster.node(f"worker-{i}").tasks) for i in range(2)]
        assert hosted == [2, 2]

    def test_assign_moves_task(self):
        topo = linear_chain([1, 1])
        cluster = Cluster(n_workers=2, n_standby=0)
        cluster.place_round_robin(topo)
        task = TaskId("S", 0)
        cluster.assign(task, "worker-1")
        assert cluster.primary_node(task).name == "worker-1"
        assert task not in cluster.node("worker-0").tasks

    def test_primaries_must_run_on_workers(self):
        cluster = Cluster(1, 1)
        with pytest.raises(SimulationError):
            cluster.assign(TaskId("S", 0), "standby-0")

    def test_unplaced_task_raises(self):
        with pytest.raises(SimulationError):
            Cluster(1, 0).primary_node(TaskId("S", 0))

    def test_standby_assignment_is_stable(self):
        cluster = Cluster(1, 2)
        task = TaskId("S", 0)
        assert cluster.standby_node(task) is cluster.standby_node(task)

    def test_standby_requires_standby_nodes(self):
        with pytest.raises(SimulationError):
            Cluster(1, 0).standby_node(TaskId("S", 0))


class TestFailures:
    def _placed(self):
        topo = linear_chain([2, 2])
        cluster = Cluster(n_workers=4, n_standby=1)
        cluster.place_round_robin(topo)
        return topo, cluster

    def test_fail_nodes_returns_dead_tasks(self):
        topo, cluster = self._placed()
        died = cluster.fail_nodes(["worker-0"])
        assert died == [TaskId("S", 0)]
        assert cluster.node("worker-0").failed

    def test_fail_nodes_idempotent(self):
        _topo, cluster = self._placed()
        assert cluster.fail_nodes(["worker-0"])
        assert cluster.fail_nodes(["worker-0"]) == []

    def test_restore_node(self):
        _topo, cluster = self._placed()
        cluster.fail_nodes(["worker-0"])
        cluster.restore_node("worker-0")
        assert not cluster.node("worker-0").failed

    def test_nodes_hosting(self):
        topo, cluster = self._placed()
        names = cluster.nodes_hosting([TaskId("S", 0), TaskId("O1", 0)])
        assert names == ["worker-0", "worker-2"]

    def test_failed_tasks_lists_primaries_on_dead_nodes(self):
        topo, cluster = self._placed()
        cluster.fail_nodes(["worker-2"])
        assert cluster.failed_tasks() == [TaskId("O1", 0)]


# ======================================================================
# The distributed execution fabric (repro.cluster)
# ======================================================================

def cell(seed: int) -> Scenario:
    """A fast scenario whose digest is distinct per seed."""
    return Scenario(name=f"cell-{seed}", seed=seed, duration=5.0,
                    planner="none",
                    workload_params={"window_seconds": 5.0,
                                     "rate_per_source": 50.0})


#: Sentinel seed marking the cell that kills its worker.
KILL_SEED = 424242


def kill_once_cluster_runner(scenario):
    """Take the whole worker process down on first sight of the marked cell.

    Importable by name (``test_cluster:kill_once_cluster_runner``) on the
    fleet's workers, which are forked from this process or, where
    workers start in a fresh interpreter, get its ``sys.path``.
    """
    if scenario.seed == KILL_SEED:
        flag = os.environ["REPRO_TEST_CLUSTER_KILL_FLAG"]
        if not os.path.exists(flag):
            with open(flag, "w") as handle:
                handle.write("died\n")
            os._exit(3)
    return run_scenario(scenario)


def paced_kill_once_runner(scenario):
    """:func:`kill_once_cluster_runner` with a 20 ms floor per cell, so
    the surviving workers report a steady stream of outcomes."""
    time.sleep(0.02)
    return kill_once_cluster_runner(scenario)


class TestRunnerWireSpecs:
    def test_default_runner_travels_as_none(self):
        assert runner_to_wire(run_scenario) is None
        assert runner_from_wire(None) is run_scenario

    def test_module_level_runner_round_trips(self):
        spec = runner_to_wire(chaos_runner)
        assert spec == "repro.chaos.inject:chaos_runner"
        assert runner_from_wire(spec) is chaos_runner

    def test_lambda_rejected(self):
        with pytest.raises(ClusterError, match="module-level"):
            runner_to_wire(lambda scenario: None)

    def test_closure_rejected(self):
        def make():
            def inner(scenario):
                return None
            return inner
        with pytest.raises(ClusterError, match="module-level"):
            runner_to_wire(make())

    def test_malformed_spec_rejected(self):
        with pytest.raises(ClusterError, match="malformed runner spec"):
            runner_from_wire("no-colon-here")

    def test_unknown_module_rejected(self):
        with pytest.raises(ClusterError, match="cannot import"):
            runner_from_wire("repro.no_such_module:thing")

    def test_unknown_attribute_rejected(self):
        with pytest.raises(ClusterError, match="does not resolve"):
            runner_from_wire("repro.scenarios.runner:no_such_runner")

    def test_non_callable_rejected(self):
        with pytest.raises(ClusterError, match="non-callable"):
            runner_from_wire("repro.cluster.protocol:CLUSTER_PROTOCOL_VERSION")

    def test_parse_address(self):
        assert parse_address("localhost:7070") == ("localhost", 7070)
        assert parse_address(("10.0.0.1", 9)) == ("10.0.0.1", 9)
        for bad in ("nope", ":7070", "host:", "host:seventy"):
            with pytest.raises(ClusterError, match="malformed address"):
                parse_address(bad)


class TestCellLedger:
    def make(self, **kwargs):
        leases: list[tuple[str, dict]] = []
        ledger = CellLedger(lambda worker, message:
                            leases.append((worker, message)), **kwargs)
        return ledger, leases

    def test_duplicate_worker_id_rejected(self):
        ledger, _leases = self.make()
        ledger.register_worker("w", 1)
        with pytest.raises(ClusterError, match="already registered"):
            ledger.register_worker("w", 1)

    def test_bad_capacity_rejected(self):
        ledger, _leases = self.make()
        with pytest.raises(ClusterError, match="capacity"):
            ledger.register_worker("w", 0)

    def test_leases_spread_round_robin(self):
        ledger, leases = self.make()
        ledger.register_worker("a", 2)
        ledger.register_worker("b", 2)
        ledger.submit([cell(i) for i in range(4)])
        owners = sorted(worker for worker, _m in leases)
        assert owners == ["a", "a", "b", "b"]
        for _worker, message in leases:
            assert message["type"] == "cell"
            assert message["runner"] is None
            Scenario.from_dict(message["scenario"])  # well-formed payload

    def test_capacity_limits_inflight(self):
        ledger, leases = self.make()
        ledger.register_worker("a", 1)
        ledger.submit([cell(1), cell(2)])
        assert len(leases) == 1  # second cell waits for a free slot
        worker, message = leases[0]
        ledger.complete(worker, message["cell"], run_scenario(cell(1)))
        assert len(leases) == 2  # completion freed the slot

    def test_complete_yields_triple_and_first_wins(self):
        ledger, leases = self.make()
        ledger.register_worker("a", 1)
        ledger.submit([cell(1)])
        result = run_scenario(cell(1))
        cell_id = leases[0][1]["cell"]
        assert ledger.complete("a", cell_id, result) is True
        assert ledger.complete("a", cell_id, result) is False  # stale
        index, outcome, attempts = ledger.next_outcome(timeout=1.0)
        assert (index, outcome, attempts) == (0, result, 1)
        assert ledger.outstanding() == 0

    def test_worker_death_requeues_with_attempt_charged(self):
        ledger, leases = self.make()
        ledger.register_worker("a", 1)
        ledger.submit([cell(1)], retries=1)
        ledger.remove_worker("a", reason="test")
        ledger.register_worker("b", 1)
        assert [w for w, _m in leases] == ["a", "b"]
        cell_id = leases[1][1]["cell"]
        ledger.complete("b", cell_id, run_scenario(cell(1)))
        _index, outcome, attempts = ledger.next_outcome(timeout=1.0)
        assert isinstance(outcome, ScenarioResult)
        assert attempts == 2  # the death charged an attempt

    def test_retry_budget_exhaustion_reports_worker_death(self):
        ledger, leases = self.make()
        ledger.submit([cell(1)], retries=1)
        for name in ("a", "b"):
            ledger.register_worker(name, 1)
            ledger.remove_worker(name, reason="test")
        index, outcome, attempts = ledger.next_outcome(timeout=1.0)
        assert index == 0 and attempts == 2
        assert isinstance(outcome, CellError)
        assert outcome.kind == "worker-death"
        assert outcome.attempts == 2
        assert "died mid-cell" in outcome.message

    def test_lease_expiry_requeues_then_times_out(self):
        # Huge heartbeat window: only the *lease* deadline may fire here.
        ledger, leases = self.make(heartbeat_timeout=1000.0)
        ledger.register_worker("a", 2)
        ledger.submit([cell(1)], timeout=5.0, retries=1)
        now = time.monotonic()
        assert ledger.tick(now + 6.0) == []  # expired: requeued, re-leased
        assert [m["cell"] for _w, m in leases] == [1, 1]
        ledger.tick(now + 20.0)  # second expiry exhausts the budget
        _index, outcome, _attempts = ledger.next_outcome(timeout=1.0)
        assert isinstance(outcome, CellError)
        assert outcome.kind == "timeout"
        assert outcome.attempts == 2

    def test_silent_worker_declared_dead_by_tick(self):
        ledger, leases = self.make(heartbeat_timeout=5.0)
        ledger.register_worker("quiet", 1)
        ledger.submit([cell(1)], retries=0)
        assert ledger.tick(time.monotonic() + 60.0) == ["quiet"]
        assert ledger.worker_count() == 0
        _index, outcome, _attempts = ledger.next_outcome(timeout=1.0)
        assert isinstance(outcome, CellError)
        assert outcome.kind == "worker-death"
        assert "no heartbeat" in outcome.message

    def test_heartbeat_keeps_worker_alive(self):
        ledger, _leases = self.make(heartbeat_timeout=5.0)
        ledger.register_worker("chatty", 1)
        later = time.monotonic() + 60.0
        ledger._workers["chatty"].last_seen = later  # beacon "arrived"
        assert ledger.tick(later + 1.0) == []
        assert ledger.worker_count() == 1

    def test_one_batch_at_a_time(self):
        ledger, _leases = self.make()
        ledger.submit([cell(1)])
        with pytest.raises(ClusterError, match="one grid at a time"):
            ledger.submit([cell(2)])

    def test_abandon_clears_the_batch(self):
        ledger, leases = self.make()
        ledger.register_worker("a", 1)
        ledger.submit([cell(1), cell(2)])
        ledger.abandon()
        assert ledger.outstanding() == 0
        ledger.submit([cell(3)])  # accepted: the old batch is gone
        # A late result for the abandoned batch's lease is ignored.
        assert ledger.complete("a", leases[0][1]["cell"], "stale") is False

    def test_worker_reported_attempts_rewritten_by_ledger(self):
        ledger, leases = self.make()
        ledger.register_worker("a", 1)
        ledger.register_worker("b", 1)
        ledger.submit([cell(1)], retries=2)
        ledger.remove_worker("a", reason="test")  # requeue: attempt 2 on b
        error = CellError(cell(1), "error", "boom", attempts=1)
        ledger.complete("b", leases[-1][1]["cell"], error)
        _index, outcome, attempts = ledger.next_outcome(timeout=1.0)
        assert attempts == 2
        assert outcome.attempts == 2  # ledger count, not the worker's 1


class TestClusterEndToEnd:
    """In-process coordinator + worker agents over loopback TCP."""

    def run_agents(self, coordinator, count=2, capacity=2, name="agent"):
        agents, threads = [], []
        for i in range(count):
            agent = ClusterWorkerAgent(coordinator.address,
                                       name=f"{name}-{i}", capacity=capacity)
            thread = threading.Thread(target=agent.run, daemon=True)
            thread.start()
            agents.append(agent)
            threads.append(thread)
        deadline = time.monotonic() + 10.0
        while coordinator.worker_count() < count:
            assert time.monotonic() < deadline, "agents never registered"
            time.sleep(0.02)
        return agents, threads

    def collect(self, coordinator, total, timeout=60.0):
        triples = []
        deadline = time.monotonic() + timeout
        while len(triples) < total:
            assert time.monotonic() < deadline, "grid timed out"
            item = coordinator.ledger.next_outcome(timeout=0.5)
            if item is not None:
                triples.append(item)
        return triples

    def test_two_agents_run_a_grid_to_completion(self):
        coordinator = ClusterCoordinator(port=0).start()
        try:
            _agents, threads = self.run_agents(coordinator)
            grid = [cell(i) for i in range(6)]
            coordinator.submit(grid, runner=None, retries=1)
            triples = self.collect(coordinator, len(grid))
        finally:
            coordinator.stop()
        for thread in threads:
            thread.join(timeout=10.0)
            assert not thread.is_alive()  # shutdown reached every agent
        assert sorted(i for i, _o, _a in triples) == list(range(6))
        assert all(a == 1 for _i, _o, a in triples)
        by_index = {i: outcome for i, outcome, _a in triples}
        for index, scenario in enumerate(grid):
            outcome = by_index[index]
            assert isinstance(outcome, ScenarioResult)
            # Wire round trip is lossless: identical to an in-process run.
            assert outcome == run_scenario(scenario)

    def test_colliding_agent_names_are_uniquified(self):
        coordinator = ClusterCoordinator(port=0).start()
        try:
            agents, _threads = self.run_agents(coordinator, count=2,
                                               name="twin")
            # Both asked for "twin-0"-style names; re-request one of them.
            clone = ClusterWorkerAgent(coordinator.address, name="twin-0")
            thread = threading.Thread(target=clone.run, daemon=True)
            thread.start()
            deadline = time.monotonic() + 10.0
            # The coordinator counts an agent before its welcome reaches
            # the agent, so wait for every agent's id as well.
            while coordinator.worker_count() < 3 or any(
                    agent.worker_id is None for agent in (*agents, clone)):
                assert time.monotonic() < deadline
                time.sleep(0.02)
            ids = {agent.worker_id for agent in agents} | {clone.worker_id}
            assert len(ids) == 3
            assert clone.worker_id.startswith("twin-0#")
        finally:
            coordinator.stop()

    def test_first_message_must_be_register(self):
        coordinator = ClusterCoordinator(port=0).start()
        try:
            with socket.create_connection(coordinator.address,
                                          timeout=5.0) as sock:
                sock.sendall(b'{"op": "heartbeat"}\n')
                reply = parse_message(
                    sock.makefile("r", encoding="utf-8").readline())
        finally:
            coordinator.stop()
        assert reply["type"] == "error"
        assert "register" in reply["message"]

    def test_protocol_version_mismatch_rejected(self):
        coordinator = ClusterCoordinator(port=0).start()
        try:
            with socket.create_connection(coordinator.address,
                                          timeout=5.0) as sock:
                sock.sendall(dump_message(
                    {"op": "register", "worker": "old", "capacity": 1,
                     "protocol": CLUSTER_PROTOCOL_VERSION + 1}
                ).encode("utf-8"))
                reply = parse_message(
                    sock.makefile("r", encoding="utf-8").readline())
        finally:
            coordinator.stop()
        assert reply["type"] == "error"
        assert "unsupported" in reply["message"]

    def test_worker_runner_exception_is_an_error_outcome(self):
        coordinator = ClusterCoordinator(port=0).start()
        try:
            self.run_agents(coordinator, count=1)
            coordinator.submit(
                [cell(1)], runner="test_cluster:always_raises", retries=1)
            index, outcome, attempts = self.collect(coordinator, 1)[0]
        finally:
            coordinator.stop()
        # A runner exception is worker-side "error", not a worker death:
        # it is NOT retried, exactly like the pool backends.
        assert index == 0 and attempts == 1
        assert isinstance(outcome, CellError)
        assert outcome.kind == "error"
        assert "boom" in outcome.message


def always_raises(scenario):
    raise ValueError("boom")


def socket_count(pid: int) -> int:
    """How many sockets process ``pid`` holds open."""
    fds = f"/proc/{pid}/fd"
    return sum(1 for fd in os.listdir(fds)
               if os.readlink(f"{fds}/{fd}").startswith("socket:"))


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="forked workers and /proc are Linux-only")
class TestForkedWorkerHygiene:
    """A worker forked from a busy process keeps none of its state."""

    def test_each_worker_holds_only_its_own_connection(self):
        server = SweepServer().start()  # one more listener to inherit
        backend = ClusterBackend(local_workers=2)
        try:
            with backend:
                ledger = backend._coordinator.ledger
                deadline = time.monotonic() + 10.0
                while ledger.worker_count() < 2 \
                        and time.monotonic() < deadline:
                    ledger.await_worker(0.05)
                assert ledger.worker_count() == 2
                pids = [p.pid for p in backend._fleet.processes]
                assert [socket_count(pid) for pid in pids] == [1, 1]
        finally:
            server.stop()

    def test_worker_exits_on_sigterm_despite_the_parents_handler(self):
        previous = signal.signal(signal.SIGTERM, lambda signum, frame: None)
        try:
            with ClusterBackend(local_workers=1) as backend:
                assert backend._coordinator.ledger.await_worker(10.0)
                worker = backend._fleet.processes[0]
                worker.terminate()
                worker.join(10.0)
                assert worker.exitcode == -signal.SIGTERM
        finally:
            signal.signal(signal.SIGTERM, previous)


class TestLocalFleet:
    def test_a_killed_paused_slot_is_replaced(self):
        coordinator = ClusterCoordinator().start()
        fleet = LocalFleet(coordinator.address, 1).start()
        try:
            fleet.pause(0)
            fleet.kill(0)
            fleet.maintain(1)
            assert (fleet.alive(), fleet.respawns_left) == (1, 0)
        finally:
            fleet.terminate()
            coordinator.stop()


class TestClusterBackend:
    """The acceptance path: ``backend="cluster"`` over a real local fleet."""

    GRID_AXES = {"seed": [1, 2, 3, 4, 5, 6]}

    def grid(self):
        return expand_grid(cell(0), self.GRID_AXES)

    def test_registered_and_resolvable_by_name(self):
        assert "cluster" in EXECUTION_BACKENDS.names()
        backend = resolve_backend("cluster")
        assert isinstance(backend, ClusterBackend)
        assert backend.name == "cluster"

    def test_bad_topology_knobs_rejected(self):
        with pytest.raises(ClusterError, match="local_workers"):
            ClusterBackend(local_workers=-1)

    def test_fleet_redials_only_when_a_journal_can_adopt_it(self, tmp_path):
        journaled = ClusterBackend(local_workers=1, startup_timeout=7.0,
                                   journal=tmp_path / "wal.jsonl")
        plain = ClusterBackend(local_workers=1, startup_timeout=7.0)
        for backend, window in ((journaled, 7.0), (plain, 0.0)):
            with backend:
                assert backend._fleet.reconnect == window

    def test_lambda_runner_rejected_before_any_spawn(self):
        backend = ClusterBackend(local_workers=1)
        with pytest.raises(ClusterError, match="module-level"):
            list(backend.execute([cell(1)], lambda s: None))
        assert backend.address is None  # nothing was started

    def test_local_fleet_output_is_digest_identical_to_serial(self, tmp_path):
        grid = self.grid()
        serial = tmp_path / "serial.jsonl"
        report = GridSession("serial", sink=JsonlSink(serial)).run(grid)
        assert report.errors == 0

        clustered = tmp_path / "cluster.jsonl"
        backend = ClusterBackend(local_workers=2)
        try:
            report = GridSession(backend,
                                 sink=JsonlSink(clustered)).run(grid)
        finally:
            backend.close()
        assert report.errors == 0
        assert report.retries == 0
        assert clustered.read_bytes() == serial.read_bytes()

    def test_worker_death_mid_cell_is_retried_elsewhere(self, tmp_path,
                                                        monkeypatch):
        flag = tmp_path / "killed.flag"
        monkeypatch.setenv("REPRO_TEST_CLUSTER_KILL_FLAG", str(flag))
        grid = self.grid()
        grid[2] = dataclasses.replace(grid[2], seed=KILL_SEED)

        backend = ClusterBackend(local_workers=2)
        try:
            report = GridSession(backend, runner=kill_once_cluster_runner,
                                 retries=1).run(grid)
        finally:
            backend.close()
        assert flag.exists()  # a worker really died
        assert report.errors == 0
        assert report.retries >= 1  # the death surfaced in the report
        for scenario, outcome in zip(grid, report.outcomes):
            assert isinstance(outcome, ScenarioResult)
            assert outcome.scenario == scenario

    def test_lost_worker_is_replaced_while_cells_keep_finishing(
            self, tmp_path, monkeypatch):
        flag = tmp_path / "killed.flag"
        monkeypatch.setenv("REPRO_TEST_CLUSTER_KILL_FLAG", str(flag))
        grid = [cell(i) for i in range(30)]
        grid[0] = dataclasses.replace(grid[0], seed=KILL_SEED)

        backend = ClusterBackend(local_workers=2)
        try:
            report = GridSession(backend, runner=paced_kill_once_runner,
                                 retries=1).run(grid)
            names = {process.name for process in backend._fleet.processes}
        finally:
            backend.close()
        assert flag.exists()
        assert report.errors == 0
        # The survivor never let the grid go quiet, and the lost worker
        # was still replaced before the grid ended.
        assert len(names - {"local-0", "local-1"}) == 1

    def test_zero_workers_fails_loudly(self):
        backend = ClusterBackend(local_workers=0, startup_timeout=0.3)
        try:
            with pytest.raises(ClusterError, match="no cluster worker"):
                list(backend.execute([cell(1)], run_scenario))
        finally:
            backend.close()

    def test_close_is_idempotent_and_restartable(self):
        backend = ClusterBackend(local_workers=1)
        try:
            first = list(backend.execute([cell(1)], run_scenario))
            backend.close()
            backend.close()  # idempotent
            second = list(backend.execute([cell(1)], run_scenario))
        finally:
            backend.close()
        assert first[0][1] == second[0][1]
