"""The sweep server as a subprocess, and the cells the sweep workloads send.

The server is the real ``python -m repro.experiments serve --backend cluster
--cluster-local 2`` with a cache, a submission journal and a coordinator
journal; it runs in its own session so the whole process group (server plus
its worker fleet) can be signalled, accounted and checked as one unit.  For
the traced pass the same entry point is started through
``perf/serve_traced.py``, which installs the fabric probes first.
"""

from __future__ import annotations

import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from typing import Any, Callable

from repro.scenarios import Scenario
from repro.service import SweepClient

from perf.harness import (
    OWNER_ENV,
    PERF,
    SRC,
    Timing,
    Workload,
    WorkloadFailure,
    group_pids,
    median,
    percentile,
    result_digest,
    work_dir,
)
from perf.trace import (
    COUNT,
    END,
    KEY,
    NAME,
    SELF,
    START,
    layer,
    load_dump,
    totals,
)

WORKERS = 2
START_TIMEOUT_S = 30.0
STOP_GRACE_S = 10.0


def sweep_cells(seed: int, job: int, count: int) -> list[Scenario]:
    """The ``count`` cells of job ``job``: tiny engine runs, distinct digests.

    3-4 ms of simulation each (no planner, no failures, 5 simulated seconds
    at 50 tuples/s), so what a job costs is the fabric around the cells.
    Every cell seed derives from the run seed; cells of different jobs never
    share a digest, so a job is only a cache hit when it is re-submitted.
    """
    return [
        Scenario(name=f"sweep/s{seed}/j{job}/c{i}", planner="none",
                 duration=5.0,
                 workload_params={"rate_per_source": 50.0,
                                  "window_seconds": 5.0},
                 seed=(seed << 32) + job * 64 + i)
        for i in range(count)
    ]


class SweepServer:
    """One ``serve --backend cluster`` subprocess group."""

    def __init__(self, traced: bool = False):
        self.traced = traced
        self.dir = work_dir("sweep")
        self.dump_path = self.dir / "server-spans.json"
        self.process: subprocess.Popen | None = None
        self.address: tuple[str, int] | None = None
        self._log = None

    def start(self) -> "SweepServer":
        port_file = self.dir / "port"
        serve = ["serve", "--backend", "cluster",
                 "--cluster-local", str(WORKERS),
                 "--cache-dir", str(self.dir / "cache"),
                 "--journal", str(self.dir / "sweep-journal.jsonl"),
                 "--cluster-journal", str(self.dir / "ledger-journal.jsonl"),
                 "--port-file", str(port_file)]
        if self.traced:
            command = [sys.executable, str(PERF / "serve_traced.py"),
                       str(self.dump_path)] + serve
        else:
            command = [sys.executable, "-m", "repro.experiments"] + serve
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep)
                          if p])
        env[OWNER_ENV] = str(os.getpid())
        self._log = open(self.dir / "server.log", "w")
        self.process = subprocess.Popen(
            command, env=env, cwd=str(self.dir), start_new_session=True,
            stdout=self._log, stderr=subprocess.STDOUT)
        deadline = time.monotonic() + START_TIMEOUT_S
        while True:
            text = port_file.read_text() if port_file.exists() else ""
            if text.endswith("\n"):
                host, port = text.split()
                self.address = (host, int(port))
                return self
            if self.process.poll() is not None:
                raise WorkloadFailure(
                    f"sweep server exited with {self.process.returncode} "
                    f"before binding:\n{self.log_tail()}")
            if time.monotonic() > deadline:
                raise WorkloadFailure(
                    f"sweep server did not bind within {START_TIMEOUT_S:g}s")
            time.sleep(0.005)

    def log_tail(self, lines: int = 20) -> str:
        try:
            text = (self.dir / "server.log").read_text()
        except OSError:
            return ""
        return "\n".join(text.splitlines()[-lines:])

    # -- accounting ------------------------------------------------------
    def pids(self) -> list[int]:
        """The server and its worker fleet (its whole process group)."""
        return group_pids(self.process.pid) if self.process else []

    # -- shutdown --------------------------------------------------------
    def stop(self) -> None:
        """SIGTERM the group (graceful drain), SIGKILL what is left.

        Raises :class:`WorkloadFailure` if any process of the group is
        still alive afterwards.  The scratch directory stays (a traced
        server has just written its span dump there) until :meth:`discard`.
        """
        process, self.process = self.process, None
        if process is None:
            return
        try:
            self._signal_group(process.pid, signal.SIGTERM)
            if not self._group_gone(process.pid):
                self._signal_group(process.pid, signal.SIGKILL)
            gone = self._group_gone(process.pid)
            process.wait(STOP_GRACE_S)
            if not gone:
                raise WorkloadFailure(
                    f"sweep server processes left behind: "
                    f"{group_pids(process.pid)}")
        finally:
            if self._log is not None:
                self._log.close()
                self._log = None

    def discard(self) -> None:
        shutil.rmtree(self.dir, ignore_errors=True)

    @staticmethod
    def _group_gone(pgid: int) -> bool:
        """Wait up to the grace period for the group to empty (zombies,
        which only await their parent's ``wait``, do not count)."""
        deadline = time.monotonic() + STOP_GRACE_S
        while group_pids(pgid):
            if time.monotonic() > deadline:
                return False
            time.sleep(0.01)
        return True

    @staticmethod
    def _signal_group(pgid: int, signum: int) -> None:
        try:
            os.killpg(pgid, signum)
        except ProcessLookupError:
            pass


class SweepWorkload(Workload):
    """What ``sweep_cold`` and ``sweep_warm`` share: one server, one client.

    One operation is one job: submit the job's cells on the single client
    connection and wait until the server has streamed every result back.
    """

    unit = "cells"
    CELLS_PER_JOB = {"full": 32, "smoke": 4}
    #: Job numbers outside the timed range, for warm-up and probe jobs.
    WARMUP_JOB = 1_000_000
    PROBE_JOB = 2_000_000

    def __init__(self, seed: int, size: str = "full"):
        super().__init__(seed, size)
        self.cells_per_job = self.CELLS_PER_JOB[size]
        self.server: SweepServer | None = None
        self.client: SweepClient | None = None
        self._first_cell_ms: list[float] = []
        self._status_before: dict | None = None
        self._probe: dict[str, float] = {}
        self._dump: dict | None = None

    # -- lifecycle -------------------------------------------------------
    def setup(self, traced: bool = False) -> None:
        try:
            self.server = SweepServer(traced).start()
            self.client = SweepClient(self.server.address, client_id="bench")
            self.prepare()
            if traced:
                self._status_before = self.client.status()["totals"]
        except BaseException:
            self.teardown()
            raise

    def prepare(self) -> None:
        """Pre-populate what the workload needs and run the warm-up job."""
        raise NotImplementedError

    def teardown(self) -> None:
        client, self.client = self.client, None
        server, self.server = self.server, None
        try:
            if client is not None:
                client.close()
        finally:
            if server is not None:
                try:
                    server.stop()
                    if server.traced and server.dump_path.exists():
                        self._dump = load_dump(str(server.dump_path))
                finally:
                    server.discard()

    def system_pids(self) -> list[int]:
        return self.server.pids() if self.server is not None else []

    # -- operations ------------------------------------------------------
    def cells(self, job: int) -> list[Scenario]:
        return sweep_cells(self.seed, job, self.cells_per_job)

    def submit(self, cells: list[Scenario]) -> Any:
        """Submit ``cells`` as one job and wait for all of its results."""
        if self.tracer is None:
            return self.client.wait(self.client.submit(cells))
        start = time.perf_counter()
        first: list[float] = []

        def progress(event: dict) -> None:
            if not first:
                first.append(time.perf_counter())

        outcome = self.client.wait(self.client.submit(cells),
                                   progress=progress)
        if first:
            self._first_cell_ms.append((first[0] - start) * 1e3)
        return outcome

    def check_job(self, outcome: Any, *, executed: int,
                  cache_hits: int) -> bool:
        """Every cell came back as a result, from where it should."""
        tally = outcome.tally
        return (tally.get("errors") == 0
                and tally.get("executed") == executed
                and tally.get("cache_hits") == cache_hits
                and len(outcome.results()) == self.cells_per_job
                and all(r.all_recovered for r in outcome.results()))

    def digests(self, outcome: Any) -> list[str]:
        return [result_digest(result) for result in outcome.results()]

    # -- traced pass -----------------------------------------------------
    def after_traced_pass(self) -> None:
        """Client-side probes that need the live server."""
        totals = self.client.status()["totals"]
        before = self._status_before or {}
        self._probe = {key: totals[key] - before.get(key, 0)
                       for key in ("executed", "cache_hits")}
        single = self.cells(self.PROBE_JOB)[:1]
        self.submit(single)  # executes once; the repeats are cache hits
        samples = []
        for _ in range(10):
            start = time.perf_counter()
            self.submit(single)
            samples.append((time.perf_counter() - start) * 1e3)
        self._probe["job_fixed_ms"] = median(samples)

    def fabric_layer_metrics(self, timing: Timing) -> dict[str, float]:
        """Server-side spans of the timed window, per job or per call."""
        tracer = self.tracer
        jobs = timing.attempted
        metrics = {
            "service.client.first_cell_ms": median(self._first_cell_ms[-jobs:]),
            "service.client.job_ms_p90":
                percentile(timing.durations, 0.9) * 1e3,
            "service.client.job_fixed_ms": self._probe.get("job_fixed_ms", 0.0),
            "service.broker.executed": self._probe.get("executed", 0) / jobs,
            "service.broker.cache_hits":
                self._probe.get("cache_hits", 0) / jobs,
        }
        if self._dump is None:
            tracer.missing.append("server span dump")
            return metrics
        tracer.missing.extend(self._dump["missing"])
        spans = self._dump["spans"]
        window = [s for s in spans if timing.first <= s[START] <= timing.last]
        sums = totals(window)

        def mean_us(name: str, which: Callable[[tuple], bool] | None = None
                    ) -> float:
            chosen = [s[SELF] for s in window
                      if s[NAME] == name and (which is None or which(s))]
            return statistics.fmean(chosen) * 1e6 if chosen else 0.0

        submit = layer(sums, "service.broker.submit")
        batch = layer(sums, "cluster.journal.batch")
        metrics.update({
            "service.journal.queued_us": mean_us("service.journal.queued"),
            "service.journal.done_us": mean_us("service.journal.done"),
            "service.broker.submit_us_per_cell":
                submit.busy_s / submit.count * 1e6 if submit.count else 0.0,
            "service.broker.complete_us": mean_us("service.broker.complete"),
            "scenarios.cache.get_hit_us":
                mean_us("scenarios.cache.get", lambda s: s[COUNT] == 1),
            "scenarios.cache.get_miss_us":
                mean_us("scenarios.cache.get", lambda s: s[COUNT] == 0),
            "scenarios.cache.put_us": mean_us("scenarios.cache.put"),
            "cluster.journal.batch_us_per_cell":
                batch.busy_s / batch.count * 1e6 if batch.count else 0.0,
            "cluster.journal.lease_us": mean_us("cluster.journal.lease"),
            "cluster.journal.done_us": mean_us("cluster.journal.done"),
        })
        leased = {s[KEY]: s[START] for s in window
                  if s[NAME] == "cluster.journal.lease"}
        done = [s for s in window if s[NAME] == "cluster.journal.done"]
        held = [s[END] - leased[s[KEY]] for s in done if s[KEY] in leased]
        metrics["cluster.ledger.leases"] = len(leased) / jobs
        metrics["cluster.ledger.retries"] = \
            sum(s[COUNT] - 1 for s in done) / jobs
        metrics["cluster.ledger.lease_to_done_ms_p50"] = median(held) * 1e3
        # Summed lease-to-done over what the workers could have been busy:
        # the complement is time cells waited on the fabric.
        metrics["cluster.worker.busy_share"] = \
            sum(held) / (WORKERS * (timing.last - timing.first))
        fleet = [s for s in spans if s[NAME] == "cluster.fleet.start"]
        leases = [s for s in spans if s[NAME] == "cluster.journal.lease"]
        if fleet and leases:
            # Fleet start to the first lease any worker took: spawn, import,
            # dial, register.
            metrics["cluster.fleet.spawn_s"] = \
                leases[0][START] - fleet[0][START]
        return metrics
