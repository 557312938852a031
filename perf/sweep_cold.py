"""``sweep_cold`` — never-seen cells through the whole fabric.

A real ``serve --backend cluster --cluster-local 2`` subprocess (cache,
submission journal and coordinator journal on); one ``SweepClient`` submits
jobs of 32 cells back to back, every cell new to the server, and waits for
each job.  A cell is 3-4 ms of engine, so what is measured is the hop chain
client -> broker -> coordinator -> lease -> worker -> outcome -> cache ->
client, i.e. journals, wire, scheduling and the cache's write side.
"""

from __future__ import annotations

from typing import Any

from repro.scenarios import GridSession

from perf.fabric import SweepWorkload
from perf.harness import Timing, median, result_digest
from perf.micro import cell_function_probes, runner_split, session_baselines


class SweepCold(SweepWorkload):
    name = "sweep_cold"
    cycle = 1

    def __init__(self, seed: int, size: str = "full"):
        super().__init__(seed, size)
        self._first_job: tuple[list, list[str]] | None = None
        self._first_results: list = []

    def prepare(self) -> None:
        self.submit(self.cells(self.WARMUP_JOB))  # also spawns the fleet

    def run_op(self, index: int) -> tuple[float, Any]:
        cells = self.cells(index)
        return len(cells), (cells, self.submit(cells))

    def verify(self, index: int, output: Any) -> bool:
        cells, outcome = output
        ok = self.check_job(outcome, executed=len(cells), cache_hits=0)
        if index == 0 and ok:
            self._first_job = (cells, self.digests(outcome))
            self._first_results = outcome.results()
            if self.golden is not None \
                    and self._first_job[1] != self.golden["first_job"]:
                self.problems.append("first job differs from the golden")
                ok = False
        return ok

    def finish_checks(self) -> None:
        """The fabric changed nothing: job 0 equals an in-process serial run."""
        if self._first_job is None:
            self.problems.append("first job did not complete")
            return
        cells, digests = self._first_job
        report = GridSession(backend="serial").run(cells)
        if [result_digest(r) for r in report.outcomes] != digests:
            self.problems.append(
                "first job differs from an in-process serial run")

    def golden_record(self) -> dict:
        return {"first_job": self._first_job[1] if self._first_job else []}

    def layer_metrics(self, timing: Timing) -> dict[str, float]:
        missing = self.tracer.missing
        metrics = self.fabric_layer_metrics(timing)
        cells = self._first_job[0]
        metrics.update(cell_function_probes(cells, self._first_results,
                                            missing))
        metrics.update(session_baselines(
            lambda k: self.cells(self.PROBE_JOB + 1 + k), missing))
        metrics.update(runner_split(cells, missing))
        serial = metrics.get("scenarios.session.serial_cells_per_s")
        if serial:
            metrics["service.overhead_ms_per_cell"] = \
                median(timing.durations) * 1e3 / self.cells_per_job \
                - 1e3 / serial
        return metrics
