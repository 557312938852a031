"""``sweep_warm`` — the same fabric, but every cell is a cache hit.

Same server as ``sweep_cold``.  Set-up pre-populates the server's cache
with 16 jobs of 32 cells; the timed loop re-submits those 16 grids
round-robin.  A warm job goes client -> broker -> digest -> cache read ->
wire and never reaches the cluster, so this is the read side beside
``sweep_cold``'s write side: a change that speeds the execute path at the
cost of the hit path (or the reverse) shows on one of the two.
"""

from __future__ import annotations

from typing import Any

from perf.fabric import SweepWorkload
from perf.harness import Timing, median
from perf.micro import cell_function_probes, session_baselines

GRIDS = {"full": 16, "smoke": 2}


class SweepWarm(SweepWorkload):
    name = "sweep_warm"

    def __init__(self, seed: int, size: str = "full"):
        super().__init__(seed, size)
        self.cycle = GRIDS[size]
        self.grids = [self.cells(job) for job in range(self.cycle)]
        self._first: dict[int, list[str]] = {}
        self._first_results: list = []

    def prepare(self) -> None:
        for cells in self.grids:  # cold: fills the cache
            outcome = self.submit(cells)
            if not self.check_job(outcome, executed=len(cells), cache_hits=0):
                self.problems.append("cache pre-population job failed")
        self.submit(self.grids[0])  # warm-up, discarded

    def run_op(self, index: int) -> tuple[float, Any]:
        cells = self.grids[index % self.cycle]
        return len(cells), self.submit(cells)

    def verify(self, index: int, outcome: Any) -> bool:
        ok = self.check_job(outcome, executed=0,
                            cache_hits=self.cells_per_job)
        grid = index % self.cycle
        if ok and grid not in self._first:
            self._first[grid] = self.digests(outcome)
            if grid == 0:
                self._first_results = outcome.results()
            if self.golden is not None \
                    and self._first[grid] != self.golden["grids"][grid]:
                self.problems.append(f"grid {grid} differs from the golden")
                ok = False
        return ok

    def golden_record(self) -> dict:
        return {"grids": [self._first[grid] for grid in sorted(self._first)]}

    def layer_metrics(self, timing: Timing) -> dict[str, float]:
        missing = self.tracer.missing
        metrics = self.fabric_layer_metrics(timing)
        metrics.update(cell_function_probes(self.grids[0],
                                            self._first_results, missing))
        metrics.update(session_baselines(
            lambda k: self.cells(self.PROBE_JOB + 1 + k), missing))
        warm = metrics.get("scenarios.session.warm_cells_per_s")
        if warm:
            metrics["service.overhead_ms_per_cell"] = \
                median(timing.durations) * 1e3 / self.cells_per_job \
                - 1e3 / warm
        return metrics
