"""``recovery_storm`` — every recovery scheme under every failure model.

One cycle is 28 cells: the 7 ``RECOVERY_SCHEMES`` of PR 10 x 4 failure
models (``correlated``, ``rolling-restart``, ``flapping``,
``detection-jitter``) on the ``synthetic`` workload at ``tuple_scale=32``,
240 simulated seconds, a ``structure-aware`` plan at half budget and
tentative outputs on; the ``correlated`` column also scores output quality
against a failure-free baseline.  One operation is one cell through
``ScenarioRunner(scenario).run()``; the work unit is simulated events.

Tuples are few here (the scale knob trades them away), so the time goes to
the event loop, task bookkeeping and engine glue — and this is the only
workload where restore, replay and punctuation forging run at all.  It is
the same engine as ``steady_tuples`` used the other way round.
"""

from __future__ import annotations

import statistics
from typing import Any

from repro.scenarios import FailureSpec, Scenario, ScenarioResult, ScenarioRunner

from perf.harness import Timing, Workload, result_digest
from perf.probes import (
    engine_layer_metrics,
    install_engine_probes,
    other_kernel_backend,
    runner_layer_metrics,
)
from perf.trace import resolve

#: Pinned (not read from the registry) so a newly registered scheme does not
#: change what this workload measures.
SCHEMES = ("active-standby", "adaptive-checkpoint", "approximate-ft",
           "checkpoint-replay", "k-safe", "ppa", "source-replay")

SIZES = {
    "full": {"duration": 240.0, "at": 60.0, "tuple_scale": 32.0,
             "models": ("correlated", "rolling-restart", "flapping",
                        "detection-jitter")},
    "smoke": {"duration": 40.0, "at": 15.0, "tuple_scale": 64.0,
              "models": ("correlated",)},
}


def failure_spec(model: str, at: float) -> FailureSpec:
    params = {
        "correlated": {},
        "rolling-restart": {"stagger": 8.0},
        "flapping": {"cycles": 3, "down": 10.0, "up": 20.0},
        "detection-jitter": {"jitter": 3.0},
    }[model]
    return FailureSpec(model, at=at, params=params)


def storm_cells(seed: int, size: str) -> list[Scenario]:
    """The cycle's cells, the ``correlated`` column first."""
    params = SIZES[size]
    cells = []
    for model in params["models"]:
        failure = failure_spec(model, params["at"])
        for scheme in SCHEMES:
            cells.append(Scenario(
                name=f"storm/{scheme}/{model}",
                workload="synthetic",
                workload_params={"tuple_scale": params["tuple_scale"]},
                planner="structure-aware", budget_fraction=0.5,
                engine={"tentative_outputs": True},
                recovery=scheme, failures=(failure,),
                quality=({"measure_from": failure.at}
                         if model == "correlated" else {}),
                duration=params["duration"], seed=seed,
            ))
    return cells


class RecoveryStorm(Workload):
    name = "recovery_storm"
    unit = "events"

    def __init__(self, seed: int, size: str = "full"):
        super().__init__(seed, size)
        self.cells = storm_cells(seed, size)
        self.cycle = len(self.cells)
        self._runs: list[tuple] = []
        #: name -> (digest, events, latency, quality, forged, tentative) of
        #: the first cycle.
        self._first: dict[str, tuple] = {}

    def setup(self, traced: bool = False) -> None:
        if traced:
            self._runs = install_engine_probes(self.tracer)
        self.run_op(0)  # warm-up, discarded
        if traced:
            del self._runs[:]
            self.tracer.counters.clear()

    def teardown(self) -> None:
        if self.tracer is not None:
            self.tracer.unpatch()

    def run_op(self, index: int) -> tuple[float, Any]:
        cell = self.cells[index % self.cycle]
        result = ScenarioRunner(cell, profile=True).run()
        return result.profile["processed_events"], result

    def verify(self, index: int, result: Any) -> bool:
        if not isinstance(result, ScenarioResult):
            return False
        ok = bool(result.recoveries) and result.all_recovered
        name = result.scenario.name
        record = (result_digest(result), result.profile["processed_events"],
                  result.max_recovery_latency, result.output_quality,
                  result.batches_forged, result.tentative_sink_batches)
        first = self._first.setdefault(name, record)
        if record[:2] != first[:2]:
            self.problems.append(f"{name}: repeated run differs")
            ok = False
        if self.golden is not None \
                and list(record[:2]) != self.golden["cells"].get(name):
            self.problems.append(f"{name}: differs from the golden")
            ok = False
        return ok

    def finish_checks(self) -> None:
        """On the default seed, the ``correlated`` column on the other backend."""
        if self.golden is None:
            return
        with other_kernel_backend(self.notes) as other:
            if other is None:
                return
            for cell in self.cells[:len(SCHEMES)]:
                result = ScenarioRunner(cell, profile=True).run()
                record = [result_digest(result),
                          result.profile["processed_events"]]
                if record != self.golden["cells"].get(cell.name):
                    self.problems.append(
                        f"{cell.name}: golden mismatch on the {other} backend")

    def golden_record(self) -> dict:
        return {"cells": {name: list(record[:2])
                          for name, record in self._first.items()},
                "events_per_cycle": sum(r[1] for r in self._first.values())}

    def layer_metrics(self, timing: Timing) -> dict[str, float]:
        tracer = self.tracer
        cycles = timing.attempted / self.cycle
        metrics = engine_layer_metrics(tracer, self._runs, timing.first,
                                       timing.last, cycles)
        metrics.update(runner_layer_metrics(
            tracer.totals(timing.first, timing.last), timing.attempted))
        # Exact simulated statistics of the first cycle.
        first = self._first
        metrics["engine.recovery.batches_forged"] = \
            sum(r[4] for r in first.values())
        metrics["engine.recovery.tentative_sink_batches"] = \
            sum(r[5] for r in first.values())
        qualities = []
        for scheme in SCHEMES:
            record = first.get(f"storm/{scheme}/correlated")
            if record is not None:
                metrics[f"engine.recovery.sim_latency_s.{scheme}"] = record[2]
                qualities.append(record[3])
        metrics["engine.recovery.sim_output_quality_mean"] = \
            statistics.fmean(qualities)
        # Checkpoint/processing CPU of the checkpointing runs of one cycle
        # (the quality baselines run without checkpoints and are left out).
        ratios = [run[1] for run in self._runs if run[0]]
        per_cycle = max(1, round(len(ratios) / cycles))
        metrics["engine.checkpoint.sim_cpu_ratio"] = \
            statistics.fmean(ratios[:per_cycle])
        try:
            lead = resolve("repro.experiments.claims:tentative_speedup")[2]
            metrics["engine.recovery.sim_tentative_lead_x"] = lead()
        except (ImportError, AttributeError):
            tracer.missing.append("repro.experiments.claims:tentative_speedup")
        return metrics
