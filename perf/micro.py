"""Direct micro-calls into the grid-cell functions, and in-process baselines.

These are the layer metrics that no end-to-end path can isolate from the
benchmark side (a digest, one sink row, one wire message) plus the
single-process baselines the sweep numbers are read against.  Every target
is resolved by name when the probe runs; a target that is gone is appended
to ``missing`` and its metric left out, so a refactor that renames or merges
these pieces cannot break the benchmark.
"""

from __future__ import annotations

import shutil
import time
from typing import Any, Callable, Sequence

from perf.harness import median, work_dir
from perf.probes import install_engine_probes, runner_layer_metrics
from perf.trace import Tracer, resolve


def _median_us(call: Callable[[], Any], repeats: int) -> float:
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        call()
        samples.append((time.perf_counter() - start) * 1e6)
    return median(samples)


def cell_function_probes(cells: Sequence[Any], results: Sequence[Any],
                         missing: list[str],
                         repeats: int = 200) -> dict[str, float]:
    """Spec, grid, digest, sinks and wire encoding, on real sweep cells.

    ``cells`` are the scenarios of one job and ``results`` their
    ``ScenarioResult``s.
    """
    metrics: dict[str, float] = {}
    cell, result = cells[0], results[0]
    scratch = work_dir("micro")

    def probe(targets: Sequence[str], measure: Callable[..., None]) -> None:
        try:
            resolved = [resolve(target)[2] for target in targets]
        except (ImportError, AttributeError):
            missing.extend(targets)
            return
        measure(*resolved)

    def spec(scenario_cls):
        document = cell.to_dict()
        metrics["scenarios.spec.roundtrip_us"] = _median_us(
            lambda: scenario_cls.from_dict(document).to_dict(), repeats)

    def grid(expand_grid):
        seeds = list(range(len(cells)))
        start = time.perf_counter()
        for _ in range(10):
            expand_grid(cell, {"seed": seeds})
        metrics["scenarios.grid.expand_us_per_cell"] = \
            (time.perf_counter() - start) * 1e6 / (10 * len(cells))

    def digest(scenario_digest):
        metrics["scenarios.cache.digest_us"] = _median_us(
            lambda: scenario_digest(cell), repeats)

    def sink(metric: str, filename: str) -> Callable:
        def measure(sink_cls, scenario_digest):
            writer = sink_cls(scratch / filename)
            digests = [scenario_digest(c) for c in cells]
            writer.start()
            start = time.perf_counter()
            try:
                for index, outcome in enumerate(results):
                    writer.write(index, digests[index], outcome)
            finally:
                writer.finish()
            metrics[metric] = \
                (time.perf_counter() - start) * 1e6 / len(results)
        return measure

    def wire(dump_message, parse_message, outcome_to_wire, outcome_from_wire):
        def encode() -> str:
            return dump_message({"type": "result", "job": "job-1", "index": 0,
                                 "source": "executed", "retries": 0,
                                 "outcome": outcome_to_wire(result)})
        line = encode()
        metrics["service.protocol.encode_us"] = _median_us(encode, repeats)
        metrics["service.protocol.decode_us"] = _median_us(
            lambda: outcome_from_wire(parse_message(line)["outcome"]), repeats)
        metrics["service.protocol.bytes_per_cell"] = len(line.encode("utf-8"))

    try:
        probe(["repro.scenarios:Scenario"], spec)
        probe(["repro.scenarios:expand_grid"], grid)
        probe(["repro.scenarios:scenario_digest"], digest)
        probe(["repro.scenarios:JsonlSink", "repro.scenarios:scenario_digest"],
              sink("scenarios.sinks.jsonl_write_us", "rows.jsonl"))
        probe(["repro.scenarios:SqliteSink", "repro.scenarios:scenario_digest"],
              sink("scenarios.sinks.sqlite_write_us", "rows.sqlite"))
        probe(["repro.service.protocol:dump_message",
               "repro.service.protocol:parse_message",
               "repro.service.protocol:outcome_to_wire",
               "repro.service.protocol:outcome_from_wire"], wire)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    return metrics


def session_baselines(fresh_cells: Callable[[int], list],
                      missing: list[str]) -> dict[str, float]:
    """The same cells without any fabric: serial, cache-warm, process pool.

    ``fresh_cells(k)`` returns never-simulated cells (job ``k`` of a range
    the timed passes do not use).
    """
    metrics: dict[str, float] = {}
    try:
        session_cls = resolve("repro.scenarios:GridSession")[2]
        cache_cls = resolve("repro.scenarios:ScenarioCache")[2]
    except (ImportError, AttributeError):
        missing.extend(["repro.scenarios:GridSession",
                        "repro.scenarios:ScenarioCache"])
        return metrics
    scratch = work_dir("baseline")
    try:
        cells = fresh_cells(0) + fresh_cells(1)
        cache = cache_cls(scratch / "cache")
        start = time.perf_counter()
        report = session_cls(backend="serial", cache=cache).run(cells)
        if report.errors == 0:
            metrics["scenarios.session.serial_cells_per_s"] = \
                len(cells) / (time.perf_counter() - start)
        start = time.perf_counter()
        report = session_cls(backend="serial", cache=cache).run(cells)
        if report.cache_hits == len(cells):
            metrics["scenarios.session.warm_cells_per_s"] = \
                len(cells) / (time.perf_counter() - start)
        cells = fresh_cells(2) + fresh_cells(3)
        try:
            backend = resolve("repro.scenarios:ProcessBackend")[2](
                max_workers=2)
        except (ImportError, AttributeError):
            missing.append("repro.scenarios:ProcessBackend")
        else:
            start = time.perf_counter()
            report = session_cls(backend=backend).run(cells)
            if report.errors == 0:
                metrics["scenarios.backends.processes_cells_per_s"] = \
                    len(cells) / (time.perf_counter() - start)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    return metrics


def runner_split(cells: Sequence[Any], missing: list[str]) -> dict[str, float]:
    """Where one sweep cell's time goes inside the worker's runner.

    Workers are separate processes the benchmark does not instrument, so
    the same cells run here, in-process, through the same prebuilt runner
    with the engine probes installed.
    """
    tracer = Tracer()
    tracer.calibrate()
    try:
        run_prebuilt = resolve(
            "repro.scenarios.prebuilt:run_scenario_prebuilt")[2]
        memo_info = resolve("repro.scenarios.prebuilt:cache_info")[2]
        memo_clear = resolve("repro.scenarios.prebuilt:clear")[2]
    except (ImportError, AttributeError):
        missing.append("repro.scenarios.prebuilt:run_scenario_prebuilt")
        return {}
    install_engine_probes(tracer)
    try:
        memo_clear()
        for cell in cells:
            run_prebuilt(cell)
        built = memo_info()["entries"]
    finally:
        tracer.unpatch()
    missing.extend(tracer.missing)
    metrics = runner_layer_metrics(tracer.totals(), len(cells))
    metrics["scenarios.prebuilt.hit_ratio"] = 1.0 - built / len(cells)
    return metrics
