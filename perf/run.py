#!/usr/bin/env python3
"""The repo benchmark: one command, five workloads, end-to-end and per layer.

::

    python3 perf/run.py                         # all workloads, then traced
    python3 perf/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perf/run.py --smoke                 # tiny sizes, schema check
    python3 perf/run.py --compare A.json B.json # apply BENCHMARK.json bounds

With ``--workload`` one workload makes one pass and the last line of
standard output is one JSON object (``correct``, ``attempted``, ``failed``,
``metrics``): the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``.  Without it every workload runs twice, each pass
in a process of its own — untraced for the end-to-end numbers, traced for
the layers — and a report is printed (and written with ``--out``).

See ``perf/README.md`` for the catalogue of workloads and metrics.
"""

from __future__ import annotations

import time

_PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import re  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
# Run as a script, sys.path[0] is perf/ itself, where trace.py would shadow
# the standard library's; the repo root makes `perf` a package instead.
sys.path[0] = str(ROOT)
if str(SRC) not in sys.path:
    sys.path.insert(1, str(SRC))

#: name -> (module, class), in the order the report lists them.
WORKLOADS = {
    "steady_tuples": ("perf.steady_tuples", "SteadyTuples"),
    "recovery_storm": ("perf.recovery_storm", "RecoveryStorm"),
    "planner_sweep": ("perf.planner_sweep", "PlannerSweep"),
    "sweep_cold": ("perf.sweep_cold", "SweepCold"),
    "sweep_warm": ("perf.sweep_warm", "SweepWarm"),
}
#: Set-up is repeated and its median reported, so one slow start (a cold
#: page cache, a slow fork) does not decide ``setup_s``.
SETUP_REPEATS = 3
NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def load_manifest() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


# ---------------------------------------------------------------------------
# One workload, one pass
# ---------------------------------------------------------------------------
def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 size: str = "full", import_s: float | None = None) -> dict:
    """Measure ``name`` once; returns the run document (see ``emit``)."""
    from perf import harness
    from perf.trace import Tracer

    started = time.perf_counter()
    module_name, class_name = WORKLOADS[name]
    workload_cls = getattr(importlib.import_module(module_name), class_name)
    if import_s is None:
        import_s = time.perf_counter() - started
    workload = workload_cls(seed, size)
    document: dict = {"workload": name, "seed": seed, "size": size,
                      "trace": int(trace), "unit": workload.unit}
    reference = None
    try:
        with harness.wall_ceiling(harness.WALL_CEILING_S, name):
            if not trace:
                setups = []
                for repeat in range(SETUP_REPEATS if size == "full" else 1):
                    if repeat:
                        workload.teardown()
                    start = time.perf_counter()
                    workload.setup()
                    setups.append(time.perf_counter() - start)
                timing = harness.timed_pass(workload, seconds)
                rss = harness.peak_rss_mb(workload.system_pids())
                workload.finish_checks()
                workload.teardown()
                document["metrics"] = end_to_end(
                    timing, import_s + statistics.median(setups), rss)
            else:
                tracer = Tracer()
                tracer.calibrate()  # before the heap fills up
                if size == "full":
                    # Half-length untraced reference first: what tracing
                    # costs is the difference between the two passes.
                    workload.setup()
                    reference = harness.timed_pass(workload, seconds / 2)
                    workload.teardown()
                workload.tracer = tracer
                workload.setup(traced=True)
                timing = harness.timed_pass(workload, seconds)
                workload.after_traced_pass()
                workload.teardown()
                layers = workload.layer_metrics(timing)
                if reference is not None and reference.work_per_s:
                    layers["bench.trace_overhead_frac"] = \
                        1.0 - timing.work_per_s / reference.work_per_s
                layers["bench.calibration_ops_per_s"] = \
                    harness.calibration_ops_per_s()
                document["metrics"] = layers
                document["probes_missing"] = sorted(set(tracer.missing))
                document["span_count"] = len(tracer.spans)
                document["span_cost_us"] = tracer.span_cost_s * 1e6
    finally:
        workload.teardown()
        harness.remove_work_dirs()
    stray = harness.stray_servers()
    if stray:
        workload.problems.append(f"processes left behind: {stray}")
    document.update({
        "attempted": timing.attempted,
        "failed": timing.failed
        + (reference.failed if reference is not None else 0),
        "timed_s": timing.busy_s,
        "work": timing.work,
        "problems": workload.problems,
        "notes": workload.notes,
    })
    document["correct"] = document["failed"] == 0 and not workload.problems
    document["_workload"] = workload
    return document


def end_to_end(timing, setup_s: float, rss_mb: float) -> dict:
    from perf.harness import median

    return {
        "setup_s": setup_s,
        "work_per_s": timing.work_per_s,
        "op_ms_p50": median(timing.durations) * 1e3,
        "cpu_us_per_work": timing.cpu_s_per_work * 1e6,
        "peak_rss_mb": rss_mb,
    }


def wire_metrics(document: dict, manifest: dict) -> dict:
    """The ``metrics`` object of the result line: every manifest metric.

    A layer the workload does not exercise, or whose probe target is gone,
    reads 0 here (the ``--out`` document says ``null`` and lists the probe
    under ``probes_missing``).
    """
    declared = manifest["per_layer" if document["trace"] else "end_to_end"]
    measured = document["metrics"]
    return {entry["name"]: {"value": float(measured.get(entry["name"]) or 0.0),
                            "unit": entry["unit"]}
            for entry in declared}


def public(document: dict, manifest: dict) -> dict:
    """``document`` as written to ``--out``: JSON-native, nulls for gaps."""
    out = {k: v for k, v in document.items() if not k.startswith("_")}
    declared = manifest["per_layer" if document["trace"] else "end_to_end"]
    out["metrics"] = {entry["name"]: {"value": document["metrics"].get(
        entry["name"]), "unit": entry["unit"]} for entry in declared}
    out["undeclared_metrics"] = sorted(
        set(document["metrics"]) - {entry["name"] for entry in declared})
    return out


def print_run(document: dict, manifest: dict) -> None:
    """Human-readable lines of one pass (before the result line)."""
    kind = "per-layer (traced)" if document["trace"] else "end-to-end"
    print(f"== {document['workload']}  seed={document['seed']}  {kind}: "
          f"{document['attempted']} ops, {document['failed']} failed, "
          f"{document['timed_s']:.2f} s timed, "
          f"{document['work']:.0f} {document['unit']}")
    for name, entry in wire_metrics(document, manifest).items():
        raw = document["metrics"].get(name)
        shown = "-" if raw is None else f"{entry['value']:.6g}"
        if not document["trace"] or raw:
            print(f"  {name:<44} {shown:>14} {entry['unit']}"
                  + (f"   (n={document['attempted']})"
                     if name == "op_ms_p50" else ""))
    for missing in document.get("probes_missing", ()):
        print(f"  probe missing: {missing}")
    for line in document["problems"]:
        print(f"  PROBLEM: {line}")
    for line in document["notes"]:
        print(f"  note: {line}")


def driver_main(args: argparse.Namespace, import_s: float) -> int:
    from perf.harness import WorkloadFailure

    manifest = load_manifest()
    try:
        document = run_workload(args.workload, args.seed, args.seconds,
                                bool(args.trace), import_s=import_s)
    except WorkloadFailure as exc:
        print(f"error: {args.workload}: {exc}", file=sys.stderr)
        return 1
    if args.write_golden:
        from perf.harness import write_golden
        write_golden(args.workload, document["_workload"].golden_record())
        print(f"wrote perf/golden/{args.workload}.json")
    tracer = document["_workload"].tracer
    if args.trace_out and tracer is not None:
        tracer.dump(args.trace_out, workload=args.workload, seed=args.seed)
    if args.out:
        Path(args.out).write_text(
            json.dumps(public(document, manifest), indent=1) + "\n")
    print_run(document, manifest)
    print(json.dumps({"correct": document["correct"],
                      "attempted": document["attempted"],
                      "failed": document["failed"],
                      "metrics": wire_metrics(document, manifest)}))
    return 0 if document["correct"] else 1


# ---------------------------------------------------------------------------
# All workloads (each pass in its own process), smoke, compare
# ---------------------------------------------------------------------------
def full_main(args: argparse.Namespace) -> int:
    from perf import harness

    manifest = load_manifest()
    seconds = args.seconds or manifest["run_seconds"]
    names = [w["name"] for w in manifest["workloads"]]
    report = {"meta": machine_info(), "seed": args.seed, "seconds": seconds,
              "workloads": {name: {"end_to_end": [], "per_layer": []}
                            for name in names}}
    scratch = harness.work_dir("full")
    ok = True
    try:
        for trace in (0, 1):
            for repeat in range(args.repeat if not trace else 1):
                for name in names:
                    out = scratch / f"{name}-{trace}.json"
                    command = [sys.executable, str(Path(__file__).resolve()),
                               "--workload", name, "--seed", str(args.seed),
                               "--seconds", str(seconds), "--trace", str(trace),
                               "--out", str(out)]
                    if trace and args.trace_out:
                        command += ["--trace-out",
                                    f"{args.trace_out}.{name}.json"]
                    done = subprocess.run(command, stdout=subprocess.PIPE,
                                          text=True, cwd=str(ROOT))
                    # Everything but the machine-readable last line.
                    print("\n".join(done.stdout.splitlines()[:-1]), flush=True)
                    if not out.exists():
                        print(f"  PROBLEM: {name} produced no result "
                              f"(exit {done.returncode})")
                        ok = False
                        continue
                    document = json.loads(out.read_text())
                    out.unlink()
                    ok = ok and done.returncode == 0 and document["correct"]
                    key = "per_layer" if trace else "end_to_end"
                    report["workloads"][name][key].append(document)
    finally:
        harness.remove_work_dirs()
    print_summary(report, manifest)
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
        print(f"wrote {args.out}")
    return 0 if ok else 1


def machine_info() -> dict:
    info = {"python": platform.python_version(),
            "machine": platform.machine(), "system": platform.system(),
            "cpus": os.cpu_count(), "numpy": None}
    try:
        import numpy
        info["numpy"] = numpy.__version__
    except ImportError:
        pass
    return info


def metric_values(report: dict, workload: str, kind: str,
                  metric: str) -> list[float]:
    return [run["metrics"][metric]["value"]
            for run in report["workloads"].get(workload, {}).get(kind, ())
            if run["metrics"].get(metric, {}).get("value") is not None]


def print_summary(report: dict, manifest: dict) -> None:
    names = list(report["workloads"])
    print("\n== end-to-end (median of the untraced runs; n = operations) ==")
    header = f"{'metric':<18}" + "".join(f"{n:>17}" for n in names)
    print(header)
    for entry in manifest["end_to_end"]:
        row = f"{entry['name'] + ' [' + entry['unit'] + ']':<18}"
        for name in names:
            values = metric_values(report, name, "end_to_end", entry["name"])
            row += f"{statistics.median(values):>17.6g}" if values \
                else f"{'-':>17}"
        print(row)
    row = f"{'n (ops, failed)':<18}"
    for name in names:
        runs = report["workloads"][name]["end_to_end"]
        row += f"{sum(r['attempted'] for r in runs):>11},{sum(r['failed'] for r in runs):>5}"
    print(row)


def spread(values: list[float]) -> float | None:
    """Run-to-run spread as a share of the median (None for one run)."""
    if len(values) < 2:
        return None
    middle = statistics.median(values)
    if not middle:
        return None
    if len(values) >= 4:
        quartiles = statistics.quantiles(values, n=4)
        return (quartiles[2] - quartiles[0]) / abs(middle)
    return (max(values) - min(values)) / abs(middle)


def is_exact(entry: dict) -> bool:
    """Counts and simulated statistics: must be identical run to run."""
    name = entry["name"]
    return (entry["unit"] == "count" or ".sim_" in name
            or name.startswith("core.plans.of_sum"))


def compare_main(path_a: str, path_b: str) -> int:
    """One row per workload x end-to-end metric; exact layer metrics after."""
    manifest = load_manifest()
    a = json.loads(Path(path_a).read_text())
    b = json.loads(Path(path_b).read_text())
    worse = 0
    print(f"{'workload':<16}{'metric':<18}{'A median':>14}{'B median':>14}"
          f"{'change':>9}{'bound':>7}  verdict")
    for workload in [w["name"] for w in manifest["workloads"]]:
        for entry in manifest["end_to_end"]:
            va = metric_values(a, workload, "end_to_end", entry["name"])
            vb = metric_values(b, workload, "end_to_end", entry["name"])
            if not va or not vb:
                print(f"{workload:<16}{entry['name']:<18}{'-':>14}{'-':>14}"
                      f"{'-':>9}{entry['bound']:>7.2f}  missing")
                worse += 1
                continue
            ma, mb = statistics.median(va), statistics.median(vb)
            change = (mb - ma) / abs(ma) if ma else 0.0
            loss = change if entry["better"] == "lower" else -change
            spreads = [s for s in (spread(va), spread(vb)) if s is not None]
            b_always_better = (max(vb) < min(va) if entry["better"] == "lower"
                               else min(vb) > max(va))
            if loss > entry["bound"]:
                verdict = "worse"
                worse += 1
            elif spreads and max(spreads) > entry["bound"] \
                    and not b_always_better:
                verdict = f"unresolved (spread {max(spreads):.0%})"
            else:
                verdict = "ok"
            print(f"{workload:<16}{entry['name']:<18}{ma:>14.6g}{mb:>14.6g}"
                  f"{change:>+9.1%}{entry['bound']:>7.2f}  {verdict}")
    differing = []
    for workload in [w["name"] for w in manifest["workloads"]]:
        for entry in manifest["per_layer"]:
            if is_exact(entry):
                va = metric_values(a, workload, "per_layer", entry["name"])
                vb = metric_values(b, workload, "per_layer", entry["name"])
                if set(va) != set(vb) or len(set(va)) > 1:
                    differing.append((workload, entry["name"], va, vb))
    print(f"\nexact metrics (counts, simulated statistics, OF sums): "
          f"{'identical' if not differing else 'DIFFER'}")
    for workload, name, va, vb in differing:
        print(f"  {workload} {name}: A={va} B={vb}")
    return 1 if worse or differing else 0


def smoke_main() -> int:
    """Every workload at a tiny size, then validate what came out."""
    manifest = load_manifest()
    problems = check_manifest(manifest)
    layer_names = {entry["name"] for entry in manifest["per_layer"]}
    seen_layers: set[str] = set()
    started = time.perf_counter()
    for name in [w["name"] for w in manifest["workloads"]]:
        for trace in (False, True):
            document = run_workload(name, seed=1, seconds=0.2, trace=trace,
                                    size="smoke")
            line = wire_metrics(document, manifest)
            if not document["correct"]:
                problems.append(f"{name} trace={int(trace)}: not correct: "
                                f"{document['problems']}")
            if document["attempted"] < 1:
                problems.append(f"{name}: no operation attempted")
            for metric, entry in line.items():
                if not NAME_RE.match(metric) or not entry["unit"]:
                    problems.append(f"{name}: bad metric {metric!r}")
                if not isinstance(entry["value"], float) \
                        or entry["value"] != entry["value"]:
                    problems.append(f"{name}: {metric} is not a number")
            if trace:
                undeclared = set(document["metrics"]) - layer_names
                if undeclared:
                    problems.append(f"{name}: metrics missing from "
                                    f"BENCHMARK.json: {sorted(undeclared)}")
                seen_layers |= {k for k, v in document["metrics"].items() if v}
            else:
                for metric, entry in line.items():
                    if entry["value"] <= 0:
                        problems.append(f"{name}: {metric} is not positive")
            print(f"smoke {name} trace={int(trace)}: "
                  f"{document['attempted']} ops ok")
    never = layer_names - seen_layers \
        - {"cluster.ledger.retries", "bench.trace_overhead_frac",
           # Only replays of physically trimmed source batches hit the memo.
           "engine.logic.source_memo_hit_ratio"}
    if never:
        problems.append(f"per-layer metrics no workload produced: "
                        f"{sorted(never)}")
    print(f"smoke took {time.perf_counter() - started:.1f} s")
    for problem in problems:
        print(f"PROBLEM: {problem}")
    return 1 if problems else 0


def check_manifest(manifest: dict) -> list[str]:
    problems = []
    if [w["name"] for w in manifest["workloads"]] != list(WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from perf/run.py's")
    names = [e["name"] for k in ("workloads", "end_to_end", "per_layer")
             for e in manifest[k]]
    if len(set(names)) != len(names):
        problems.append("BENCHMARK.json uses a name twice")
    problems += [f"bad name {n!r}" for n in names if not NAME_RE.match(n)]
    if {e["name"] for e in manifest["end_to_end"]} != {
            "setup_s", "work_per_s", "op_ms_p50", "cpu_us_per_work",
            "peak_rss_mb"}:
        problems.append("BENCHMARK.json end_to_end metrics changed")
    return problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="timed seconds per pass (default: run_seconds "
                             "of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="with --workload: 0 = end-to-end metrics, "
                             "1 = traced pass, per-layer metrics")
    parser.add_argument("--trace-out", metavar="FILE",
                        help="write the traced pass's spans here")
    parser.add_argument("--out", metavar="FILE",
                        help="write the result document here")
    parser.add_argument("--repeat", type=int, default=1,
                        help="without --workload: untraced runs per workload")
    parser.add_argument("--write-golden", action="store_true",
                        help="with --workload on seed 0: record the golden")
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    args = parser.parse_args(argv)

    if args.compare:
        return compare_main(*args.compare)
    if not (SRC / "repro").is_dir():
        print(f"error: {SRC}/repro not found; run from a checkout of the "
              f"repository", file=sys.stderr)
        return 2
    if args.smoke:
        return smoke_main()
    if args.workload:
        if args.seconds is None:
            args.seconds = load_manifest()["run_seconds"]
        # Imports are part of set-up: process start to workload module loaded.
        importlib.import_module(WORKLOADS[args.workload][0])
        return driver_main(args, time.perf_counter() - _PROCESS_START)
    return full_main(args)


if __name__ == "__main__":
    sys.exit(main())
