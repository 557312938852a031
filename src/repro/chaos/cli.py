"""``repro-experiments chaos``: run a grid under a seeded fault schedule.

The subcommand is the operational face of :func:`repro.chaos.inject.
run_chaos`: load a grid JSON (same shape as ``grid``), load or build a
:class:`~repro.chaos.schedule.ChaosSchedule`, run the grid on a local
cluster fleet while injecting the schedule, and report what survived.
Exit status is 0 only when every cell completed without error — which
is the whole point: a crash-safe fabric under kills, coordinator
crashes and wire faults should still produce a clean, deterministic
grid.

::

    repro-experiments chaos grid.json --seed 7 \
        --kill 0.5:0 --kill 1.0:1 --crash 1.5 \
        --delay-ms 50 --delay-fraction 0.3 \
        --workers 3 --output chaos.jsonl --fault-log faults.json
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path
from typing import Any, Mapping, Sequence

from repro.chaos.inject import run_chaos
from repro.chaos.schedule import ChaosError, ChaosEvent, ChaosSchedule
from repro.experiments.cli import counts_line, emit, load_grid, show
from repro.scenarios.grid import load_json
from repro.scenarios.sinks import sink_for_path


def _timed_event(action: str, text: str) -> ChaosEvent:
    """Parse ``T`` or ``T:SLOT`` into a :class:`ChaosEvent`."""
    at_text, _, slot_text = text.partition(":")
    try:
        return ChaosEvent(at=float(at_text), action=action,
                          slot=int(slot_text) if slot_text else 0)
    except ValueError:
        raise ChaosError(
            f"bad --{action} value {text!r}; expected T or T:SLOT "
            f"(seconds[:fleet slot])"
        ) from None


def _schedule_from_args(args: argparse.Namespace) -> ChaosSchedule:
    if args.schedule:
        return ChaosSchedule.from_dict(load_json(args.schedule))
    events: list[ChaosEvent] = []
    for action in ("kill", "pause", "resume", "crash"):
        for text in getattr(args, action) or ():
            events.append(_timed_event(action, text))
    return ChaosSchedule(seed=args.seed, events=tuple(events), **{
        knob: getattr(args, knob) for knob in (
            "delay_ms", "delay_fraction", "drop_fraction",
            "duplicate_fraction", "slow_runner_ms", "fail_fraction")})


def chaos_main(argv: Sequence[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments chaos",
        description="Run a scenario grid on a local cluster fleet while "
                    "injecting a seeded, deterministic fault schedule; "
                    "exits 0 only when every cell still completed cleanly.",
    )
    parser.add_argument("file", help='path to {"base": ..., "axes": ...} or '
                                     '{"scenarios": [...]} JSON')
    parser.add_argument("--schedule", default=None, metavar="PATH",
                        help="a ChaosSchedule JSON document; overrides every "
                             "inline fault flag below")
    parser.add_argument("--seed", type=int, default=0,
                        help="fault-decision seed (default 0); identical "
                             "seeds inject identical faults")
    parser.add_argument("--kill", action="append", metavar="T[:SLOT]",
                        help="SIGKILL fleet slot SLOT at T seconds "
                             "(repeatable; default slot 0)")
    parser.add_argument("--pause", action="append", metavar="T[:SLOT]",
                        help="SIGSTOP a slot at T seconds (repeatable)")
    parser.add_argument("--resume", action="append", metavar="T[:SLOT]",
                        help="SIGCONT a paused slot at T seconds "
                             "(repeatable)")
    parser.add_argument("--crash", action="append", metavar="T",
                        help="crash-restart the coordinator on its journal "
                             "at T seconds (repeatable)")
    parser.add_argument("--delay-ms", type=float, default=0.0, metavar="MS",
                        help="delay injected wire messages by MS")
    parser.add_argument("--delay-fraction", type=float, default=0.0,
                        metavar="F",
                        help="fraction of wire messages delayed (default: "
                             "all, when --delay-ms is set)")
    parser.add_argument("--drop-fraction", type=float, default=0.0,
                        metavar="F",
                        help="fraction of cell leases dropped (needs "
                             "--timeout to requeue them)")
    parser.add_argument("--duplicate-fraction", type=float, default=0.0,
                        metavar="F",
                        help="fraction of wire messages delivered twice")
    parser.add_argument("--slow-runner-ms", type=float, default=0.0,
                        metavar="MS",
                        help="make every worker-side cell sleep MS first")
    parser.add_argument("--fail-fraction", type=float, default=0.0,
                        metavar="F",
                        help="deterministically fail this fraction of "
                             "scenarios inside the workers")
    parser.add_argument("--workers", type=int, default=2, metavar="N",
                        help="local fleet size (default 2)")
    parser.add_argument("--journal", default=None, metavar="PATH",
                        help="coordinator WAL path (default: a temporary "
                             "file when --crash is scheduled)")
    parser.add_argument("--timeout", type=float, default=None, metavar="S",
                        help="per-scenario wall-clock budget in seconds "
                             "(the lease deadline on a worker fleet)")
    parser.add_argument("--retries", type=int, default=2,
                        help="retries per cell after a worker death "
                             "(default 2 — chaos runs expect deaths)")
    parser.add_argument("--output", default=None, metavar="PATH",
                        help="stream outcomes into a .jsonl or .sqlite sink")
    parser.add_argument("--fault-log", default=None, metavar="PATH",
                        help="write the injected-fault log as JSON")
    parser.add_argument("--json", action="store_true", dest="as_json",
                        help="print the report + fault tallies as JSON")
    args = parser.parse_args(argv)

    scenarios = load_grid(args.file)
    schedule = _schedule_from_args(args)
    sink = sink_for_path(args.output) if args.output else None

    report, log = run_chaos(
        scenarios, schedule,
        local_workers=args.workers,
        sink=sink,
        journal=args.journal,
        timeout=args.timeout,
        retries=args.retries,
        collect=not args.output,
    )
    if args.fault_log:
        Path(args.fault_log).write_text(
            json.dumps(log.to_dict(), indent=2) + "\n")
    show({"seed": schedule.seed, "injected": log.counts(), **report.counts()},
         args.as_json, _render)
    for error in log.errors:
        emit(f"[chaos] harness: {error}", err=True)
    return 1 if report.errors else 0


def _render(summary: Mapping[str, Any]) -> str:
    """The text report: what was injected, then the grid's counts."""
    injected = ", ".join(f"{count} {action}" for action, count
                         in sorted(summary["injected"].items())) or "nothing"
    return (f"[chaos] seed {summary['seed']}: injected {injected}\n"
            + counts_line("[chaos]", summary))
