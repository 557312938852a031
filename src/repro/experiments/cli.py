"""Command-line entry point: paper figures plus declarative scenarios.

Usage::

    python -m repro.experiments fig7 fig9 --fast
    python -m repro.experiments schemes --fast
    python -m repro.experiments all
    python -m repro.experiments scenario my_scenario.json --recovery active-standby
    python -m repro.experiments scenario my_scenario.json --profile
    python -m repro.experiments grid my_grid.json --backend processes \
        --recovery ppa checkpoint-replay \
        --output results.jsonl --cache-dir ~/.cache/repro-grid --resume
    python -m repro.experiments cache stats ~/.cache/repro-grid
    python -m repro.experiments cache prune ~/.cache/repro-grid --max-entries 5000
    python -m repro.experiments serve --port 7070 --backend processes \
        --cache-dir ~/.cache/repro-grid --journal ~/.cache/repro-journal.jsonl
    python -m repro.experiments submit 127.0.0.1:7070 my_grid.json --progress
    python -m repro.experiments status 127.0.0.1:7070 --watch 5
    python -m repro.experiments grid my_grid.json --backend cluster \
        --cluster-local 4 --output results.jsonl
    python -m repro.experiments worker --connect coordinator-host:7071

(Installed as the ``repro-experiments`` console script as well.)

``--fast`` shrinks grids, topology counts and simulated durations so the full
suite completes in a couple of minutes; omit it for the paper-scale runs.

``scenario`` runs one JSON scenario file (see
:class:`repro.scenarios.Scenario`); ``grid`` expands a JSON document of the
form ``{"base": {...scenario...}, "axes": {"field": [v1, v2], ...}}`` — or an
explicit ``{"scenarios": [...]}`` list — and executes every combination
through the pluggable grid-execution layer: ``--backend`` picks the
execution strategy (serial / processes / cluster), ``--output`` streams
outcomes into a JSONL or SQLite sink, ``--cache-dir`` enables the
content-addressed scenario cache and ``--resume`` skips cells the output
file already holds, so interrupted sweeps pick up where they stopped.
``--recovery`` selects the fault-tolerance scheme (several names turn it
into a grid axis), and ``cache stats|prune`` inspects or LRU-trims a cache
directory.

``serve`` boots the persistent sweep service (see :mod:`repro.service`):
many clients ``submit`` grids concurrently over TCP, identical cells are
deduplicated by content digest across clients, and ``status`` reports the
per-client and aggregate counters (``--watch SECS`` re-polls until
interrupted).

``--backend cluster`` (on both ``grid`` and ``serve``) fans cells out to
a fleet of worker agents over TCP (see :mod:`repro.cluster`): an
auto-spawned local fleet by default (``--cluster-local N``) and/or
externally launched ``worker`` processes — ``worker --connect HOST:PORT``
is the agent that runs on every extra host, against a coordinator bound
with ``--cluster-host 0.0.0.0``.

``chaos`` runs a grid on a local cluster fleet while injecting a seeded
fault schedule — worker kills/pauses, coordinator crash-restarts on the
write-ahead journal, wire delays/drops/duplicates — and exits 0 only
when every cell still completed cleanly (see :mod:`repro.chaos`).

Every subcommand is one entry of :data:`SUBCOMMANDS` and every figure one
entry of :data:`FIGURES`, each imported only when it runs: a figure run
never loads the service or cluster stack, and ``worker``, ``serve``,
``submit`` or ``status`` never load a figure module.  Each
command that reports counts builds one summary dict and prints it either
as JSON or through :func:`counts_line` (one :data:`LABELS` table for every
command), and every ``--progress`` line is one :func:`progress_line`.
"""

from __future__ import annotations

import argparse
import functools
import importlib
import json
import sys
import time
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable, Mapping, Sequence

from repro.errors import ReproError, ScenarioError
from repro.experiments.tables import format_table
from repro.scenarios import (
    EXECUTION_BACKENDS,
    FAILURE_MODELS,
    RECOVERY_SCHEMES,
    GridSession,
    Scenario,
    ScenarioCache,
    ScenarioResult,
    run_scenario,
    sink_for_path,
)
from repro.scenarios.grid import load_json, scenarios_from_document
from repro.topology.operators import TaskId

if TYPE_CHECKING:
    from repro.experiments.recovery import FigureResult

#: subcommand -> ``"module:function"`` of its ``fn(argv) -> exit code``
#: entry point, imported on first use.
SUBCOMMANDS: dict[str, str] = {
    "scenario": "repro.experiments.cli:scenario_main",
    "grid": "repro.experiments.cli:grid_main",
    "cache": "repro.experiments.cli:cache_main",
    "serve": "repro.service.cli:serve_main",
    "submit": "repro.service.cli:submit_main",
    "status": "repro.service.cli:status_main",
    "worker": "repro.cluster.cli:worker_main",
    "chaos": "repro.chaos.cli:chaos_main",
}


#: The ``--fast`` sizes of the two real queries (shorter windows, fewer tuples).
_FAST_Q1 = {"window_seconds": 20.0, "pages": 400, "tuple_scale": 8.0}
_FAST_Q2 = {"window_seconds": 20.0, "tuple_scale": 80.0}
#: ... and of every figure on the Fig. 6 workload (one rate, coarser tuples).
_FAST_FIG6 = {"rates": (1000.0,), "tuple_scale": 16.0}

#: name -> (``"module:function"`` of the figure function, imported on first
#: use, keyword arguments of each paper-scale table, keyword arguments of
#: each ``--fast`` table).
FIGURES: dict[str, tuple[str, list[dict], list[dict]]] = {
    "fig7": ("repro.experiments.recovery:fig7", [{}],
             [{"windows": (10.0,), **_FAST_FIG6,
               "positions": (TaskId("O2", 0),)}]),
    "fig8": ("repro.experiments.recovery:fig8", [{}],
             [{"windows": (10.0,), **_FAST_FIG6}]),
    "fig9": ("repro.experiments.checkpoint_cost:fig9", [{}],
             [{"intervals": (1.0, 15.0), **_FAST_FIG6, "duration": 45.0}]),
    "fig10": ("repro.experiments.recovery:fig10", [{}],
              [{"checkpoint_intervals": (15.0,), **_FAST_FIG6}]),
    "fig12": ("repro.experiments.accuracy:fig12",
              [{"query": "q1"}, {"query": "q2"}],
              [{"query": "q1", "fractions": (0.3, 0.6),
                "workload_params": _FAST_Q1},
               {"query": "q2", "fractions": (0.3, 0.6),
                "workload_params": _FAST_Q2}]),
    "fig13": ("repro.experiments.accuracy:fig13",
              [{"query": "q1"}, {"query": "q2"}],
              [{"query": "q1", "fractions": (0.3, 0.6),
                "workload_params": _FAST_Q1}]),
    "fig14": ("repro.experiments.random_topologies:fig14",
              [{"variant_key": key} for key in "abcd"],
              [{"variant_key": "a", "fractions": (0.2, 0.5, 0.8),
                "n_topologies": 10}]),
    "claims": ("repro.experiments.claims:claims", [{}],
               [{"n_topologies": 10}]),
    "schemes": ("repro.experiments.recovery:scheme_sweep", [{}],
                [{"windows": (10.0,), **_FAST_FIG6,
                  "failure_models": ("correlated",)}]),
}


def resolve(target: str) -> Callable[..., Any]:
    """Import and return the function a ``"module:function"`` string names."""
    module, _, function = target.partition(":")
    return getattr(importlib.import_module(module), function)


def run_figure(name: str, fast: bool) -> list[FigureResult]:
    """Every table of figure ``name``, at paper scale or ``--fast``."""
    target, full, quick = FIGURES[name]
    function = resolve(target)
    return [function(**kwargs) for kwargs in (quick if fast else full)]


RUNNERS: dict[str, Callable[[bool], list[FigureResult]]] = {
    name: functools.partial(run_figure, name) for name in FIGURES
}


def _check_names(scenarios: Sequence[Scenario],
                 recovery: Sequence[str] = ()) -> None:
    """Fail fast on unregistered scheme/failure-model names, listing choices.

    Without this, a typo in ``--recovery`` or a scenario's failure model
    only surfaces mid-run — per cell in a grid — instead of before any
    simulation starts.
    """
    schemes = set(recovery)
    schemes.update(s.recovery for s in scenarios if s.recovery)
    models = {spec.model for s in scenarios for spec in s.failures}
    for names, registry, what in ((schemes, RECOVERY_SCHEMES, "recovery scheme"),
                                  (models, FAILURE_MODELS, "failure model")):
        unknown = sorted(name for name in names if name not in registry)
        if unknown:
            raise ScenarioError(
                f"unknown {what}(s) {', '.join(map(repr, unknown))}; "
                f"registered {what.split()[-1]}s: "
                f"{', '.join(registry.names())}")


def load_grid(path: str, recovery: Sequence[str] = ()) -> list[Scenario]:
    """The scenarios of the grid document at ``path``, names checked.

    Shared by ``grid``, ``submit`` and ``chaos``, so all three reject an
    unregistered scheme or failure model before any work starts.
    """
    scenarios = scenarios_from_document(load_json(path))
    _check_names(scenarios, recovery)
    return scenarios


def outcome_row(outcome: object) -> dict | None:
    """One cell's ``--json`` row: its result, ``{"error": ...}`` or ``None``.

    ``None`` stands for a cell whose outcome was not streamed back
    (``submit --no-results``).
    """
    if outcome is None:
        return None
    if isinstance(outcome, ScenarioResult):
        return outcome.to_dict()
    return {"error": outcome.to_dict()}


#: Summary count key -> its label in the text rendering, in rendering
#: order.  A grid report and a job tally count ``errors`` / ``retries``;
#: the sweep service's counters count ``failed`` / ``retried``.
LABELS = {"total": "cells", **{key: key.replace("_", " ") for key in (
    "submitted", "executed", "cache_hits", "deduped", "failed", "retried",
    "resumed", "errors", "retries", "degraded", "journaled")}}


def counts_line(head: str, counts: Mapping[str, Any]) -> str:
    """``head`` and the labelled counts of ``counts``, in :data:`LABELS` order.

    Keys without a label (a seed, a job's ``done``) are not rendered; a
    ``total`` joins the head.

    >>> counts_line("[grid]", {"total": 4, "executed": 2, "cache_hits": 1,
    ...                        "deduped": 0, "resumed": 1, "errors": 0,
    ...                        "retries": 0})
    '[grid] 4 cells: 2 executed, 1 cache hits, 0 deduped, 1 resumed, 0 errors, 0 retries'
    >>> counts_line("totals", {"submitted": 10, "executed": 8, "failed": 0})
    'totals: 10 submitted, 8 executed, 0 failed'
    """
    parts = [f"{counts[key]} {label}" for key, label in LABELS.items()
             if key in counts]
    if "total" in counts:
        head = f"{head} {parts.pop(0)}"
    return f"{head}: {', '.join(parts)}"


def progress_line(event: Mapping[str, Any]) -> str:
    """One completed cell of a ``--progress`` stream.

    ``event`` is a progress dict: a grid's :meth:`ProgressEvent.to_dict
    <repro.scenarios.session.ProgressEvent.to_dict>` or the sweep
    service's ``progress`` message, which share their keys.

    >>> progress_line({"done": 2, "total": 4, "label": "g/seed=1",
    ...                "ok": False, "kind": "timeout", "source": "executed",
    ...                "retries": 1})
    '[2/4] g/seed=1: FAILED(timeout) (executed, 1 retries)'
    """
    state = "ok" if event["ok"] else f"FAILED({event['kind']})"
    note = f", {event['retries']} retries" if event.get("retries") else ""
    return (f"[{event['done']}/{event['total']}] {event['label']}: {state} "
            f"({event['source']}{note})")


def emit(text: str, *, err: bool = False) -> None:
    """Print ``text`` to stdout, or to stderr with ``err``, and flush it."""
    print(text, file=sys.stderr if err else sys.stdout, flush=True)


def show(summary: Mapping[str, Any], as_json: bool,
         render: Callable[[Mapping[str, Any]], str]) -> None:
    """Print a command's summary dict as JSON, or as ``render`` draws it."""
    emit(json.dumps(summary, indent=2, sort_keys=True) if as_json
         else render(summary))


def _force_recovery(scenario: Scenario, scheme: str) -> Scenario:
    """``scenario`` with its fault-tolerance scheme overridden to ``scheme``.

    Drops any ``engine.recovery_scheme`` spelling so the CLI flag really is
    an override rather than a conflict with what the file selected.  When
    the override picks a *different* scheme, the file's ``recovery_params``
    belonged to the replaced one and are dropped too — so sweeping
    ``--recovery`` over a base scenario tuned for one scheme still runs
    every other scheme with its defaults.
    """
    engine = {k: v for k, v in scenario.engine.items()
              if k != "recovery_scheme"}
    overrides: dict[str, Any] = {"recovery": scheme, "engine": engine}
    if scheme != scenario.recovery:
        overrides["recovery_params"] = {}
    return scenario.with_overrides(**overrides)


def scenario_main(argv: Sequence[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments scenario",
        description="Run one declarative scenario from a JSON file.",
    )
    parser.add_argument("file", help="path to a Scenario JSON document")
    parser.add_argument("--recovery", default=None, metavar="SCHEME",
                        help="override the scenario's fault-tolerance scheme "
                             f"(registered: {', '.join(RECOVERY_SCHEMES.names())})")
    parser.add_argument("--profile", action="store_true",
                        help="collect and print engine throughput "
                             "(events/s, sim-s per wall-s, peak history)")
    parser.add_argument("--json", action="store_true", dest="as_json",
                        help="print the full ScenarioResult as JSON")
    args = parser.parse_args(argv)

    scenario = Scenario.from_dict(load_json(args.file))
    _check_names((scenario,), (args.recovery,) if args.recovery else ())
    if args.recovery:
        scenario = _force_recovery(scenario, args.recovery)
    result = run_scenario(scenario, profile=args.profile)
    emit(json.dumps(result.to_dict(), indent=2) if args.as_json
         else result.render())
    return 0


def _grid_rows(results: Sequence[ScenarioResult]) -> str:
    headers = ["scenario", "planner", "|plan|", "worst-case",
               "under failure", "recovered", "max latency", "tentative"]
    rows = [[r.scenario.name or r.scenario.workload,
             r.plan.planner or r.scenario.planner, r.plan.usage,
             r.worst_case_fidelity, r.failure_fidelity,
             f"{sum(rec.recovered_time is not None for rec in r.recoveries)}"
             f"/{len(r.recoveries)}",
             r.max_recovery_latency, r.tentative_sink_batches]
            for r in results]
    return format_table(headers, rows, title=f"== grid: {len(results)} scenarios ==")


def grid_main(argv: Sequence[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments grid",
        description="Expand and run a scenario grid from a JSON file "
                    "through a pluggable execution backend, result sink "
                    "and scenario cache.",
    )
    parser.add_argument("file", help='path to {"base": ..., "axes": ...} or '
                                     '{"scenarios": [...]} JSON')
    parser.add_argument("--backend", default="serial",
                        choices=sorted(EXECUTION_BACKENDS.names()),
                        help="execution strategy (default: serial)")
    parser.add_argument("--recovery", nargs="+", default=None, metavar="SCHEME",
                        help="fault-tolerance scheme override; several names "
                             "add a scheme axis to the grid (registered: "
                             f"{', '.join(RECOVERY_SCHEMES.names())})")
    parser.add_argument("--max-workers", type=int, default=None,
                        help="pool width for the processes backend (the "
                             "local fleet size for --backend cluster)")
    parser.add_argument("--output", default=None, metavar="PATH",
                        help="stream outcomes into a .jsonl or .sqlite file "
                             "instead of keeping them in memory")
    parser.add_argument("--resume", action="store_true",
                        help="skip cells already present in --output")
    parser.add_argument("--cache-dir", default=None, metavar="DIR",
                        help="content-addressed scenario cache directory; "
                             "already-simulated cells are loaded, not re-run")
    parser.add_argument("--timeout", type=float, default=None, metavar="S",
                        help="per-scenario wall-clock budget in seconds")
    parser.add_argument("--retries", type=int, default=1,
                        help="retries per cell after a worker death "
                             "(processes backend; default 1)")
    parser.add_argument("--progress", action="store_true",
                        help="print one progress line per completed cell "
                             "to stderr")
    parser.add_argument("--json", action="store_true", dest="as_json",
                        help="print every outcome as a JSON array")
    # Imported lazily (like serve/submit/status): plain grid runs should
    # not pay for — or be able to break on — the cluster stack.
    from repro.cluster.cli import add_cluster_arguments, backend_from_args

    add_cluster_arguments(parser)
    args = parser.parse_args(argv)

    scenarios = load_grid(args.file, args.recovery or ())
    if args.recovery:
        schemes = list(dict.fromkeys(args.recovery))
        if len(schemes) == 1:
            scenarios = [_force_recovery(s, schemes[0]) for s in scenarios]
        else:
            # Several schemes: a cross-product axis over the expanded grid.
            scenarios = [
                _force_recovery(s, scheme).with_overrides(
                    name=f"{s.name or s.workload}/recovery={scheme}")
                for s in scenarios for scheme in schemes
            ]

    backend = backend_from_args(args)
    if args.resume and not args.output:
        raise ScenarioError("--resume needs --output (a file to resume from)")
    sink = sink_for_path(args.output) if args.output else None
    cache = ScenarioCache(args.cache_dir) if args.cache_dir else None
    session = GridSession(
        backend, sink, cache, timeout=args.timeout, retries=args.retries,
        progress=(lambda event: emit(progress_line(event.to_dict()), err=True))
        if args.progress else None,
        resume=args.resume, strict=False)
    try:
        report = session.run(scenarios)
    finally:
        # The cluster backend owns subprocesses and a listening port;
        # release them as soon as the grid is done.
        close = getattr(backend, "close", None)
        if callable(close):
            close()

    emit(json.dumps([outcome_row(o) for o in report.outcomes], indent=2)
         if args.as_json else _grid_rows(report.results()))
    summary = counts_line("[grid]", report.counts())
    if args.output:
        summary += f" -> {args.output}"
    errors = [f"error: {error.render()}" for error in report.cell_errors()]
    emit("\n".join([summary, *errors]), err=True)
    return 1 if errors else 0


def cache_main(argv: Sequence[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments cache",
        description="Inspect or prune a content-addressed scenario cache "
                    "directory (the --cache-dir of grid runs).",
    )
    parser.add_argument("action", choices=["stats", "prune"],
                        help="stats: entry count/disk usage; prune: evict "
                             "least-recently-used entries beyond --max-entries")
    parser.add_argument("dir", help="cache directory")
    parser.add_argument("--max-entries", type=int, default=None, metavar="N",
                        help="entries to keep when pruning (required for "
                             "'prune')")
    args = parser.parse_args(argv)

    if not Path(args.dir).is_dir():
        raise ScenarioError(f"{args.dir!r} is not a directory")
    cache = ScenarioCache(args.dir)
    if args.action == "stats":
        emit(cache.stats().render())
        return 0
    if args.max_entries is None:
        raise ScenarioError("'cache prune' needs --max-entries N")
    removed = cache.prune(args.max_entries)
    emit(f"pruned {removed} entr{'y' if removed == 1 else 'ies'}; "
         f"{len(cache)} remain in {args.dir}")
    return 0


def resolve_subcommand(name: str) -> Callable[[Sequence[str]], int]:
    """Import and return the entry point :data:`SUBCOMMANDS` maps ``name`` to."""
    return resolve(SUBCOMMANDS[name])


def main(argv: Sequence[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and argv[0] in SUBCOMMANDS:
        try:
            return resolve_subcommand(argv[0])(argv[1:])
        except ReproError as exc:
            emit(f"error: {exc}", err=True)
            return 2

    subcommands = ", ".join(SUBCOMMANDS)
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        usage=f"%(prog)s figure [figure ...] [--fast]\n"
              f"       %(prog)s {{{','.join(SUBCOMMANDS)}}} ...",
        description="Regenerate the figures of the PPA paper (ICDE 2016), "
                    f"or run one of the subcommands {subcommands} "
                    "(each takes --help).",
    )
    parser.add_argument("figures", nargs="+",
                        choices=sorted(RUNNERS) + ["all"],
                        metavar="figure",
                        help="figures to regenerate (%(choices)s); a first "
                             f"argument among {subcommands} runs that "
                             "subcommand instead",
    )
    parser.add_argument("--fast", action="store_true",
                        help="reduced grids/durations for a quick pass")
    args = parser.parse_args(argv)

    names = sorted(RUNNERS) if "all" in args.figures else args.figures
    for name in names:
        started = time.perf_counter()
        for result in RUNNERS[name](args.fast):
            emit(result.render() + "\n")
        elapsed = time.perf_counter() - started
        emit(f"[{name} done in {elapsed:.1f}s]\n")
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
