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

Every subcommand is one entry of :data:`SUBCOMMANDS`, imported only when
it runs: a figure run never loads the service or cluster stack.
"""

from __future__ import annotations

import argparse
import functools
import importlib
import json
import sys
import time
from pathlib import Path
from typing import Any, Callable, Sequence

from repro.errors import ReproError, ScenarioError
from repro.experiments.accuracy import fig12, fig13
from repro.experiments.checkpoint_cost import fig9
from repro.experiments.claims import claims
from repro.experiments.random_topologies import fig14
from repro.experiments.recovery import (
    FigureResult,
    fig7,
    fig8,
    fig10,
    scheme_sweep,
)
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

#: name -> (figure function, keyword arguments of each paper-scale table,
#: keyword arguments of each ``--fast`` table).
FIGURES: dict[str, tuple[Callable[..., FigureResult], list[dict], list[dict]]] = {
    "fig7": (fig7, [{}], [{"windows": (10.0,), **_FAST_FIG6,
                           "positions": (TaskId("O2", 0),)}]),
    "fig8": (fig8, [{}], [{"windows": (10.0,), **_FAST_FIG6}]),
    "fig9": (fig9, [{}], [{"intervals": (1.0, 15.0), **_FAST_FIG6,
                           "duration": 45.0}]),
    "fig10": (fig10, [{}], [{"checkpoint_intervals": (15.0,), **_FAST_FIG6}]),
    "fig12": (fig12, [{"query": "q1"}, {"query": "q2"}],
              [{"query": "q1", "fractions": (0.3, 0.6),
                "workload_params": _FAST_Q1},
               {"query": "q2", "fractions": (0.3, 0.6),
                "workload_params": _FAST_Q2}]),
    "fig13": (fig13, [{"query": "q1"}, {"query": "q2"}],
              [{"query": "q1", "fractions": (0.3, 0.6),
                "workload_params": _FAST_Q1}]),
    "fig14": (fig14,
              [{"variant_key": key} for key in "abcd"],
              [{"variant_key": "a", "fractions": (0.2, 0.5, 0.8),
                "n_topologies": 10}]),
    "claims": (claims, [{}], [{"n_topologies": 10}]),
    "schemes": (scheme_sweep, [{}],
                [{"windows": (10.0,), **_FAST_FIG6,
                  "failure_models": ("correlated",)}]),
}


def run_figure(name: str, fast: bool) -> list[FigureResult]:
    """Every table of figure ``name``, at paper scale or ``--fast``."""
    function, full, quick = FIGURES[name]
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
    models: set[str] = set()
    for scenario in scenarios:
        if scenario.recovery:
            schemes.add(scenario.recovery)
        models.update(spec.model for spec in scenario.failures)
    unknown = sorted(s for s in schemes if s not in RECOVERY_SCHEMES)
    if unknown:
        known = ", ".join(RECOVERY_SCHEMES.names())
        raise ScenarioError(
            f"unknown recovery scheme(s) {', '.join(map(repr, unknown))}; "
            f"registered schemes: {known}"
        )
    unknown = sorted(m for m in models if m not in FAILURE_MODELS)
    if unknown:
        known = ", ".join(FAILURE_MODELS.names())
        raise ScenarioError(
            f"unknown failure model(s) {', '.join(map(repr, unknown))}; "
            f"registered models: {known}"
        )


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
    if args.as_json:
        print(json.dumps(result.to_dict(), indent=2))
    else:
        print(result.render())
    return 0


def _grid_rows(results: Sequence[ScenarioResult]) -> str:
    headers = ["scenario", "planner", "|plan|", "worst-case",
               "under failure", "recovered", "max latency", "tentative"]
    rows: list[list[object]] = []
    for r in results:
        n_done = sum(1 for rec in r.recoveries if rec.recovered_time is not None)
        rows.append([
            r.scenario.name or r.scenario.workload,
            r.plan.planner or r.scenario.planner,
            r.plan.usage,
            r.worst_case_fidelity,
            r.failure_fidelity,
            f"{n_done}/{len(r.recoveries)}",
            r.max_recovery_latency,
            r.tentative_sink_batches,
        ])
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
    progress = None
    if args.progress:
        def progress(event):  # noqa: ANN001 - ProgressEvent
            print(event.render(), file=sys.stderr)

    session = GridSession(backend, sink, cache, timeout=args.timeout,
                          retries=args.retries, progress=progress,
                          resume=args.resume, strict=False)
    try:
        report = session.run(scenarios)
    finally:
        # The cluster backend owns subprocesses and a listening port;
        # release them as soon as the grid is done.
        close = getattr(backend, "close", None)
        if callable(close):
            close()

    results = report.results()
    errors = report.cell_errors()
    if args.as_json:
        print(json.dumps([outcome_row(o) for o in report.outcomes], indent=2))
    else:
        print(_grid_rows(results))
    summary = (f"[grid] {report.total} cells: {report.executed} executed, "
               f"{report.cache_hits} cache hits, {report.deduped} deduped, "
               f"{report.resumed} resumed, {report.errors} errors, "
               f"{report.retries} retries")
    if report.degraded:
        summary += f", {report.degraded} on fallback"
    if args.output:
        summary += f" -> {args.output}"
    print(summary, file=sys.stderr)
    for error in errors:
        print(f"error: {error.render()}", file=sys.stderr)
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
        print(cache.stats().render())
        return 0
    if args.max_entries is None:
        raise ScenarioError("'cache prune' needs --max-entries N")
    removed = cache.prune(args.max_entries)
    print(f"pruned {removed} entr{'y' if removed == 1 else 'ies'}; "
          f"{len(cache)} remain in {args.dir}")
    return 0


def resolve_subcommand(name: str) -> Callable[[Sequence[str]], int]:
    """Import and return the entry point :data:`SUBCOMMANDS` maps ``name`` to."""
    module, _, function = SUBCOMMANDS[name].partition(":")
    return getattr(importlib.import_module(module), function)


def main(argv: Sequence[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and argv[0] in SUBCOMMANDS:
        try:
            return resolve_subcommand(argv[0])(argv[1:])
        except ReproError as exc:
            print(f"error: {exc}", file=sys.stderr)
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
            print(result.render())
            print()
        elapsed = time.perf_counter() - started
        print(f"[{name} done in {elapsed:.1f}s]\n")
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
