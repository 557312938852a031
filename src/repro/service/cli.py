"""CLI subcommands for the sweep service: ``serve`` / ``submit`` / ``status``.

Routed from ``python -m repro.experiments`` (and the ``repro-experiments``
console script)::

    repro-experiments serve --port 7070 --backend processes \
        --cache-dir ~/.cache/repro-grid --journal ~/.cache/repro-journal.jsonl
    repro-experiments submit 127.0.0.1:7070 my_grid.json --progress
    repro-experiments status 127.0.0.1:7070

``serve`` runs until SIGTERM/SIGINT, then drains gracefully: in-flight
cells finish, queued cells persist to the journal (resumed on the next
``serve`` with the same ``--journal``), and connected clients are told the
server is ``draining``.  ``submit`` speaks the same grid JSON documents as
the ``grid`` subcommand, so a sweep moves from one-shot to service with no
file changes.
"""

from __future__ import annotations

import argparse
import json
import math
import signal
import time
from pathlib import Path
from typing import Any, Mapping, Sequence

from repro.errors import ServiceError
from repro.experiments.cli import (
    counts_line,
    emit,
    load_grid,
    outcome_row,
    progress_line,
    show,
)
from repro.scenarios import EXECUTION_BACKENDS
from repro.service.client import SweepClient
from repro.service.server import SweepServer


def serve_main(argv: Sequence[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments serve",
        description="Run the persistent sweep broker: accept grid "
                    "submissions from many clients over TCP, dedup by "
                    "scenario digest, schedule fairly, stream results.",
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=0,
                        help="TCP port (default: 0 = OS-assigned; the bound "
                             "port is printed and written to --port-file)")
    parser.add_argument("--backend", default="serial",
                        choices=sorted(EXECUTION_BACKENDS.names()),
                        help="shared execution backend (default: serial)")
    parser.add_argument("--max-workers", type=int, default=None,
                        help="worker count for the processes backend (the "
                             "local fleet size for --backend cluster)")
    parser.add_argument("--cache-dir", default=None, metavar="DIR",
                        help="shared content-addressed scenario cache; "
                             "strongly recommended — it powers cross-client "
                             "and cross-restart dedup")
    parser.add_argument("--journal", default=None, metavar="PATH",
                        help="resumable submission journal; queued cells "
                             "survive a drain and re-run on the next serve")
    parser.add_argument("--timeout", type=float, default=None, metavar="S",
                        help="per-scenario wall-clock budget in seconds "
                             "(the lease deadline on a worker fleet)")
    parser.add_argument("--retries", type=int, default=1,
                        help="retries per cell after a worker death or "
                             "an expired timeout (parallel backends; "
                             "default 1)")
    parser.add_argument("--batch-cells", type=int, default=8,
                        help="cells per dispatcher batch (smaller = fairer "
                             "interleaving and faster drain; default 8)")
    parser.add_argument("--port-file", default=None, metavar="PATH",
                        help="write 'host port' here once bound (for "
                             "scripts that need the OS-assigned port)")
    # Lazy, like the route in repro.experiments.cli: only a serve that
    # can pick --backend cluster should load the cluster stack.
    from repro.cluster.cli import add_cluster_arguments, backend_from_args

    add_cluster_arguments(parser)
    args = parser.parse_args(argv)

    server = SweepServer(args.host, args.port,
                         backend=backend_from_args(args),
                         cache=args.cache_dir, journal=args.journal,
                         timeout=args.timeout, retries=args.retries,
                         batch_cells=args.batch_cells)
    server.start()
    host, port = server.address
    if args.port_file:
        Path(args.port_file).write_text(f"{host} {port}\n")
    banner = (f"sweep server listening on {host}:{port} "
              f"(backend={args.backend}, cache={args.cache_dir or 'none'}, "
              f"journal={args.journal or 'none'})")
    if server.resumed:
        banner += f"\nresumed {server.resumed} journaled cells"
    emit(banner)

    def _drain(signum, frame):  # noqa: ANN001 - signal handler
        emit(f"signal {signum}: draining (in-flight cells finish, queued "
             f"cells persist to the journal)", err=True)
        server.drain()

    signal.signal(signal.SIGTERM, _drain)
    signal.signal(signal.SIGINT, _drain)
    server.serve_forever()
    status = server.broker.status()
    emit(counts_line("drained", {**status["totals"],
                                 "journaled": status["queued"]}))
    return 0


def submit_main(argv: Sequence[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments submit",
        description="Submit a grid JSON document (same format as the "
                    "'grid' subcommand) to a running sweep server and "
                    "stream the results back.",
    )
    parser.add_argument("address", help="server address, host:port")
    parser.add_argument("file", help='path to {"base": ..., "axes": ...} or '
                                     '{"scenarios": [...]} JSON')
    parser.add_argument("--client", default=None, metavar="NAME",
                        help="client id for the server's accounting "
                             "(default: derived from the grid file name)")
    parser.add_argument("--job", default=None, metavar="NAME",
                        help="job label echoed back in events")
    parser.add_argument("--no-results", action="store_true",
                        help="stream progress only; read outcomes from the "
                             "server's shared cache/sink instead")
    parser.add_argument("--progress", action="store_true",
                        help="print one progress line per completed cell "
                             "to stderr")
    parser.add_argument("--json", action="store_true", dest="as_json",
                        help="print every outcome as a JSON array")
    args = parser.parse_args(argv)

    scenarios = load_grid(args.file)
    client_id = args.client or Path(args.file).stem
    with SweepClient(args.address, client_id=client_id) as client:
        try:
            job = client.submit(scenarios, job=args.job,
                                results=not args.no_results)
            outcome = client.wait(
                job, progress=(lambda event: emit(progress_line(event),
                                                  err=True))
                if args.progress else None)
        except ServiceError as exc:
            emit(f"error: {exc}", err=True)
            return 3

        if args.as_json:
            emit(json.dumps([outcome_row(cell) for cell in outcome.outcomes],
                            indent=2))
        emit(counts_line(f"[{job}]", outcome.tally), err=True)
        return 1 if outcome.tally.get("errors") else 0


def render_status(status: Mapping[str, Any]) -> str:
    """``status``'s text: the queue line, the totals, one line per client."""
    head = (f"queued {status['queued']}, inflight {status['inflight']}, "
            f"active jobs {status['active_jobs']}"
            + (", draining" if status.get("draining") else ""))
    return "\n".join([head, counts_line("totals", status["totals"])] + [
        counts_line(f"  {name}", counters)
        for name, counters in status.get("clients", {}).items()])


def status_main(argv: Sequence[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments status",
        description="Print a running sweep server's counters and queues.",
    )
    parser.add_argument("address", help="server address, host:port")
    parser.add_argument("--json", action="store_true", dest="as_json",
                        help="print the raw status document")
    parser.add_argument("--watch", type=float, default=None, metavar="SECS",
                        help="re-poll and reprint every SECS seconds until "
                             "interrupted (Ctrl-C exits cleanly)")
    args = parser.parse_args(argv)
    if args.watch is not None and not 0 < args.watch < math.inf:
        raise ServiceError(f"--watch needs a positive, finite interval, got "
                           f"{args.watch:g}")

    with SweepClient(args.address, client_id="status") as client:
        try:
            while True:
                status = client.status()
                status.pop("type", None)
                show(status, args.as_json, render_status)
                if args.watch is None:
                    break
                time.sleep(args.watch)
                if not args.as_json:
                    emit("")  # blank line between polls
        except KeyboardInterrupt:
            pass  # a watch is ended by Ctrl-C; that is not an error
    return 0
