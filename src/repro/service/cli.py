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
import signal
import sys
import time
from pathlib import Path
from typing import Sequence

from repro.errors import ServiceError
from repro.experiments.cli import load_grid, outcome_row
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
                        help="pool width for the processes backend (the "
                             "local fleet size for --backend cluster)")
    parser.add_argument("--cache-dir", default=None, metavar="DIR",
                        help="shared content-addressed scenario cache; "
                             "strongly recommended — it powers cross-client "
                             "and cross-restart dedup")
    parser.add_argument("--journal", default=None, metavar="PATH",
                        help="resumable submission journal; queued cells "
                             "survive a drain and re-run on the next serve")
    parser.add_argument("--timeout", type=float, default=None, metavar="S",
                        help="per-scenario wall-clock budget in seconds")
    parser.add_argument("--retries", type=int, default=1,
                        help="retries per cell after a worker death "
                             "(processes backend; default 1)")
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
    print(f"sweep server listening on {host}:{port} "
          f"(backend={args.backend}, cache={args.cache_dir or 'none'}, "
          f"journal={args.journal or 'none'})", flush=True)
    if server.resumed:
        print(f"resumed {server.resumed} journaled cells", flush=True)

    def _drain(signum, frame):  # noqa: ANN001 - signal handler
        print(f"signal {signum}: draining (in-flight cells finish, queued "
              f"cells persist to the journal)", file=sys.stderr, flush=True)
        server.drain()

    signal.signal(signal.SIGTERM, _drain)
    signal.signal(signal.SIGINT, _drain)
    server.serve_forever()
    status = server.broker.status()
    totals = status["totals"]
    print(f"drained: {totals['executed']} executed, "
          f"{totals['cache_hits']} cache hits, {totals['deduped']} deduped, "
          f"{totals['retried']} retries, {status['queued']} journaled",
          flush=True)
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
        progress = None
        if args.progress:
            def progress(event):  # noqa: ANN001 - progress message dict
                state = "ok" if event.get("ok") else "FAILED"
                note = (f", {event['retries']} retries"
                        if event.get("retries") else "")
                print(f"[{event['done']}/{event['total']}] "
                      f"{event.get('label')}: {state} "
                      f"({event.get('source')}{note})", file=sys.stderr)

        try:
            job = client.submit(scenarios, job=args.job,
                                results=not args.no_results)
            outcome = client.wait(job, progress=progress)
        except ServiceError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 3

        if args.as_json:
            print(json.dumps([outcome_row(cell) for cell in outcome.outcomes],
                             indent=2))
        tally = outcome.tally
        print(f"[{job}] {tally.get('total')} cells: "
              f"{tally.get('executed')} executed, "
              f"{tally.get('cache_hits')} cache hits, "
              f"{tally.get('deduped')} deduped, "
              f"{tally.get('errors')} errors, "
              f"{tally.get('retries')} retries", file=sys.stderr)
        return 1 if tally.get("errors") else 0


def _print_status(status: dict, *, as_json: bool) -> None:
    if as_json:
        print(json.dumps({k: v for k, v in status.items() if k != "type"},
                         indent=2, sort_keys=True))
        return
    totals = status["totals"]
    print(f"queued {status['queued']}, inflight {status['inflight']}, "
          f"active jobs {status['active_jobs']}"
          + (", draining" if status.get("draining") else ""))
    print(f"totals: {totals['submitted']} submitted, "
          f"{totals['executed']} executed, {totals['cache_hits']} cache hits, "
          f"{totals['deduped']} deduped, {totals['failed']} failed, "
          f"{totals['retried']} retried, {totals['resumed']} resumed, "
          f"{totals.get('degraded', 0)} degraded")
    for name, counters in status.get("clients", {}).items():
        print(f"  {name}: {counters['submitted']} submitted, "
              f"{counters['executed']} executed, "
              f"{counters['cache_hits']} cache hits, "
              f"{counters['deduped']} deduped, {counters['failed']} failed, "
              f"{counters['retried']} retried, "
              f"{counters['resumed']} resumed, "
              f"{counters.get('degraded', 0)} degraded")


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
    if args.watch is not None and args.watch <= 0:
        raise ServiceError(f"--watch needs a positive interval, got "
                           f"{args.watch:g}")

    with SweepClient(args.address, client_id="status") as client:
        try:
            while True:
                _print_status(client.status(), as_json=args.as_json)
                if args.watch is None:
                    break
                sys.stdout.flush()
                time.sleep(args.watch)
                if not args.as_json:
                    print()  # blank line between polls
        except KeyboardInterrupt:
            pass  # a watch is ended by Ctrl-C; that is not an error
    return 0
