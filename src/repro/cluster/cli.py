"""CLI plumbing for the cluster fabric.

Three pieces, all routed through ``repro-experiments``:

* :func:`worker_main` — the ``worker`` subcommand: one agent process
  that dials a coordinator and serves cells until told to shut down.
  This is what the local fleet spawns and what you run on every extra
  host.
* :func:`add_cluster_arguments` — the ``--cluster-*`` option group
  shared by ``grid --backend cluster`` and ``serve --backend cluster``.
* :func:`backend_from_args` — builds the execution backend that
  ``--backend``/``--max-workers`` and those flags describe.
"""

from __future__ import annotations

import argparse
from typing import Sequence

from repro.cluster.worker import ClusterWorkerAgent
from repro.errors import ScenarioError
from repro.resilience import RetryPolicy
from repro.scenarios.backends import EXECUTION_BACKENDS, ExecutionBackend


def worker_main(argv: Sequence[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments worker",
        description="Run one cluster worker agent: connect to a "
                    "coordinator, lease grid cells, stream results back "
                    "until the coordinator shuts the cluster down.",
    )
    parser.add_argument("--connect", required=True, metavar="HOST:PORT",
                        help="the coordinator's address")
    parser.add_argument("--name", default="worker",
                        help="worker name for lease accounting "
                             "(uniquified server-side; default: worker)")
    parser.add_argument("--capacity", type=int, default=1, metavar="N",
                        help="concurrent cells this agent accepts "
                             "(default 1; engine cells are GIL-bound, so "
                             "run more agents rather than raising this)")
    parser.add_argument("--heartbeat", type=float, default=1.0, metavar="S",
                        help="liveness beacon interval in seconds "
                             "(default 1.0)")
    parser.add_argument("--reconnect", type=float, default=0.0, metavar="S",
                        help="after an unexpected connection drop, keep "
                             "redialling the coordinator for S seconds "
                             "(exponential backoff with jitter), resuming "
                             "the prior worker id on success; 0 = exit "
                             "immediately (default)")
    args = parser.parse_args(argv)

    reconnect = None
    if args.reconnect and args.reconnect > 0:
        reconnect = RetryPolicy(max_attempts=None, base_delay=0.1,
                                max_delay=2.0, deadline=args.reconnect)
    agent = ClusterWorkerAgent(args.connect, name=args.name,
                               capacity=args.capacity,
                               heartbeat_interval=args.heartbeat,
                               reconnect=reconnect)
    return agent.run()


def add_cluster_arguments(parser: argparse.ArgumentParser) -> None:
    """Add the ``--backend cluster`` topology options to ``parser``."""
    group = parser.add_argument_group(
        "cluster backend options (with --backend cluster)")
    group.add_argument("--cluster-local", type=int, default=None, metavar="N",
                       help="size of the auto-spawned local worker fleet "
                            "(default: min(4, cpus); 0 = externally "
                            "launched workers only)")
    group.add_argument("--cluster-host", default="127.0.0.1", metavar="HOST",
                       help="coordinator bind address (default 127.0.0.1; "
                            "use 0.0.0.0 to accept remote workers)")
    group.add_argument("--cluster-port", type=int, default=0, metavar="PORT",
                       help="coordinator port (default 0 = OS-assigned)")
    group.add_argument("--worker-capacity", type=int, default=1, metavar="N",
                       help="concurrent cells per spawned worker (default 1)")
    group.add_argument("--lease-timeout", type=float, default=None,
                       metavar="S",
                       help="per-cell lease deadline; a hung worker "
                            "forfeits the cell when it expires (default: "
                            "none — rely on heartbeats)")
    group.add_argument("--cluster-journal", default=None, metavar="PATH",
                       help="coordinator write-ahead ledger; a coordinator "
                            "restarted on the same journal replays it and "
                            "finishes the interrupted grid (default: none)")
    group.add_argument("--cluster-respawn", type=int, default=0, metavar="N",
                       help="replace up to N crashed fleet workers over the "
                            "run (default 0 = never respawn)")
    group.add_argument("--worker-reconnect", type=float, default=0.0,
                       metavar="S",
                       help="spawned workers redial a dropped coordinator "
                            "connection for S seconds before giving up "
                            "(default 0 = exit on first drop)")
    group.add_argument("--cluster-fallback", default="processes",
                       metavar="BACKEND",
                       help="in-process backend that finishes the grid when "
                            "the fleet degrades below --cluster-min-workers "
                            "(default: processes; 'none' disables fallback "
                            "and fails loudly instead)")
    group.add_argument("--cluster-min-workers", type=int, default=1,
                       metavar="N",
                       help="live workers required mid-grid before the "
                            "backend degrades to the fallback (default 1)")
    group.add_argument("--cluster-degrade-after", type=float, default=None,
                       metavar="S",
                       help="how long the fleet may stay below the floor "
                            "before degrading (default: the startup "
                            "timeout)")


def backend_from_args(args: argparse.Namespace) -> ExecutionBackend:
    """The backend ``--backend``, ``--max-workers`` and the cluster flags name.

    For the cluster backend ``--max-workers`` (the generic pool-width
    flag) doubles as the local fleet size when ``--cluster-local`` was
    not given, so ``--backend cluster --max-workers 3`` does the obvious
    thing.
    """
    if args.backend != "cluster":
        factory = EXECUTION_BACKENDS.get(args.backend)
        if args.max_workers is None:
            return factory()
        try:
            return factory(max_workers=args.max_workers)
        except TypeError:
            raise ScenarioError(
                f"backend {args.backend!r} does not take --max-workers"
            ) from None
    # Imported here: a ``worker`` process never loads the coordinator side.
    from repro.cluster.backend import ClusterBackend

    local = args.cluster_local
    if local is None:
        local = args.max_workers
    fallback = args.cluster_fallback
    if fallback in ("none", ""):
        fallback = None
    return ClusterBackend(host=args.cluster_host, port=args.cluster_port,
                          local_workers=local,
                          worker_capacity=args.worker_capacity,
                          lease_timeout=args.lease_timeout,
                          journal=args.cluster_journal,
                          respawn=args.cluster_respawn,
                          worker_reconnect=args.worker_reconnect,
                          fallback=fallback,
                          min_workers=args.cluster_min_workers,
                          degrade_after=args.cluster_degrade_after)
