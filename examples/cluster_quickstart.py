"""Run a parameter grid on the distributed cluster fabric in ~20 lines.

`backend="cluster"` swaps the in-process pool for a coordinator that
leases cells to worker agents over TCP.  Here the backend auto-spawns a
two-worker local fleet on loopback — the full wire path (registration,
leases, heartbeats, result streaming) with zero infrastructure — and the
results come back digest-identical to a serial run: same sink bytes,
same report, same cache keys.

To stretch the same grid across machines, bind the coordinator to a
routable address (``ClusterBackend(host="0.0.0.0")``) and start a worker
on each extra host, pointed at the printed coordinator address:

    repro-experiments worker --connect HOST:PORT

Run:  python examples/cluster_quickstart.py
"""

from repro.cluster import ClusterBackend
from repro.scenarios import FailureSpec, GridSession, Scenario, expand_grid

base = Scenario(
    name="cluster-demo",
    workload="synthetic",
    workload_params={"rate_per_source": 200.0, "window_seconds": 5.0,
                     "tuple_scale": 16.0},
    planner="structure-aware",
    failures=(FailureSpec("correlated", at=10.0),),
    duration=20.0,
)
grid = expand_grid(base, {"budget_fraction": [0.0, 0.25, 0.5],
                          "seed": [1, 2]})


def main():
    # Two local worker agents; the coordinator port is OS-assigned.
    # On several hosts: host="0.0.0.0" plus a `worker --connect` per host.
    with ClusterBackend(local_workers=2) as backend:
        host, port = backend.address
        print(f"coordinator on {host}:{port}, "
              f"2 local workers — join with: "
              f"repro-experiments worker --connect {host}:{port}\n")
        report = GridSession(
            backend, progress=lambda event: print(event.render())).run(grid)

    print(f"\n{report.total} cells: {report.executed} executed, "
          f"{report.errors} errors, {report.retries} retries")
    for result in report.results():
        label = result.scenario.name
        budget = result.scenario.budget_fraction
        print(f"  {label} (budget={budget}, seed={result.scenario.seed}): "
              f"fidelity {result.worst_case_fidelity:.3f}")


if __name__ == "__main__":
    main()
