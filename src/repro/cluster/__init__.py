"""Multi-host distributed execution fabric for scenario grids.

The cluster package stretches the grid execution layer across machines:
a :class:`~repro.cluster.coordinator.ClusterCoordinator` leases cells to
:class:`~repro.cluster.worker.ClusterWorkerAgent` processes over the
same stdlib NDJSON-over-TCP dialect as the sweep service, and
:class:`~repro.cluster.backend.ClusterBackend` packages the whole thing
as the registered ``"cluster"`` execution backend — so
``run_grid(..., backend="cluster")``, ``grid --backend cluster`` and
``serve --backend cluster`` gain multi-host execution without any
caller-side changes.

Layering (mirroring :mod:`repro.service`):

* :mod:`~repro.cluster.protocol` — wire messages + importable runner specs;
* :mod:`~repro.cluster.ledger` — leases, retries, worker accounting
  (socket-free, the testable heart);
* :mod:`~repro.cluster.coordinator` — the TCP front end + liveness monitor;
* :mod:`~repro.cluster.worker` — the agent behind
  ``repro-experiments worker --connect HOST:PORT``;
* :mod:`~repro.cluster.fleet` — the local fleet of forked workers;
* :mod:`~repro.cluster.backend` — the ``ExecutionBackend`` façade and
  its ``"processes"`` preset;
* :mod:`~repro.cluster.cli` — the ``worker`` subcommand and the
  ``--cluster-*`` option group.

Results are digest-identical to the serial backend:
:class:`~repro.scenarios.session.GridSession`'s reorder buffer plus the
lossless outcome wire format guarantee byte-identical sink files, and
worker death mid-cell is a first-class path — the cell requeues with its
attempt count intact and surfaces as ``GridReport.retries``.
"""

from repro.lazy import lazy_exports

#: exported name -> the module it is imported from on first use.
_EXPORTS = {
    "CellLedger": "repro.cluster.ledger",
    "ClusterBackend": "repro.cluster.backend",
    "ClusterCoordinator": "repro.cluster.coordinator",
    "ClusterWorkerAgent": "repro.cluster.worker",
    "LocalFleet": "repro.cluster.fleet",
}

__getattr__, __dir__, __all__ = lazy_exports(__name__, _EXPORTS)
