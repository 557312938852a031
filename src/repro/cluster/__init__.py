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
* :mod:`~repro.cluster.fleet` — the local subprocess fleet;
* :mod:`~repro.cluster.backend` — the ``ExecutionBackend`` façade;
* :mod:`~repro.cluster.cli` — the ``worker`` subcommand and the
  ``--cluster-*`` option group.

Results are digest-identical to the serial backend:
:class:`~repro.scenarios.session.GridSession`'s reorder buffer plus the
lossless outcome wire format guarantee byte-identical sink files, and
worker death mid-cell is a first-class path — the cell requeues with its
attempt count intact and surfaces as ``GridReport.retries``.
"""

from repro.cluster.backend import ClusterBackend
from repro.cluster.coordinator import ClusterCoordinator
from repro.cluster.fleet import LocalFleet
from repro.cluster.ledger import CellLedger
from repro.cluster.worker import ClusterWorkerAgent

__all__ = [
    "CellLedger",
    "ClusterBackend",
    "ClusterCoordinator",
    "ClusterWorkerAgent",
    "LocalFleet",
]
