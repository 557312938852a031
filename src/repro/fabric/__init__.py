"""The fabric core shared by the sweep service and the cluster.

:mod:`~repro.fabric.journal` is the one fsync'd, torn-line-tolerant JSONL
log (under ``SweepJournal`` and ``LedgerJournal``);
:mod:`~repro.fabric.transport` is the one NDJSON-over-TCP transport (under
``SweepServer``/``ClusterCoordinator`` and ``SweepClient``/
``ClusterWorkerAgent``).  The state machines on top — the service's
dedup/fair-share broker, the cluster's lease ledger — stay with their
fabrics; this package depends on neither.
"""
