"""The sweep service: a persistent grid broker for the scenario engine.

Where :func:`repro.scenarios.run_grid` is one process running one sweep,
this package runs the simulator as a *shared service*: a long-lived
:class:`SweepServer` owns one execution backend, one content-addressed
scenario cache and one resumable journal, and many concurrent
:class:`SweepClient`\\ s submit scenario grids over a newline-delimited
JSON TCP protocol (stdlib only).  Identical cells — submitted by one
client or by many — execute exactly once and fan out to every subscriber;
scheduling is round-robin across clients so big sweeps cannot starve small
ones; SIGTERM drains gracefully (in-flight cells finish, queued cells
persist to the journal and re-run on the next start).

Quick start (see also ``examples/serve_quickstart.py`` and the
``serve`` / ``submit`` / ``status`` CLI subcommands)::

    server = SweepServer(backend="processes", cache="~/.cache/repro-grid",
                         journal="~/.cache/repro-journal.jsonl").start()
    with SweepClient(server.address, client_id="alice") as alice:
        job = alice.submit(base=scenario, axes={"budget": [0, 1, 2]})
        outcome = alice.wait(job)

Layered like the rest of the scenario stack: :mod:`~repro.service.protocol`
(wire format) < :mod:`~repro.service.journal` (durability) <
:mod:`~repro.service.broker` (dedup + fair scheduling + accounting, fully
socket-free and unit-testable) < :mod:`~repro.service.server` /
:mod:`~repro.service.client` (transport) < :mod:`~repro.service.cli`.
"""

from repro.lazy import lazy_exports

#: exported name -> the module it is imported from on first use.
_EXPORTS = {
    "JOURNAL_CLIENT": "repro.service.broker",
    "JobOutcome": "repro.service.client",
    "PROTOCOL_VERSION": "repro.service.protocol",
    "ServiceError": "repro.errors",
    "SweepBroker": "repro.service.broker",
    "SweepClient": "repro.service.client",
    "SweepCounters": "repro.service.broker",
    "SweepJournal": "repro.service.journal",
    "SweepServer": "repro.service.server",
    "dump_message": "repro.service.protocol",
    "outcome_from_wire": "repro.service.protocol",
    "outcome_to_wire": "repro.service.protocol",
    "parse_message": "repro.service.protocol",
}

__getattr__, __dir__, __all__ = lazy_exports(__name__, _EXPORTS)
