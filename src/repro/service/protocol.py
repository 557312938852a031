"""Wire protocol of the sweep service: newline-delimited JSON messages.

Every message is one JSON object on one line (NDJSON), stdlib only, so any
language with a socket and a JSON parser can talk to the broker; the
framing itself (:func:`dump_message` / :func:`parse_message`) is the
shared :mod:`repro.fabric.transport`'s and is importable from here too.  Requests
flow client → server, carrying an ``"op"`` field; everything the server
sends carries a ``"type"`` field.  One TCP connection is one client: the
server pushes events for that client's jobs down the same socket the
requests arrive on, so a client never polls.

Requests
--------
``{"op": "hello", "client": NAME, "protocol": 1}``
    Mandatory first message; the server replies ``welcome`` with the
    (possibly uniquified) client id that tags all subsequent accounting.
``{"op": "submit", "scenarios": [...]}`` or
``{"op": "submit", "base": {...}, "axes": {...}}``
    Submit a grid.  Scenario objects use the canonical
    :meth:`~repro.scenarios.spec.Scenario.to_dict` form; ``base``/``axes``
    are expanded server-side exactly like :func:`repro.scenarios.expand_grid`.
    Optional fields: ``"job"`` (a client-side label echoed back) and
    ``"results": false`` (progress-only streaming — final documents are
    suppressed for huge grids whose payloads live in a shared cache/sink).
    The server replies ``accepted``, then streams ``progress`` (one per
    completed cell, completion order, keyed like
    :meth:`~repro.scenarios.session.ProgressEvent.to_dict`: a failed
    cell's carries its ``kind``) and ``result`` messages, and finally
    one ``job-done`` with the per-job tallies.
``{"op": "status"}``
    Reply: one ``status`` message — aggregate and per-client counters,
    queue depths, and whether the server is draining.
``{"op": "drain"}``
    Ask the server to drain (same as SIGTERM): in-flight cells finish,
    queued cells persist to the journal, then the server exits.
``{"op": "bye"}``
    Close the connection cleanly.

Responses and events
--------------------
``welcome``, ``accepted``, ``progress``, ``result``, ``job-done``,
``status``, ``draining`` (broadcast once when a drain starts) and
``error`` (the offending request's ``op`` is echoed when known).

Outcomes travel in the same envelope the ``grid --json`` CLI prints: a
``{"result": {...}}`` object for a :class:`ScenarioResult` or an
``{"error": {...}}`` object for a :class:`CellError`, so both ends
round-trip losslessly through the records' ``to_dict``/``from_dict``, one
field-table :class:`~repro.scenarios.spec.Codec`.  Every malformed value
in a request decodes to a :class:`~repro.errors.ScenarioError` naming its
field; the server answers it with an ``error`` and keeps the connection.
"""

from __future__ import annotations

from collections.abc import Mapping
from typing import Any

from repro.errors import ServiceError
from repro.fabric.transport import dump_message, parse_message  # noqa: F401
from repro.scenarios.backends import CellError
from repro.scenarios.results import ScenarioResult

#: Bumped on incompatible message-shape changes; ``hello`` carries the
#: client's version and the server rejects mismatches loudly rather than
#: mis-parsing silently.
PROTOCOL_VERSION = 1


def outcome_to_wire(outcome: object) -> dict[str, Any]:
    """The JSON envelope for a ``ScenarioResult`` or ``CellError``."""
    if isinstance(outcome, ScenarioResult):
        return {"result": outcome.to_dict()}
    if isinstance(outcome, CellError):
        return {"error": outcome.to_dict()}
    raise ServiceError(
        f"cannot serialize outcome of type {type(outcome).__name__}"
    )


def outcome_from_wire(data: Mapping[str, Any]) -> object:
    """Inverse of :func:`outcome_to_wire`."""
    if not isinstance(data, Mapping):
        raise ServiceError(
            f"an outcome envelope must be an object, got {type(data).__name__}"
        )
    if "result" in data:
        return ScenarioResult.from_dict(data["result"])
    if "error" in data:
        return CellError.from_dict(data["error"])
    raise ServiceError("outcome envelope has neither 'result' nor 'error'")
