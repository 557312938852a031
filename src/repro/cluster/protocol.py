"""Wire protocol of the cluster fabric: NDJSON over TCP, worker-initiated.

The cluster speaks the same framing as the sweep service
(:mod:`repro.fabric.transport` — one JSON object per line, stdlib only)
and the same outcome envelopes (:mod:`repro.service.protocol`), but the
roles are inverted: here the *worker* dials the coordinator,
announces a capacity, and the coordinator pushes leased cells down the
same socket the worker registered on.  Requests flow worker →
coordinator carrying an ``"op"`` field; everything the coordinator sends
carries a ``"type"`` field.

Worker requests
---------------
``{"op": "register", "worker": NAME, "capacity": C, "protocol": 1}``
    Mandatory first message; the coordinator replies ``welcome`` with the
    (possibly uniquified) worker id used in lease accounting.  A worker
    redialling after a connection drop adds ``"resume": PRIOR_ID`` to
    take over its previous registration — outstanding leases stay valid
    (its executor is still running them) instead of requeueing.
``{"op": "heartbeat"}``
    Periodic liveness beacon.  A worker whose heartbeats stop (and whose
    socket lingers half-open) is declared dead and its leases requeue.
``{"op": "result", "cell": ID, "outcome": {"result": ...} | {"error": ...}}``
    One finished cell.  The outcome envelope is exactly the sweep
    service's (:func:`~repro.service.protocol.outcome_to_wire`), so both
    fabrics round-trip results through the same ``to_dict`` contract.
``{"op": "bye"}``
    Clean deregistration; outstanding leases requeue like a death.

Coordinator messages
--------------------
``{"type": "welcome", "worker": ID, "protocol": 1}``
    Registration accepted.
``{"type": "cell", "cell": ID, "index": I, "attempt": A, "scenario": {...},
"runner": SPEC}``
    One leased cell.  ``runner`` is an importable ``"module:qualname"``
    spec or ``null`` for the default runner
    (:func:`~repro.scenarios.runner.run_scenario`, which resolves each
    workload through the worker's per-process memo) — cells
    never carry pickled callables, so any host with the code checked out
    can serve as a worker.  ``attempt`` counts lease grants for this
    cell (1 on the first grant), which keeps re-leases distinguishable
    on the wire (the chaos harness keys fault decisions on it).
``{"type": "shutdown"}``
    The coordinator is winding down; the worker exits cleanly.
``{"type": "error", "message": ..., "code": ...?}``
    A protocol violation (echoed before the connection drops).  A
    ``"code"`` of ``"protocol-mismatch"`` marks the one *permanent*
    rejection: self-healing reconnect loops must give up instead of
    redialling a coordinator that will never accept them.

Runner specs
------------
:func:`runner_to_wire` turns a runner callable into its import spec and
refuses callables that cannot be re-imported (lambdas, closures,
instance-bound callables); :func:`runner_from_wire` is the worker-side
inverse.  The round trip is verified at the coordinator, so a bad runner
fails fast at submit time instead of on a remote host.
"""

from __future__ import annotations

from importlib import import_module
from typing import Callable

from repro.errors import ClusterError

#: Bumped on incompatible message-shape changes; ``register`` carries the
#: worker's version and the coordinator rejects mismatches loudly.
CLUSTER_PROTOCOL_VERSION = 1


def runner_to_wire(runner: Callable) -> str | None:
    """The importable ``"module:qualname"`` spec for ``runner``.

    The default runner (:func:`~repro.scenarios.runner.run_scenario`)
    travels as ``None`` so workers resolve it locally without an import
    round trip.  Anything else must be importable *and* import back to the
    very same object — otherwise the worker would silently run different
    code than the coordinator was handed.
    """
    from repro.scenarios.runner import run_scenario

    if runner is run_scenario:
        return None
    module = getattr(runner, "__module__", None)
    qualname = getattr(runner, "__qualname__", None)
    if not module or not qualname or "<" in qualname:
        raise ClusterError(
            f"cluster runners must be module-level callables (importable on "
            f"worker hosts); {runner!r} is not"
        )
    spec = f"{module}:{qualname}"
    try:
        resolved = runner_from_wire(spec)
    except ClusterError:
        resolved = None
    if resolved is not runner:
        raise ClusterError(
            f"runner {runner!r} does not import back as {spec!r}; cluster "
            f"runners must be module-level callables reachable by name"
        )
    return spec


def runner_from_wire(spec: str | None) -> Callable:
    """Inverse of :func:`runner_to_wire` (``None`` → ``run_scenario``)."""
    if spec is None:
        from repro.scenarios.runner import run_scenario

        return run_scenario
    if not isinstance(spec, str) or ":" not in spec:
        raise ClusterError(
            f"malformed runner spec {spec!r}; expected 'module:qualname'"
        )
    module_name, _, qualname = spec.partition(":")
    try:
        obj: object = import_module(module_name)
    except ImportError as exc:
        raise ClusterError(
            f"cannot import runner module {module_name!r} on this worker: "
            f"{exc}"
        ) from None
    for part in qualname.split("."):
        try:
            obj = getattr(obj, part)
        except AttributeError:
            raise ClusterError(
                f"runner spec {spec!r} does not resolve: {module_name!r} has "
                f"no attribute path {qualname!r}"
            ) from None
    if not callable(obj):
        raise ClusterError(f"runner spec {spec!r} resolves to a non-callable")
    return obj
