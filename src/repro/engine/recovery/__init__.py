"""Pluggable fault-tolerance schemes: the engine's recovery strategy API.

The protocols of Sec. V — replica takeover, checkpoint restore + upstream
replay, source replay through the whole topology, and forged batch-over
punctuations — live behind a strategy interface so new fault-tolerance
schemes plug in as registry entries instead of engine edits:

* :class:`RecoveryScheme` — the one machinery class (``scheme.py``): every
  protocol step, written once against the engine it is attached to (a weak
  proxy of the run's :class:`~repro.engine.engine.StreamEngine`: virtual
  time and scheduling, config, metrics, per-task runtimes, checkpoint
  store, and the public data-plane methods ``send``/``deliver``/
  ``try_process``/``produce_source_batch``/``replay_batch``/
  ``schedule_source_emission``);
* three policy families (``policies.py``) — *placement*, *catch-up* and
  checkpoint *cadence* — that the machinery asks wherever schemes differ;
* :data:`RECOVERY_SCHEMES` — the string-keyed registry mirroring
  ``PLANNERS``/``FAILURE_MODELS``, selected via
  :attr:`EngineConfig.recovery_scheme <repro.engine.config.EngineConfig>`.

Built-in schemes
----------------

Each built-in is a declared (placement, catch-up, cadence) triple and
nothing else; ``recovery_params`` go to the policy that declares them.

========================= ===================== =================== ================
scheme                    placement             catch-up            cadence
========================= ===================== =================== ================
``"ppa"``                 PlanPlacement         CheckpointCatchUp   FixedCadence
``"checkpoint-replay"``   NoReplicas            CheckpointCatchUp   FixedCadence
``"source-replay"``       NoReplicas            SourceReplayCatchUp FixedCadence
``"active-standby"``      AllReplicas           CheckpointCatchUp   FixedCadence
``"approximate-ft"``      NoReplicas            SkipWithinBound     FixedCadence
``"k-safe"``              RackDisjointPlacement CheckpointCatchUp   FixedCadence
``"adaptive-checkpoint"`` NoReplicas            CheckpointCatchUp   YoungDalyCadence
========================= ===================== =================== ================

``"ppa"`` is the paper's partially-active replication: planned tasks keep a
hot replica, everything else restores its latest checkpoint and replays
upstream buffers.  ``"checkpoint-replay"`` and
``"source-replay"`` are the pure passive baselines (Spark-Streaming style /
vanilla Storm), ``"active-standby"`` the fully-active upper bound.
``"approximate-ft"`` (Cheng et al., arXiv:1811.04570; parameter
``fidelity_bound``) skips replay when the estimated divergence fits the
bound, ``"k-safe"`` (``placement``, ``assignment``) never lets a task and
its standby share a failure domain of the ``rack-correlated`` map, and
``"adaptive-checkpoint"`` (``min_interval``, ``max_interval``,
``mtbf_prior``, ``smoothing``) tunes the interval online.

Cadence is its own axis, so ``"source-replay"`` still takes — and pays CPU
for — checkpoints whenever ``checkpoint_interval`` is set, although it
never restores one; run it with ``checkpoint_interval=None`` for the Storm
baseline.

Compose your own triple — a combination nobody registered is three lines:

>>> from repro.engine.recovery import (
...     RECOVERY_SCHEMES, RecoveryScheme, create_scheme)
>>> from repro.engine.recovery.policies import (
...     PlanPlacement, SkipWithinBound, YoungDalyCadence)
>>> @RECOVERY_SCHEMES.register("ppa-approximate")
... class PpaApproximate(RecoveryScheme):
...     '''Replicas per the plan; the rest may skip replay within a bound.'''
...     name = "ppa-approximate"
...     placement = PlanPlacement
...     catch_up = SkipWithinBound
...     cadence = YoungDalyCadence
>>> scheme = create_scheme("ppa-approximate", {"fidelity_bound": 0.3,
...                                            "mtbf_prior": 60.0})
>>> scheme.catch_up.fidelity_bound, scheme.cadence.mtbf_prior
(0.3, 60.0)
>>> RECOVERY_SCHEMES.unregister("ppa-approximate")

PPA's replicas with a Storm-style passive path are the default triple with
another catch-up policy:

>>> from repro.engine.recovery.policies import SourceReplayCatchUp
>>> @RECOVERY_SCHEMES.register("ppa-source-replay")
... class PpaSourceReplay(RecoveryScheme):
...     '''Replicas per the plan; the rest replay sources (vanilla Storm).'''
...     name = "ppa-source-replay"
...     catch_up = SourceReplayCatchUp
>>> scheme = create_scheme("ppa-source-replay")
>>> type(scheme.placement).__name__, scheme.passive_mode().value
('PlanPlacement', 'source-replay')
>>> RECOVERY_SCHEMES.unregister("ppa-source-replay")

A scheme the families cannot express subclasses the machinery instead:

>>> @RECOVERY_SCHEMES.register("sources-active")
... class SourcesActive(RecoveryScheme):
...     '''Hot-replicate only source tasks; everything else is passive.'''
...     name = "sources-active"
...     def replicated_tasks(self, topology, planned):
...         return frozenset(t for t in topology.tasks()
...                          if topology.operator(t.operator).is_source)
>>> "sources-active" in RECOVERY_SCHEMES
True
>>> RECOVERY_SCHEMES.unregister("sources-active")
"""

from __future__ import annotations

from typing import Mapping

from repro.engine.recovery import policies
from repro.engine.recovery.scheme import RecoveryScheme
from repro.errors import SimulationError
from repro.registry import Registry

#: Recovery-scheme factories: ``fn(**params) -> RecoveryScheme``.  One
#: instance is created per engine run, so schemes may keep per-run state.
RECOVERY_SCHEMES: Registry = Registry("recovery scheme", error=SimulationError)


def create_scheme(name: str,
                  params: Mapping[str, object] | None = None) -> RecoveryScheme:
    """Instantiate the registered recovery scheme ``name``.

    ``params`` are keyword arguments for the scheme factory (e.g.
    ``{"fidelity_bound": 0.2}`` for ``approximate-ft``).  An unknown
    parameter or a malformed value surfaces as a :class:`SimulationError`
    naming the scheme and the parameter.
    """
    factory = RECOVERY_SCHEMES.get(name)
    params = dict(params or {})
    try:
        scheme = factory(**params)
    except (TypeError, ValueError, SimulationError) as exc:
        raise SimulationError(
            f"recovery scheme {name!r} rejected parameters {params!r}: {exc}"
        ) from None
    if not isinstance(scheme, RecoveryScheme):
        raise SimulationError(
            f"recovery scheme {name!r} built a {type(scheme).__name__}, "
            f"not a RecoveryScheme"
        )
    return scheme


def consumes_failure_domains(name: str) -> bool:
    """Whether scheme ``name`` places replicas against a node→rack map.

    Such a scheme takes the ``placement``/``assignment`` parameters of the
    failure model that kills by that map (see
    :func:`repro.scenarios.failures.failure_domains`).
    """
    placement = getattr(RECOVERY_SCHEMES.get(name), "placement", None)
    return getattr(placement, "consumes_failure_domains", False)


@RECOVERY_SCHEMES.register("ppa")
class PartiallyActiveScheme(RecoveryScheme):
    """The paper's scheme: hot replicas for the plan, passive for the rest."""

    name = "ppa"


@RECOVERY_SCHEMES.register("checkpoint-replay")
class CheckpointReplayScheme(RecoveryScheme):
    """Pure passive checkpoint/replay recovery; the plan is ignored."""

    name = "checkpoint-replay"
    placement = policies.NoReplicas
    catch_up = policies.CheckpointCatchUp


@RECOVERY_SCHEMES.register("source-replay")
class SourceReplayScheme(RecoveryScheme):
    """The vanilla Storm baseline: rebuild state by replaying source data."""

    name = "source-replay"
    placement = policies.NoReplicas
    catch_up = policies.SourceReplayCatchUp


@RECOVERY_SCHEMES.register("active-standby")
class ActiveStandbyScheme(RecoveryScheme):
    """Fully-active replication: every task keeps a hot replica.

    The upper bound the paper compares PPA against — recovery is always a
    replica takeover, whatever the replication plan says.
    """

    name = "active-standby"
    placement = policies.AllReplicas


@RECOVERY_SCHEMES.register("approximate-ft")
class ApproximateFtScheme(RecoveryScheme):
    """Approximate fault tolerance: no replicas, replay skipped within
    ``fidelity_bound`` (see :class:`~policies.SkipWithinBound`)."""

    name = "approximate-ft"
    placement = policies.NoReplicas
    catch_up = policies.SkipWithinBound


@RECOVERY_SCHEMES.register("k-safe")
class KSafeScheme(RecoveryScheme):
    """PPA with failure-domain-aware standbys over the ``rack-correlated``
    map (see :class:`~policies.RackDisjointPlacement`)."""

    name = "k-safe"
    placement = policies.RackDisjointPlacement


@RECOVERY_SCHEMES.register("adaptive-checkpoint")
class AdaptiveCheckpointScheme(RecoveryScheme):
    """Passive checkpoint/replay with the interval tuned online (see
    :class:`~policies.YoungDalyCadence`): the budget goes into checkpoints."""

    name = "adaptive-checkpoint"
    placement = policies.NoReplicas
    catch_up = policies.CheckpointCatchUp
    cadence = policies.YoungDalyCadence
