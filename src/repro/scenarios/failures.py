"""Built-in failure models for the scenario layer.

A failure model turns a :class:`~repro.scenarios.spec.FailureSpec` into the
concrete set of victim tasks for one topology.  The engine then kills every
node hosting a victim — matching how Sec. VI injects failures (correlated
failures kill many worker nodes at once).

Models registered here:

* ``"single-task"`` — one task, by operator name and index;
* ``"tasks"`` — an explicit task list (``[["O1", 0], ["O2", 1]]``);
* ``"correlated"`` — every task of the given operators (default: all
  non-source operators, the paper's worst-case correlated failure);
* ``"random-k"`` — ``k`` tasks sampled without replacement, deterministic
  in the seed;
* ``"unreplicated"`` — every non-source task outside the replication plan;
  with ``include_sources: true`` the unplanned sources die too, which is
  the Fig. 12/13 tentative-quality outage and the failure the plan's
  ``worst_case_fidelity`` is computed for;
* ``"rack-correlated"`` (alias ``"rack_correlated"``) — every task placed
  on a node of the failing rack(s), derived from a node→rack placement map
  in ``failure.params`` (the paper's motivating correlated-failure domain:
  a shared switch or PDU takes out a whole rack of workers);
* ``"rolling-restart"`` — kills the victims one at a time on a stagger
  interval (scheduled maintenance: each node goes down, recovers, then the
  next one is taken down);
* ``"flapping"`` — repeated kill/recover cycles of the same victims (the
  flapping axis of the recovery-benchmarking work, Vogel et al.,
  arXiv:2404.06203): each cycle kills, waits ``down`` seconds, restores
  the nodes, waits ``up`` seconds, kills again;
* ``"detection-jitter"`` — wraps another model and adds a randomized
  per-victim detection delay on top of the heartbeat (detection-time
  jitter, same benchmarking axis); deterministic in the seed.

New models plug in with ``@FAILURE_MODELS.register("name")``; the callable
receives ``(topology, plan, *, seed, **params)`` and returns the victim
tasks — either a flat sequence (every victim dies at ``FailureSpec.at``) or
a sequence of :class:`FailureWave` entries whose offsets stagger the kills
relative to ``FailureSpec.at``.  A wave may also carry ``restores`` (tasks
whose nodes come back up at the wave's offset) and a ``detect_delay``
(extra per-task detection latency for that wave's kills).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import AbstractSet, Iterable, Mapping, Sequence

from repro.engine.cluster import placement_node_map
from repro.errors import ScenarioError
from repro.scenarios.registry import FAILURE_MODELS
from repro.topology.graph import Topology
from repro.topology.operators import TaskId


@dataclass(frozen=True)
class FailureWave:
    """One batch of simultaneous kills within a failure model's schedule.

    ``offset`` is in seconds relative to the owning
    :class:`~repro.scenarios.spec.FailureSpec`'s ``at`` time.  ``restores``
    names tasks whose (previously killed) nodes come back up at the same
    offset — they run *before* the wave's kills, so a wave may bounce a
    node in place.  ``detect_delay`` adds per-task detection latency to
    this wave's kills on top of the detecting heartbeat.
    """

    offset: float
    tasks: tuple[TaskId, ...]
    restores: tuple[TaskId, ...] = ()
    detect_delay: float = 0.0

    def __post_init__(self) -> None:
        if self.offset < 0:
            raise ScenarioError(
                f"failure wave offset must be >= 0, got {self.offset}"
            )
        if self.detect_delay < 0:
            raise ScenarioError(
                f"failure wave detect_delay must be >= 0, got {self.detect_delay}"
            )
        object.__setattr__(self, "tasks", tuple(self.tasks))
        object.__setattr__(self, "restores", tuple(self.restores))
        if not self.tasks and not self.restores:
            raise ScenarioError(
                "a failure wave must kill or restore at least one task"
            )


def as_waves(victims: object) -> tuple[FailureWave, ...]:
    """Normalise a failure model's return value to a wave schedule.

    A flat task sequence becomes a single wave at offset 0; a sequence of
    :class:`FailureWave` entries is ordered by offset (stable for ties).
    """
    if isinstance(victims, FailureWave):
        return (victims,)
    items = list(victims)  # type: ignore[arg-type]
    if items and all(isinstance(v, FailureWave) for v in items):
        return tuple(sorted(items, key=lambda w: w.offset))
    if any(isinstance(v, FailureWave) for v in items):
        raise ScenarioError(
            "a failure model must return either tasks or FailureWaves, "
            "not a mixture"
        )
    return (FailureWave(0.0, tuple(items)),) if items else ()


def _task_from_param(topology: Topology, value: object) -> TaskId:
    """Parse ``["O1", 0]`` / ``"O1[0]"`` / ``TaskId`` into a validated TaskId."""
    if isinstance(value, TaskId):
        task = value
    elif isinstance(value, str) and value.endswith("]") and "[" in value:
        parsed = TaskId.parse(value)
        if parsed is None:
            raise ScenarioError(f"malformed task reference {value!r}")
        task = parsed
    elif isinstance(value, Sequence) and not isinstance(value, str) and len(value) == 2:
        try:
            task = TaskId(str(value[0]), int(value[1]))
        except (TypeError, ValueError):
            raise ScenarioError(f"malformed task reference {value!r}") from None
    else:
        raise ScenarioError(
            f"task references must be [operator, index] pairs or 'Op[i]' "
            f"strings, got {value!r}"
        )
    if task not in topology.tasks():
        raise ScenarioError(f"failure references unknown task {task}")
    return task


def synthetic_tasks(topology: Topology) -> tuple[TaskId, ...]:
    """All non-source tasks — the tasks the paper's experiments kill."""
    return tuple(
        t for t in topology.tasks()
        if not topology.operator(t.operator).is_source
    )


@FAILURE_MODELS.register("single-task")
def single_task(topology: Topology, plan: AbstractSet[TaskId], *, seed: int,
                operator: str, index: int = 0) -> tuple[TaskId, ...]:
    """One task of ``operator`` fails (Fig. 7's single-node failure)."""
    task = TaskId(topology.operator(operator).name, int(index))
    if task not in topology.tasks():
        raise ScenarioError(f"failure references unknown task {task}")
    return (task,)


@FAILURE_MODELS.register("tasks")
def explicit_tasks(topology: Topology, plan: AbstractSet[TaskId], *, seed: int,
                   tasks: Iterable[object]) -> tuple[TaskId, ...]:
    """An explicit victim list, each entry ``[operator, index]`` or ``"Op[i]"``."""
    victims = tuple(_task_from_param(topology, t) for t in tasks)
    if not victims:
        raise ScenarioError("'tasks' failure model needs at least one task")
    return victims


@FAILURE_MODELS.register("correlated")
def correlated(topology: Topology, plan: AbstractSet[TaskId], *, seed: int,
               operators: Sequence[str] | None = None) -> tuple[TaskId, ...]:
    """Every task of ``operators`` fails at once (default: all non-sources)."""
    if operators is None:
        return synthetic_tasks(topology)
    victims: list[TaskId] = []
    for name in operators:
        victims.extend(topology.tasks_of(name))
    if not victims:
        raise ScenarioError("'correlated' failure model selected no tasks")
    return tuple(victims)


@FAILURE_MODELS.register("random-k")
def random_k(topology: Topology, plan: AbstractSet[TaskId], *, seed: int,
             k: int, include_sources: bool = False) -> tuple[TaskId, ...]:
    """``k`` victims drawn without replacement, deterministic in the seed."""
    eligible = sorted(
        topology.tasks() if include_sources else synthetic_tasks(topology)
    )
    if not 1 <= k <= len(eligible):
        raise ScenarioError(
            f"'random-k' needs 1 <= k <= {len(eligible)} eligible tasks, got k={k}"
        )
    rng = random.Random(seed)
    return tuple(sorted(rng.sample(eligible, k)))


@FAILURE_MODELS.register("rack-correlated")
def rack_correlated(topology: Topology, plan: AbstractSet[TaskId], *, seed: int,
                    placement: Mapping[str, str],
                    racks: Sequence[str] | str | None = None,
                    rack: str | None = None,
                    assignment: Mapping[str, object] | None = None,
                    include_sources: bool = True) -> tuple[TaskId, ...]:
    """Every task on a node of the failing rack(s) dies at once.

    ``placement`` maps node name → rack id; ``racks`` (or the singular
    ``rack``) names which rack(s) fail.  Tasks are placed on the nodes
    round-robin in ``placement``'s key order — mirroring the engine
    cluster's default placement — unless ``assignment`` pins specific tasks
    (``{"O2[0]": "node-a", ...}``) to nodes explicitly; unpinned tasks keep
    their round-robin slot.  Set ``include_sources=False`` to keep source
    tasks alive even when their rack fails.

    Example ``failure.params``::

        {"placement": {"n0": "rack-a", "n1": "rack-a", "n2": "rack-b"},
         "racks": ["rack-a"]}
    """
    if not isinstance(placement, Mapping) or not placement:
        raise ScenarioError(
            "'rack-correlated' needs a non-empty 'placement' mapping of "
            "node name -> rack id"
        )
    nodes = [str(n) for n in placement]
    node_racks = {str(n): str(r) for n, r in placement.items()}
    if rack is not None and racks is not None:
        raise ScenarioError("'rack-correlated': pass racks or rack, not both")
    if rack is not None:
        racks = (rack,)
    elif isinstance(racks, str):
        racks = (racks,)
    if not racks:
        raise ScenarioError(
            "'rack-correlated' needs 'racks' (or 'rack') naming the failing "
            "rack(s)"
        )
    known_racks = set(node_racks.values())
    failing = []
    for name in racks:
        name = str(name)
        if name not in known_racks:
            choices = ", ".join(repr(r) for r in sorted(known_racks))
            raise ScenarioError(
                f"'rack-correlated': unknown rack {name!r}; placement has "
                f"{choices}"
            )
        failing.append(name)
    failing_set = set(failing)

    pins: dict[TaskId, str] = {}
    if assignment:
        for ref, node_name in assignment.items():
            task = _task_from_param(topology, ref)
            node_name = str(node_name)
            if node_name not in node_racks:
                known = ", ".join(repr(n) for n in nodes)
                raise ScenarioError(
                    f"'rack-correlated': task {task} assigned to unknown "
                    f"node {node_name!r}; placement has {known}"
                )
            pins[task] = node_name
    # Shared with the engine's k-safe scheme, so the blast radius this model
    # kills is exactly the one replica placement avoids.
    node_of = placement_node_map(topology.tasks(), nodes, pins)

    victims = tuple(
        task for task in topology.tasks()
        if node_racks[node_of[task]] in failing_set
        and (include_sources or not topology.operator(task.operator).is_source)
    )
    if not victims:
        raise ScenarioError(
            f"'rack-correlated': no tasks are placed on rack(s) "
            f"{sorted(failing_set)}"
        )
    return victims


# Underscore alias so the model is reachable under both spellings.
FAILURE_MODELS.register("rack_correlated")(rack_correlated)


def _victims(model: str, topology: Topology,
             operators: Sequence[str] | None, tasks: Iterable[object] | None,
             include_sources: bool) -> tuple[TaskId, ...]:
    """The victims of a staggered model, in deterministic order.

    ``tasks`` pins an explicit list (in the given order), ``operators``
    restricts to the named operators; the two are mutually exclusive.
    Otherwise every non-source task is a victim, sources too with
    ``include_sources``.
    """
    if operators is not None and tasks is not None:
        raise ScenarioError(f"'{model}': pass operators or tasks, not both")
    victims: list[TaskId]
    if tasks is not None:
        victims = [_task_from_param(topology, t) for t in tasks]
    elif operators is not None:
        victims = []
        for name in operators:
            victims.extend(topology.tasks_of(name))
    else:
        victims = list(
            topology.tasks() if include_sources else synthetic_tasks(topology)
        )
    if not victims:
        raise ScenarioError(f"'{model}' selected no tasks")
    return tuple(victims)


@FAILURE_MODELS.register("rolling-restart")
def rolling_restart(topology: Topology, plan: AbstractSet[TaskId], *, seed: int,
                    stagger: float = 10.0,
                    operators: Sequence[str] | None = None,
                    tasks: Iterable[object] | None = None,
                    include_sources: bool = False) -> tuple[FailureWave, ...]:
    """Kill the victims one at a time, ``stagger`` seconds apart.

    The scheduled-maintenance scenario the one-shot correlated models cannot
    express: each node is taken down, given time to recover, and only then
    is the next one killed.  Victims default to every non-source task
    (``include_sources=True`` adds sources); ``operators`` restricts to the
    named operators and ``tasks`` pins an explicit list (mutually
    exclusive).  Order is deterministic: topology order, or the given order
    for an explicit ``tasks`` list.

    Example ``failure.params``::

        {"stagger": 8.0, "operators": ["O2", "O3"]}
    """
    if stagger < 0:
        raise ScenarioError(
            f"'rolling-restart' stagger must be >= 0, got {stagger}"
        )
    victims = _victims("rolling-restart", topology, operators, tasks,
                       include_sources)
    return tuple(
        FailureWave(position * stagger, (task,))
        for position, task in enumerate(victims)
    )


@FAILURE_MODELS.register("flapping")
def flapping(topology: Topology, plan: AbstractSet[TaskId], *, seed: int,
             cycles: int = 3, down: float = 4.0, up: float = 6.0,
             operators: Sequence[str] | None = None,
             tasks: Iterable[object] | None = None,
             include_sources: bool = False) -> tuple[FailureWave, ...]:
    """Repeated kill/recover cycles of the same victims.

    The flapping axis of the recovery-benchmarking suites (Vogel et al.,
    arXiv:2404.06203): a failure the system recovers from, only for the
    same nodes to fail again — stressing stale-restore handling, checkpoint
    freshness and detection bookkeeping in a way one-shot models cannot.
    Each of the ``cycles`` rounds kills the victims, waits ``down`` seconds,
    restores their nodes, waits ``up`` seconds, and kills again; the final
    round leaves them down for normal recovery.  Victim selection matches
    ``rolling-restart``: every non-source task by default, restricted by
    ``operators`` or pinned by ``tasks`` (mutually exclusive).

    Example ``failure.params``::

        {"cycles": 3, "down": 4.0, "up": 6.0, "operators": ["O2"]}
    """
    if cycles < 1:
        raise ScenarioError(f"'flapping' needs cycles >= 1, got {cycles}")
    if down <= 0:
        raise ScenarioError(f"'flapping' down time must be > 0, got {down}")
    if up < 0:
        raise ScenarioError(f"'flapping' up time must be >= 0, got {up}")
    killed = _victims("flapping", topology, operators, tasks,
                      include_sources)
    waves: list[FailureWave] = []
    period = down + up
    for cycle in range(cycles):
        waves.append(FailureWave(cycle * period, killed))
        if cycle < cycles - 1:
            waves.append(FailureWave(cycle * period + down, (),
                                     restores=killed))
    return tuple(waves)


@FAILURE_MODELS.register("detection-jitter")
def detection_jitter(topology: Topology, plan: AbstractSet[TaskId], *,
                     seed: int, jitter: float = 3.0,
                     base: str = "correlated",
                     base_params: Mapping[str, object] | None = None
                     ) -> tuple[FailureWave, ...]:
    """Randomized per-failure detection delay over another model's kills.

    Real failure detectors do not fire on a metronome: suspicion timeouts,
    lossy heartbeats and gossip dissemination smear detection over several
    seconds (the detection-time axis of Vogel et al., arXiv:2404.06203).
    This model delegates victim selection to ``base`` (any registered
    model, with ``base_params``) and gives each victim its own detection
    delay drawn uniformly from ``[0, jitter]`` seconds — deterministic in
    the scenario seed.  Restore entries of the base schedule pass through
    unchanged.

    Example ``failure.params``::

        {"jitter": 4.0, "base": "rolling-restart",
         "base_params": {"stagger": 2.0}}
    """
    if jitter < 0:
        raise ScenarioError(
            f"'detection-jitter' jitter must be >= 0, got {jitter}"
        )
    base = str(base)
    if base == "detection-jitter":
        raise ScenarioError("'detection-jitter' cannot wrap itself")
    model = FAILURE_MODELS.get(base)
    params = dict(base_params or {})
    waves = as_waves(model(topology, plan, seed=seed, **params))
    # Offset the stream so the wrapper's draws never collide with a base
    # model that consumed the same seed (e.g. random-k).
    rng = random.Random(seed ^ 0x9E3779B9)
    jittered: list[FailureWave] = []
    for wave in waves:
        if wave.restores and not wave.tasks:
            jittered.append(wave)
            continue
        for task in wave.tasks:
            jittered.append(FailureWave(
                wave.offset, (task,),
                detect_delay=round(rng.uniform(0.0, jitter), 6),
            ))
        if wave.restores:
            jittered.append(FailureWave(wave.offset, (),
                                        restores=wave.restores))
    return tuple(jittered)


def failure_domains(specs: Iterable[object]) -> dict[str, object]:
    """The node→rack map (and task pins) that ``specs`` kill by.

    The ``placement``/``assignment`` parameters of the first
    ``rack-correlated`` spec — also when ``detection-jitter`` wraps it — for
    recovery schemes that place replicas against the same blast radius
    (:func:`repro.engine.recovery.consumes_failure_domains`).  Empty when
    no spec kills by a rack map.
    """
    for spec in specs:
        model, params = spec.model, spec.params
        if model == "detection-jitter":
            model, params = params.get("base"), params.get("base_params") or {}
        if (model in ("rack-correlated", "rack_correlated")
                and "placement" in params):
            return {key: params[key] for key in ("placement", "assignment")
                    if key in params}
    return {}


@FAILURE_MODELS.register("unreplicated")
def unreplicated(topology: Topology, plan: AbstractSet[TaskId], *, seed: int,
                 include_sources: bool = False) -> tuple[TaskId, ...]:
    """Every non-source task outside the plan fails.

    The sources are spared unless ``include_sources`` is set.  The worst
    case a plan is scored against — ``worst_case_fidelity``, the Fig. 12/13
    outage — loses *everything* outside the plan, so it needs
    ``include_sources=True``; with the default the surviving sources keep
    feeding the replicated tasks and the outage is milder than predicted.
    """
    eligible = (
        topology.tasks() if include_sources else synthetic_tasks(topology)
    )
    return tuple(t for t in eligible if t not in plan)
