"""Declarative chaos schedules: what to break, when, and how often.

A :class:`ChaosSchedule` is to the chaos harness what a
:class:`~repro.scenarios.spec.Scenario` is to the engine: a frozen,
JSON-round-trippable value object.  Scheduling is *declarative* — a
schedule says "kill fleet slot 1 at t=0.5s, crash the coordinator at
t=1.2s, delay 30% of wire messages by 50ms" — and the
:class:`~repro.chaos.inject.ChaosController` executes it against a live
backend.  Because the schedule (not the harness) carries every knob, a
chaos run is reproducible from a single JSON document plus the grid it
ran against.

>>> schedule = ChaosSchedule(seed=7, events=(ChaosEvent(0.5, "kill", 1),),
...                          delay_ms=50.0, delay_fraction=0.3)
>>> ChaosSchedule.from_dict(schedule.to_dict()) == schedule
True
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Any, Mapping

from repro.errors import ReproError


class ChaosError(ReproError):
    """A malformed chaos schedule or a harness misuse."""


#: The process-level actions a :class:`ChaosEvent` may request.
ACTIONS = ("kill", "pause", "resume", "crash")


@dataclass(frozen=True)
class ChaosEvent:
    """One scheduled process fault.

    ``at`` is seconds after the controller starts; ``action`` is one of
    :data:`ACTIONS`; ``slot`` addresses a fleet worker (spawn order in
    the backend's local fleet) and is ignored by ``crash``,
    which SIGKILL-restarts the coordinator on its journal instead.
    """

    at: float
    action: str
    slot: int = 0

    def __post_init__(self) -> None:
        if self.at < 0:
            raise ChaosError(f"event time must be >= 0, got {self.at}")
        if self.action not in ACTIONS:
            raise ChaosError(
                f"unknown chaos action {self.action!r} "
                f"(known: {', '.join(ACTIONS)})"
            )
        if self.slot < 0:
            raise ChaosError(f"slot must be >= 0, got {self.slot}")

    def to_dict(self) -> dict[str, Any]:
        return {"at": self.at, "action": self.action, "slot": self.slot}

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ChaosEvent":
        try:
            return cls(at=float(data["at"]), action=str(data["action"]),
                       slot=int(data.get("slot", 0)))
        except (KeyError, TypeError, ValueError) as exc:
            raise ChaosError(f"bad chaos event {data!r}: {exc}") from None


def _fraction(name: str, value: float) -> float:
    if not 0.0 <= value <= 1.0:
        raise ChaosError(f"{name} must be in [0, 1], got {value}")
    return value


@dataclass(frozen=True)
class ChaosSchedule:
    """The full fault plan for one chaos run.

    Wire faults apply to the fault-eligible cluster messages (outbound
    ``cell`` leases and inbound ``result`` reports); each message's fate
    is a pure function of ``(seed, fault kind, message identity)``, so
    the same seed injects the same faults whatever the thread timing.

    * ``delay_ms`` / ``delay_fraction`` — sleep ``delay_ms`` before
      delivering that fraction of messages (``delay_fraction`` defaults
      to every message when ``delay_ms`` is set alone).
    * ``drop_fraction`` — swallow that fraction of *outbound leases*.
      Results are never dropped (a re-leased cell gets a fresh decision;
      a dropped result for the same lease would be dropped forever).
      Dropped leases need a lease timeout to requeue — the harness
      refuses drops without one.
    * ``duplicate_fraction`` — deliver that fraction twice; the ledger's
      first-completion-wins contract must make this invisible.
    * ``slow_runner_ms`` / ``fail_fraction`` — in-worker runner faults
      (see :func:`~repro.chaos.inject.chaos_runner`): sleep per cell,
      and deterministically raise for that fraction of scenarios.
    """

    seed: int = 0
    events: tuple[ChaosEvent, ...] = ()
    delay_ms: float = 0.0
    delay_fraction: float = 0.0
    drop_fraction: float = 0.0
    duplicate_fraction: float = 0.0
    slow_runner_ms: float = 0.0
    fail_fraction: float = 0.0

    def __post_init__(self) -> None:
        events = tuple(self.events)
        for event in events:
            if not isinstance(event, ChaosEvent):
                raise ChaosError(
                    f"events must be ChaosEvent instances, got {event!r}"
                )
        object.__setattr__(self, "events", events)
        if self.delay_ms < 0:
            raise ChaosError(f"delay_ms must be >= 0, got {self.delay_ms}")
        if self.slow_runner_ms < 0:
            raise ChaosError(
                f"slow_runner_ms must be >= 0, got {self.slow_runner_ms}"
            )
        _fraction("delay_fraction", self.delay_fraction)
        _fraction("drop_fraction", self.drop_fraction)
        _fraction("duplicate_fraction", self.duplicate_fraction)
        _fraction("fail_fraction", self.fail_fraction)

    # -- derived ---------------------------------------------------------
    @property
    def effective_delay_fraction(self) -> float:
        """``delay_fraction``, defaulting to 1.0 when only a delay is set."""
        if self.delay_ms > 0 and self.delay_fraction == 0.0:
            return 1.0
        return self.delay_fraction

    def crashes(self) -> int:
        """How many coordinator ``crash`` events the schedule carries."""
        return sum(1 for e in self.events if e.action == "crash")

    # -- serialization ---------------------------------------------------
    def to_dict(self) -> dict[str, Any]:
        data: dict[str, Any] = {
            f.name: getattr(self, f.name) for f in fields(self)
            if f.name != "events"
        }
        data["events"] = [event.to_dict() for event in self.events]
        return data

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ChaosSchedule":
        if not isinstance(data, Mapping):
            raise ChaosError(
                f"a chaos schedule must be an object, got "
                f"{type(data).__name__}"
            )
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ChaosError(
                f"unknown chaos schedule fields: {sorted(unknown)} "
                f"(known: {sorted(known)})"
            )
        kwargs = dict(data)
        kwargs["events"] = tuple(
            ChaosEvent.from_dict(e) for e in data.get("events", ())
        )
        try:
            return cls(**kwargs)
        except TypeError as exc:
            raise ChaosError(f"bad chaos schedule: {exc}") from None
