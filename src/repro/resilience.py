"""Shared resilience policies: retries and deadlines.

Every self-healing component of the execution fabric speaks the same
two idioms, so they live in one dependency-free module instead of
being re-derived ad hoc at each call site:

* :class:`RetryPolicy` — bounded exponential backoff with *full jitter*
  (each delay is drawn uniformly from ``[0, min(cap, base·mult^n)]``,
  the AWS-recommended variant that de-correlates retry storms after a
  correlated failure — exactly the failure shape this paper models).
  Used by :class:`~repro.cluster.worker.ClusterWorkerAgent` to
  reconnect to a restarted coordinator and by
  :class:`~repro.service.client.SweepClient` for transient
  connect/submit retries.
* :class:`Deadline` — a monotonic-clock budget that composes with
  retries (``RetryPolicy.deadline``) and with blocking waits
  (:meth:`Deadline.clamp`); ``Deadline(None)`` never expires, so call
  sites need no ``if timeout is not None`` forests.

Determinism: the jittered delays draw from a caller-suppliable
``random.Random``, so chaos tests can pin a seed and replay the exact
same schedule.

>>> from repro.resilience import RetryPolicy
>>> policy = RetryPolicy(max_attempts=3, base_delay=1.0, jitter="none")
>>> list(policy.delays())
[1.0, 2.0]
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from typing import Any, Callable, Iterator

from repro.errors import ReproError


class ResilienceError(ReproError):
    """A resilience policy was configured with invalid parameters."""


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded exponential backoff with optional full jitter.

    ``max_attempts`` counts *total* tries (1 = no retries).  Delay ``n``
    (between try ``n`` and ``n+1``) is ``min(max_delay,
    base_delay * multiplier**n)``, jittered to ``uniform(0, that)`` when
    ``jitter="full"``.  ``deadline`` caps the whole dance in seconds:
    once it is spent, no further attempts are yielded even if
    ``max_attempts`` remain — and it doubles as an "attempts unlimited,
    time bounded" mode via ``max_attempts=None``.
    """

    max_attempts: int | None = 5
    base_delay: float = 0.05
    max_delay: float = 2.0
    multiplier: float = 2.0
    jitter: str = "full"          #: "full" | "none"
    deadline: float | None = None

    def __post_init__(self) -> None:
        if self.max_attempts is not None and self.max_attempts < 1:
            raise ResilienceError(
                f"max_attempts must be >= 1 or None, got {self.max_attempts}"
            )
        if self.max_attempts is None and self.deadline is None:
            raise ResilienceError(
                "an unbounded RetryPolicy needs a deadline "
                "(max_attempts=None requires deadline=...)"
            )
        if self.base_delay < 0 or self.max_delay < 0:
            raise ResilienceError(
                f"delays must be >= 0, got base={self.base_delay} "
                f"max={self.max_delay}"
            )
        if self.multiplier < 1.0:
            raise ResilienceError(
                f"multiplier must be >= 1, got {self.multiplier}"
            )
        if self.jitter not in ("full", "none"):
            raise ResilienceError(
                f"jitter must be 'full' or 'none', got {self.jitter!r}"
            )
        if self.deadline is not None and self.deadline <= 0:
            raise ResilienceError(
                f"deadline must be > 0, got {self.deadline}"
            )

    # ------------------------------------------------------------------
    def backoff(self, attempt: int) -> float:
        """The un-jittered delay after try number ``attempt`` (1-based)."""
        return min(self.max_delay,
                   self.base_delay * self.multiplier ** (attempt - 1))

    def delays(self, rng: random.Random | None = None) -> Iterator[float]:
        """The (possibly jittered) sleep before each retry, in order."""
        attempt = 1
        while self.max_attempts is None or attempt < self.max_attempts:
            delay = self.backoff(attempt)
            if self.jitter == "full":
                delay = (rng or random).uniform(0.0, delay)
            yield delay
            attempt += 1

    def attempts(self, rng: random.Random | None = None, *,
                 sleep: Callable[[float], None] = time.sleep) \
            -> Iterator[int]:
        """Yield try numbers ``1, 2, ...``, sleeping the backoff between.

        Stops after ``max_attempts`` tries or when ``deadline`` runs out
        — whichever comes first.  The idiomatic retry loop::

            for attempt in policy.attempts():
                try:
                    return connect()
                except OSError as exc:
                    last = exc
            raise last
        """
        deadline = Deadline(self.deadline)
        yield 1
        for attempt, delay in enumerate(self.delays(rng), start=2):
            remaining = deadline.remaining()
            if remaining is not None:
                if remaining <= 0:
                    return
                delay = min(delay, remaining)
            if delay > 0:
                sleep(delay)
            if deadline.expired:
                return
            yield attempt

    def call(self, fn: Callable[[], Any], *,
             retry_on: tuple[type[BaseException], ...] = (Exception,),
             rng: random.Random | None = None,
             sleep: Callable[[float], None] = time.sleep,
             on_retry: Callable[[int, BaseException], None] | None = None) \
            -> Any:
        """Run ``fn`` under this policy; re-raises the last failure."""
        last: BaseException | None = None
        for attempt in self.attempts(rng, sleep=sleep):
            try:
                return fn()
            except retry_on as exc:
                last = exc
                if on_retry is not None:
                    on_retry(attempt, exc)
        assert last is not None
        raise last


class Deadline:
    """A monotonic time budget; ``Deadline(None)`` never expires."""

    def __init__(self, seconds: float | None,
                 clock: Callable[[], float] = time.monotonic):
        if seconds is not None and seconds < 0:
            raise ResilienceError(f"deadline must be >= 0, got {seconds}")
        self._clock = clock
        self.seconds = seconds
        self._expires = None if seconds is None else clock() + seconds

    def remaining(self) -> float | None:
        """Seconds left (clamped at 0.0), or ``None`` for no deadline."""
        if self._expires is None:
            return None
        return max(0.0, self._expires - self._clock())

    @property
    def expired(self) -> bool:
        remaining = self.remaining()
        return remaining is not None and remaining <= 0.0

    def clamp(self, timeout: float) -> float:
        """``timeout`` shortened to what the deadline still allows."""
        remaining = self.remaining()
        return timeout if remaining is None else min(timeout, remaining)

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return f"Deadline(seconds={self.seconds}, remaining={self.remaining()})"
