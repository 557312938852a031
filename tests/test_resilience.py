"""Unit tests for the shared resilience policies (repro.resilience)."""

import random

import pytest

from repro.resilience import Deadline, ResilienceError, RetryPolicy


class FakeClock:
    """A manually advanced monotonic clock."""

    def __init__(self, now: float = 0.0):
        self.now = now

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


# ---------------------------------------------------------------------------
# RetryPolicy
# ---------------------------------------------------------------------------

class TestRetryPolicy:
    def test_unjittered_delays_are_capped_exponential(self):
        policy = RetryPolicy(max_attempts=5, base_delay=0.5, max_delay=3.0,
                             multiplier=2.0, jitter="none")
        assert list(policy.delays()) == [0.5, 1.0, 2.0, 3.0]

    def test_single_attempt_policy_never_sleeps(self):
        policy = RetryPolicy(max_attempts=1, jitter="none")
        assert list(policy.delays()) == []
        assert list(policy.attempts(sleep=lambda s: pytest.fail(
            "should not sleep"))) == [1]

    def test_full_jitter_draws_from_zero_to_backoff(self):
        policy = RetryPolicy(max_attempts=50, base_delay=1.0, max_delay=4.0,
                             jitter="full")
        rng = random.Random(7)
        delays = []
        for attempt, delay in enumerate(policy.delays(rng), start=1):
            assert 0.0 <= delay <= policy.backoff(attempt)
            delays.append(delay)
        # Same seed, same schedule: the chaos-determinism contract.
        assert delays == list(policy.delays(random.Random(7)))

    def test_attempts_respects_max_attempts(self):
        policy = RetryPolicy(max_attempts=3, base_delay=0.01, jitter="none")
        slept = []
        tries = list(policy.attempts(sleep=slept.append))
        assert tries == [1, 2, 3]
        assert slept == [0.01, 0.02]

    def test_deadline_stops_unbounded_policy(self):
        import time

        policy = RetryPolicy(max_attempts=None, base_delay=10.0,
                             jitter="none", deadline=0.05)
        slept = []

        def sleep(seconds):
            slept.append(seconds)
            time.sleep(seconds)

        started = time.monotonic()
        tries = list(policy.attempts(sleep=sleep))
        assert tries[0] == 1          # the first try is always granted
        assert len(tries) <= 2        # then the deadline cuts it off
        # Sleeps are clamped to the remaining budget, never the raw 10s.
        assert all(s <= 0.05 for s in slept)
        assert time.monotonic() - started < 5.0

    def test_call_returns_first_success(self):
        policy = RetryPolicy(max_attempts=5, base_delay=0.0, jitter="none")
        calls = []

        def flaky():
            calls.append(1)
            if len(calls) < 3:
                raise OSError("transient")
            return "ok"

        assert policy.call(flaky, retry_on=(OSError,),
                           sleep=lambda s: None) == "ok"
        assert len(calls) == 3

    def test_call_reraises_after_budget(self):
        policy = RetryPolicy(max_attempts=2, base_delay=0.0, jitter="none")
        seen = []
        with pytest.raises(OSError, match="always"):
            policy.call(lambda: (_ for _ in ()).throw(OSError("always")),
                        retry_on=(OSError,), sleep=lambda s: None,
                        on_retry=lambda attempt, exc: seen.append(attempt))
        assert seen == [1, 2]

    def test_call_does_not_swallow_unlisted_exceptions(self):
        policy = RetryPolicy(max_attempts=5, base_delay=0.0, jitter="none")

        def boom():
            raise ValueError("permanent")

        with pytest.raises(ValueError):
            policy.call(boom, retry_on=(OSError,), sleep=lambda s: None)

    @pytest.mark.parametrize("kwargs", [
        {"max_attempts": 0},
        {"max_attempts": None},                     # unbounded, no deadline
        {"base_delay": -1.0},
        {"multiplier": 0.5},
        {"jitter": "half"},
        {"deadline": 0.0},
    ])
    def test_invalid_configuration_raises(self, kwargs):
        with pytest.raises(ResilienceError):
            RetryPolicy(**kwargs)


# ---------------------------------------------------------------------------
# Deadline
# ---------------------------------------------------------------------------

class TestDeadline:
    def test_none_never_expires(self):
        deadline = Deadline(None)
        assert deadline.remaining() is None
        assert not deadline.expired
        assert deadline.clamp(42.0) == 42.0

    def test_counts_down_on_the_injected_clock(self):
        clock = FakeClock()
        deadline = Deadline(5.0, clock=clock)
        assert deadline.remaining() == 5.0
        clock.advance(3.0)
        assert deadline.remaining() == 2.0
        assert deadline.clamp(10.0) == 2.0
        assert deadline.clamp(1.0) == 1.0
        clock.advance(3.0)
        assert deadline.expired
        assert deadline.remaining() == 0.0

    def test_negative_budget_rejected(self):
        with pytest.raises(ResilienceError):
            Deadline(-1.0)
