"""Engine configuration: virtual-time cost model and protocol intervals.

The simulator substitutes the paper's 36-node EC2 cluster (see DESIGN.md §2).
All durations are in *virtual seconds*; the defaults are calibrated so that
the absolute recovery latencies land in the paper's ballpark (single-digit
seconds for active replicas, tens of seconds for checkpoint restores at high
rates), while the *shapes* — scaling with input rate, checkpoint interval,
window length and topology depth — follow from the protocol itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

from repro.errors import SimulationError


@dataclass(frozen=True)
class CostModel:
    """Per-operation virtual CPU / network costs.

    Utilisation must stay below 1 for recovery to converge: with the default
    50 µs per tuple, a task receiving 2 000 tuples/s is 10 % utilised and can
    catch up on backlog at roughly 10× the arrival rate.

    Every cost must be a finite number >= 0; the error names the field:

    >>> CostModel(restart_delay=float("nan"))
    Traceback (most recent call last):
        ...
    repro.errors.SimulationError: cost restart_delay must be >= 0 and finite, got nan
    """

    #: CPU seconds to process one input tuple.
    per_tuple_process: float = 50e-6
    #: CPU seconds to serialise one tuple of state into a checkpoint.
    per_tuple_serialize: float = 6e-6
    #: Fixed CPU seconds per checkpoint (metadata, coordination).
    checkpoint_fixed: float = 0.01
    #: CPU seconds to load one tuple of state from a checkpoint.
    per_tuple_load: float = 3e-6
    #: Seconds to resend one buffered tuple during replay or replica takeover.
    per_tuple_resend: float = 4e-6
    #: One-way network latency per batch hop.
    network_delay: float = 0.02
    #: Seconds to launch a task process on a standby node.
    restart_delay: float = 2.0
    #: Fixed seconds for an active replica to take over its failed primary.
    takeover_fixed: float = 0.5

    def __post_init__(self) -> None:
        for name in (
            "per_tuple_process", "per_tuple_serialize", "checkpoint_fixed",
            "per_tuple_load", "per_tuple_resend", "network_delay",
            "restart_delay", "takeover_fixed",
        ):
            value = getattr(self, name)
            if not 0 <= value < math.inf:  # also rejects NaN
                raise SimulationError(
                    f"cost {name} must be >= 0 and finite, got {value}")


@dataclass(frozen=True)
class EngineConfig:
    """Protocol intervals and feature switches of one engine run."""

    #: Stream time covered by one batch (the paper's batch processing unit).
    batch_interval: float = 1.0
    #: Master heartbeat period; failures are detected at the next beat
    #: (5 seconds in the paper's experiments).
    heartbeat_interval: float = 5.0
    #: Checkpoint period; ``None`` disables checkpoints entirely.
    checkpoint_interval: float | None = 15.0
    #: Period at which a primary lets its active replica trim its output
    #: buffer (the "Active-5s" / "Active-30s" knob of Fig. 7/8).
    sync_interval: float = 5.0
    #: Forge batch-over punctuations for failed tasks so downstream tasks
    #: keep producing (tentative) output during recovery.
    tentative_outputs: bool = False
    #: Master attempts to recover failed tasks. Disable to measure tentative
    #: output quality over an indefinite outage (Fig. 12/13).
    recovery_enabled: bool = True
    #: Stagger checkpoints across tasks (checkpoints are asynchronous in a
    #: real cluster, which is what forces recovery synchronisation).
    stagger_checkpoints: bool = True
    #: Fault-tolerance scheme: any name registered in
    #: :data:`~repro.engine.recovery.RECOVERY_SCHEMES` (built-in or custom);
    #: the default ``"ppa"`` is the paper's partially-active replication.
    recovery_scheme: str = "ppa"
    #: Keyword arguments for the scheme factory (e.g. ``{"fidelity_bound":
    #: 0.2}`` for ``approximate-ft``).  Empty for the built-in defaults, and
    #: omitted from scenario serialization when empty so existing digests
    #: are unchanged.
    recovery_params: dict = field(default_factory=dict)
    #: Cost model.
    costs: CostModel = field(default_factory=CostModel)
    #: Seed for any randomised choice (kept for reproducibility; the engine
    #: itself is fully deterministic).
    seed: int = 0

    def __post_init__(self) -> None:
        for name in ("batch_interval", "heartbeat_interval",
                     "checkpoint_interval", "sync_interval"):
            value = getattr(self, name)
            if name == "checkpoint_interval" and value is None:
                continue
            if not value > 0 or value == math.inf:  # also rejects NaN
                raise SimulationError(
                    f"{name} must be positive and finite, got {value}")
        if not self.recovery_scheme or not isinstance(self.recovery_scheme, str):
            raise SimulationError("recovery_scheme must be a non-empty string")

    # The two periods below are read once per simulated batch; computed on
    # first read and then served from the instance dict (the config is
    # frozen, so they can never go stale).
    @cached_property
    def checkpoint_batches(self) -> int | None:
        """Checkpoint period expressed in whole batches (rounded up)."""
        if self.checkpoint_interval is None:
            return None
        return max(1, round(self.checkpoint_interval / self.batch_interval))

    @cached_property
    def sync_batches(self) -> int:
        """Replica trim period in whole batches (rounded up)."""
        return max(1, round(self.sync_interval / self.batch_interval))
