"""Generic synthetic sources for the recovery-efficiency experiments.

Sec. VI-A uses source tasks that produce tuples at a fixed rate (1000 or
2000 tuples/s).  :class:`UniformRateSource` does exactly that, with keys
drawn round-robin from a bounded key space so routing spreads evenly.

Both sources return a batch as a :class:`~repro.engine.tuples.KeyCycleRun`:
a zero-copy, range-backed sequence that holds only the key cycle, the owner
task, the first tuple id and the count.  It flows through the engine's
shared ``Batch.tuples`` contract (source memo, output history, inboxes,
window blocks) without being built.  A periodic selectivity filter keeps a
strided run of it, so on the Fig. 6 merge chain tuples become objects only
where they leave the engine: at the sink and in hash-partitioned buckets.
``tests/test_properties.py`` holds each run to the full key-cycle list it
stands for.
"""

from __future__ import annotations

import abc

from repro.engine.logic import SourceFunction
from repro.engine.tuples import KeyCycleRun
from repro.errors import WorkloadError
from repro.topology.operators import TaskId


class _KeyCycleSource(SourceFunction):
    """Batch layout shared by the synthetic sources.

    Each task numbers its tuples ``0, 1, 2, …`` across batches and keys
    tuple ``n`` with ``k{n % key_space}``; a subclass only says where each
    batch's ids start and how many there are (:meth:`_span`).
    """

    def __init__(self, batch_interval: float, key_space: int):
        if not batch_interval > 0:
            raise WorkloadError(
                f"batch_interval must be > 0, got {batch_interval}"
            )
        if key_space < 1:
            raise WorkloadError(f"key_space must be >= 1, got {key_space}")
        self.batch_interval = batch_interval
        self.key_space = key_space
        # The round-robin key strings, interned once instead of per tuple.
        self._keys = tuple(f"k{j}" for j in range(key_space))

    @abc.abstractmethod
    def _span(self, batch_index: int) -> tuple[int, int]:
        """``(first tuple id, tuple count)`` of batch ``batch_index``."""

    def tuples_for_batch(self, task: TaskId, batch_index: int) -> KeyCycleRun:
        base, count = self._span(batch_index)
        return KeyCycleRun(self._keys, task.index, base, count)


class UniformRateSource(_KeyCycleSource):
    """Emits ``rate × batch_interval`` tuples per batch per task."""

    def __init__(self, rate_per_task: float, batch_interval: float = 1.0,
                 key_space: int = 64):
        if rate_per_task < 0:
            raise WorkloadError(f"rate must be >= 0, got {rate_per_task}")
        super().__init__(batch_interval, key_space)
        self.rate_per_task = rate_per_task

    def tuples_per_batch(self) -> int:
        """Number of tuples each task emits per batch."""
        return round(self.rate_per_task * self.batch_interval)

    def _span(self, batch_index: int) -> tuple[int, int]:
        count = self.tuples_per_batch()
        return batch_index * count, count


class SquareWaveSource(_KeyCycleSource):
    """A square-wave rate profile: bursts at ``high_rate``, troughs at ``low_rate``.

    Each period of ``period_batches`` batches spends the first
    ``round(duty × period)`` batches (at least one, at most ``period - 1``)
    at the high rate and the rest at the low rate.  Tuple identities are a
    deterministic function of the batch index alone, so replays and
    recovered incarnations regenerate identical batches — the engine's
    source-determinism contract.
    """

    def __init__(self, high_rate: float, low_rate: float,
                 period_batches: int = 20, duty: float = 0.5,
                 batch_interval: float = 1.0, key_space: int = 64):
        if high_rate < 0 or low_rate < 0:
            raise WorkloadError(
                f"rates must be >= 0, got high={high_rate}, low={low_rate}"
            )
        if period_batches < 2:
            raise WorkloadError(
                f"period_batches must be >= 2, got {period_batches}"
            )
        if not 0.0 < duty < 1.0:
            raise WorkloadError(f"duty must be in (0, 1), got {duty}")
        super().__init__(batch_interval, key_space)
        self.high_rate = high_rate
        self.low_rate = low_rate
        self.period_batches = period_batches
        self.duty = duty
        self.high_batches = min(period_batches - 1,
                                max(1, round(duty * period_batches)))
        high_count = round(high_rate * batch_interval)
        low_count = round(low_rate * batch_interval)
        self._counts = tuple(
            high_count if phase < self.high_batches else low_count
            for phase in range(period_batches)
        )
        # Prefix sums over one period give each batch a stable tuple-id base.
        self._offsets = [0]
        for count in self._counts:
            self._offsets.append(self._offsets[-1] + count)

    def is_burst(self, batch_index: int) -> bool:
        """Whether ``batch_index`` falls in the high (burst) phase."""
        return batch_index % self.period_batches < self.high_batches

    def mean_rate(self) -> float:
        """The long-run average tuple rate of the profile."""
        return self._offsets[-1] / (self.period_batches * self.batch_interval)

    def _span(self, batch_index: int) -> tuple[int, int]:
        periods, phase = divmod(batch_index, self.period_batches)
        base = periods * self._offsets[-1] + self._offsets[phase]
        return base, self._counts[phase]
