"""Synthetic WorldCup'98-like access log for Q1 (a stand-in for the trace).

The paper replays the WorldCup'98 web-server access log (73.3M records, one
full day, replayed 48× faster).  That trace is not redistributable here, so
this generator produces an access log with the properties Q1's behaviour
depends on: Zipfian page popularity (web access logs follow Zipf with
exponent near 0.8), per-server partitioning of the raw stream, and a stable
hot set so a top-100 query has a meaningful answer.
"""

from __future__ import annotations

from repro.engine.logic import SourceFunction
from repro.engine.tuples import KeyedTuple
from repro.errors import WorkloadError
from repro.topology.operators import TaskId
from repro.workloads.zipf import batch_rng, sample_zipf, zipf_probabilities


class WorldCupAccessLog(SourceFunction):
    """Access-log source: each source task models one front-end server.

    Tuples are ``(page_key, server_index)``.  Page popularity is Zipfian,
    but each server's popularity ranking is *rotated* (``servers`` tasks
    partition the site geographically, as the real WorldCup front-ends did),
    so different servers contribute different hot pages to the global
    top-k — which is what makes losing an aggregation subtree visibly
    degrade Q1's answer.
    """

    def __init__(self, rate_per_task: float, *, pages: int = 2000,
                 servers: int = 8, zipf_s: float = 0.8,
                 batch_interval: float = 1.0, seed: int = 7):
        if rate_per_task < 0:
            raise WorkloadError(f"rate must be >= 0, got {rate_per_task}")
        if pages < 1:
            raise WorkloadError(f"pages must be >= 1, got {pages}")
        if servers < 1:
            raise WorkloadError(f"servers must be >= 1, got {servers}")
        self.rate_per_task = rate_per_task
        self.pages = pages
        self.servers = servers
        self.batch_interval = batch_interval
        self.seed = seed
        self._probabilities = zipf_probabilities(pages, zipf_s)

    def tuples_per_batch(self) -> int:
        """Number of access records each task emits per batch."""
        return round(self.rate_per_task * self.batch_interval)

    def page_for_rank(self, server_index: int, rank: int) -> int:
        """Page holding popularity ``rank`` on server ``server_index``."""
        offset = (server_index % self.servers) * self.pages // self.servers
        return (rank + offset) % self.pages

    def tuples_for_batch(self, task: TaskId, batch_index: int) -> list[KeyedTuple]:
        rng = batch_rng(self.seed, "worldcup", task, batch_index)
        picks = sample_zipf(rng, self._probabilities, self.tuples_per_batch())
        return [
            (f"page-{self.page_for_rank(task.index, int(rank)):05d}", task.index)
            for rank in picks
        ]
