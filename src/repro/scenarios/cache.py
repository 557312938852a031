"""Content-addressed scenario-result cache keyed on a canonical digest.

Because the engine is a deterministic discrete-event simulation, a
:class:`~repro.scenarios.spec.Scenario` fully determines its
:class:`~repro.scenarios.results.ScenarioResult`.  That makes results
content-addressable: :func:`scenario_digest` hashes the canonical JSON form
of ``Scenario.to_dict()`` (sorted keys, compact separators) with SHA-256,
and :class:`ScenarioCache` stores one result JSON document per digest so
repeated grid cells — including whole re-runs of re-anchored figures — are
never simulated twice.

The ``name`` field is deliberately excluded from the digest: two scenarios
that differ only in their label run the exact same simulation, so a renamed
grid still hits the cache.  :class:`~repro.scenarios.session.GridSession`
rewrites the label on the cached copy before handing it back.

>>> from repro.scenarios import Scenario, scenario_digest
>>> a = scenario_digest(Scenario(name="x", budget=2))
>>> b = scenario_digest(Scenario(name="y", budget=2))
>>> c = scenario_digest(Scenario(name="x", budget=3))
>>> a == b and a != c and len(a) == 64
True
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

from repro.errors import ScenarioError
from repro.scenarios.results import ScenarioResult
from repro.scenarios.spec import Scenario


@dataclass(frozen=True)
class CacheStats:
    """A point-in-time summary of a cache directory's contents."""

    directory: str
    entries: int
    total_bytes: int
    oldest_used: float | None
    newest_used: float | None

    def render(self) -> str:
        """Human-readable multi-line summary (what the CLI prints)."""
        lines = [f"cache {self.directory}",
                 f"  entries:     {self.entries}",
                 f"  disk usage:  {self.total_bytes / 1024:.1f} KiB"]
        if self.oldest_used is not None and self.newest_used is not None:
            span = self.newest_used - self.oldest_used
            lines.append(f"  last-used span: {span:.0f}s "
                         f"(oldest {time.ctime(self.oldest_used)})")
        return "\n".join(lines)


#: How old an orphaned ``*.tmp`` file must be before pruning removes it.
#: Generous relative to any single write so an in-progress writer's temp
#: file is never swept out from underneath it.
_TMP_GRACE_SECONDS = 300.0


def scenario_digest(scenario: Scenario) -> str:
    """The canonical SHA-256 hex digest of ``scenario``.

    Canonical form: ``Scenario.to_dict()`` minus the ``name`` label, dumped
    with sorted keys and compact separators, encoded as UTF-8.  Scenarios
    that would produce identical simulations therefore share a digest.
    """
    data = scenario.to_dict()
    data.pop("name", None)
    canonical = json.dumps(data, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


class ScenarioCache:
    """A directory of ``<digest>.json`` result documents.

    >>> import tempfile
    >>> from repro.scenarios import Scenario
    >>> cache = ScenarioCache(tempfile.mkdtemp())
    >>> scenario_digest(Scenario()) in cache
    False

    Entries are written atomically (temp file + rename), so concurrent grid
    runs sharing one cache directory never observe half-written documents.
    The cache is safe to hammer from many processes at once without any
    locking — the sweep service points every client's cells at one
    directory: readers only ever see complete documents (rename is atomic
    on POSIX), concurrent :meth:`put` calls for one digest are idempotent
    last-writer-wins races between identical payloads, and :meth:`prune` /
    :meth:`clear` tolerate entries vanishing underneath them.  Temp files
    orphaned by a crashed writer are swept up by the next :meth:`prune` or
    :meth:`clear` once they are clearly abandoned (older than
    :data:`_TMP_GRACE_SECONDS`).
    Invalidation is by construction: any change to the scenario — planner,
    budget, engine overrides, failure schedule, seed — changes the digest,
    so stale entries are simply never looked up again.  Delete the directory
    (or call :meth:`clear`) to reclaim disk.

    ``max_entries`` bounds the directory: a :meth:`put` that pushes the
    entry count over the limit evicts the least-recently-*used* entries
    down to ~90 % of the limit, so the directory scan amortises over many
    puts (:meth:`get` touches an entry's mtime on a hit, so hot grid cells
    stay resident while long-abandoned sweeps age out).  ``None`` (the
    default) keeps the historical grow-without-bound behaviour;
    :meth:`prune` applies a limit on demand — the ``repro-experiments
    cache prune`` subcommand.
    """

    def __init__(self, directory: str | os.PathLike, *,
                 max_entries: int | None = None):
        if max_entries is not None and max_entries < 1:
            raise ScenarioError(
                f"max_entries must be >= 1 or None, got {max_entries}"
            )
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.max_entries = max_entries
        #: Number of successful lookups served from disk.
        self.hits = 0
        #: Number of lookups that found no (readable) entry.
        self.misses = 0
        #: Number of entries evicted by LRU pruning.
        self.evictions = 0
        # Approximate entry count so a bounded cache does not re-scan the
        # whole directory on every put; refreshed by every full scan.
        self._approx_entries: int | None = None

    # ------------------------------------------------------------------
    def path_for(self, digest: str) -> Path:
        """Where the result document for ``digest`` lives."""
        return self.directory / f"{digest}.json"

    def get(self, digest: str) -> ScenarioResult | None:
        """The cached result for ``digest``, or ``None`` on a miss.

        Corrupt or unreadable entries count as misses (and are left for the
        next :meth:`put` to overwrite) rather than failing the grid run.
        """
        path = self.path_for(digest)
        try:
            text = path.read_text()
        except OSError:
            self.misses += 1
            return None
        try:
            result = ScenarioResult.from_dict(json.loads(text))
        except (ValueError, ScenarioError):
            self.misses += 1
            return None
        self.hits += 1
        try:
            os.utime(path)  # LRU touch: a hit keeps the entry young
        except OSError:  # pragma: no cover - racing pruner
            pass
        return result

    def lookup(self, scenario: Scenario) -> ScenarioResult | None:
        """Convenience: :meth:`get` keyed by the scenario itself."""
        return self.get(scenario_digest(scenario))

    def put(self, digest: str, result: ScenarioResult) -> None:
        """Store ``result`` under ``digest`` (atomic replace), then prune."""
        payload = json.dumps(result.to_dict(), sort_keys=True)
        path = self.path_for(digest)
        try:
            fd, tmp_name = tempfile.mkstemp(dir=self.directory, suffix=".tmp")
        except FileNotFoundError:
            # The directory was deleted underneath us (e.g. a test tearing
            # down a shared dir mid-run); recreate and retry once.
            self.directory.mkdir(parents=True, exist_ok=True)
            fd, tmp_name = tempfile.mkstemp(dir=self.directory, suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as handle:
                handle.write(payload)
            existed = path.exists()
            os.replace(tmp_name, path)
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise
        if self.max_entries is None:
            return
        if self._approx_entries is None:
            self._approx_entries = len(self)
        elif not existed:
            self._approx_entries += 1
        if self._approx_entries > self.max_entries:
            # Hysteresis: evict ~10% below the limit so the full directory
            # scan amortises over many puts instead of firing on every put
            # once the cache sits at capacity.
            self.prune(max(1, self.max_entries - self.max_entries // 10))

    def _entries_by_age(self) -> list[tuple[float, Path]]:
        """(mtime, path) of every entry, least recently used first."""
        entries: list[tuple[float, Path]] = []
        for path in self.directory.glob("*.json"):
            try:
                entries.append((path.stat().st_mtime, path))
            except OSError:  # pragma: no cover - racing deleter
                pass
        entries.sort(key=lambda pair: (pair[0], pair[1].name))
        return entries

    def _sweep_orphaned_tmp(self) -> None:
        """Remove temp files abandoned by crashed writers.

        Only files older than :data:`_TMP_GRACE_SECONDS` go — a live
        writer's temp file is at most one ``put()`` old.  Races with the
        writer's own cleanup (or another pruner) are benign: whoever loses
        the unlink just moves on.
        """
        cutoff = time.time() - _TMP_GRACE_SECONDS
        for path in self.directory.glob("*.tmp"):
            try:
                if path.stat().st_mtime < cutoff:
                    path.unlink()
            except OSError:  # pragma: no cover - racing writer/pruner
                pass

    def prune(self, max_entries: int | None = None) -> int:
        """Evict least-recently-used entries beyond ``max_entries``.

        Defaults to the cache's configured limit; returns how many entries
        were removed (0 when unlimited or already within bounds).  Safe to
        run concurrently with readers, writers and other pruners: it never
        holds a lock, and entries vanishing mid-scan are skipped.
        """
        limit = self.max_entries if max_entries is None else max_entries
        if limit is None:
            return 0
        if limit < 1:
            raise ScenarioError(f"max_entries must be >= 1, got {limit}")
        self._sweep_orphaned_tmp()
        entries = self._entries_by_age()
        removed = 0
        for _mtime, path in entries[:max(0, len(entries) - limit)]:
            try:
                path.unlink()
                removed += 1
            except OSError:  # pragma: no cover - racing deleter
                pass
        self.evictions += removed
        self._approx_entries = len(entries) - removed
        return removed

    def stats(self) -> CacheStats:
        """Entry count, disk usage and last-used range of the directory."""
        entries = self._entries_by_age()
        total = 0
        for _mtime, path in entries:
            try:
                total += path.stat().st_size
            except OSError:  # pragma: no cover - racing deleter
                pass
        return CacheStats(
            directory=str(self.directory),
            entries=len(entries),
            total_bytes=total,
            oldest_used=entries[0][0] if entries else None,
            newest_used=entries[-1][0] if entries else None,
        )

    def __contains__(self, digest: object) -> bool:
        return isinstance(digest, str) and self.path_for(digest).exists()

    def __len__(self) -> int:
        return sum(1 for _ in self.directory.glob("*.json"))

    def clear(self) -> int:
        """Delete every cached entry; returns how many were removed."""
        removed = 0
        self._sweep_orphaned_tmp()
        for path in self.directory.glob("*.json"):
            try:
                path.unlink()
                removed += 1
            except OSError:  # pragma: no cover - racing deleter
                pass
        self._approx_entries = 0
        return removed

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return (f"ScenarioCache({str(self.directory)!r}, entries={len(self)}, "
                f"hits={self.hits}, misses={self.misses})")
