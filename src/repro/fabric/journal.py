"""The one durable log under both fabrics: an fsync'd JSONL journal.

One JSON object per line; a record is appended, flushed and fsync'd
before the action it describes takes effect, so at any instant —
including a SIGKILL — the file holds what the process had committed to.
Subclasses (:class:`~repro.service.journal.SweepJournal`,
:class:`~repro.cluster.journal.LedgerJournal`) add only their record
shapes and the function that folds records back into state.

A hard kill mid-write leaves a torn, newline-less tail: :meth:`Journal.scan`
skips (and counts) any line that does not decode or fold, and the first
:meth:`Journal.append` of the next life fences such a tail off with a
newline, so the record it writes is never glued onto the fragment.

>>> import tempfile
>>> journal = Journal(tempfile.mkdtemp() + "/demo.jsonl")
>>> journal.append({"event": "queued", "id": 1})
>>> journal.close()
>>> with open(journal.path, "a") as torn:
...     _ = torn.write('{"event": "que')        # SIGKILL mid-write
>>> journal.append({"event": "queued", "id": 2})
>>> journal.close()
>>> seen = []
>>> journal.scan(lambda record: seen.append(record["id"]))
>>> seen, journal.corrupt_records
([1, 2], 1)
"""

from __future__ import annotations

import json
import os
import tempfile
import threading
from pathlib import Path
from typing import IO, Callable, Iterable, Mapping

from repro.errors import ReproError


def _dump(record: Mapping) -> str:
    return json.dumps(record, separators=(",", ":")) + "\n"


def _sync(handle: IO[str]) -> None:
    handle.flush()
    os.fsync(handle.fileno())


class Journal:
    """An append-only JSONL file with crash-safe writes and tolerant replay."""

    #: Raised when :meth:`scan` runs after a write; each fabric's journal
    #: sets its own error type.
    error: type[ReproError] = ReproError

    def __init__(self, path: str | os.PathLike):
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        # Re-entrant so a subclass can make two calls one atomic step
        # (reset + append, scan + rewrite).
        self._lock = threading.RLock()
        self._handle: IO[str] | None = None
        #: Torn/unparsable lines skipped by the last :meth:`scan`.
        self.corrupt_records = 0

    def _open(self) -> IO[str]:
        torn = False
        try:
            with open(self.path, "rb") as existing:
                existing.seek(-1, os.SEEK_END)
                torn = existing.read(1) != b"\n"
        except OSError:
            pass  # missing or empty: no tail to fence off
        handle = open(self.path, "a", encoding="utf-8")
        if torn:
            handle.write("\n")
        return handle

    def append(self, record: Mapping) -> None:
        """Write one record; it is on disk when this returns."""
        line = _dump(record)
        with self._lock:
            if self._handle is None:
                self._handle = self._open()
            self._handle.write(line)
            _sync(self._handle)

    def scan(self, fold: Callable[[dict], None]) -> None:
        """Feed every intact record, in file order, to ``fold``.

        A line that is not JSON, or that ``fold`` rejects with a decode
        or shape error (``ValueError``, ``KeyError``, ``TypeError`` or a
        :class:`~repro.errors.ReproError`), is skipped and counted; any
        other exception is a bug in ``fold`` and propagates.  A missing
        file scans as empty.
        """
        with self._lock:
            if self._handle is not None:
                raise self.error(
                    "the journal must be replayed before it is written to"
                )
            self.corrupt_records = 0
            try:
                text = self.path.read_text(encoding="utf-8",
                                           errors="replace")
            except FileNotFoundError:
                return
            for line in text.splitlines():
                if not line.strip():
                    continue
                try:
                    fold(json.loads(line))
                except (ValueError, KeyError, TypeError, ReproError):
                    self.corrupt_records += 1

    def rewrite(self, records: Iterable[Mapping]) -> None:
        """Atomically replace the file's contents with ``records``."""
        with self._lock:
            self.close()
            fd, tmp_name = tempfile.mkstemp(dir=self.path.parent,
                                            suffix=".journal.tmp")
            try:
                with os.fdopen(fd, "w", encoding="utf-8") as handle:
                    for record in records:
                        handle.write(_dump(record))
                    _sync(handle)
                os.replace(tmp_name, self.path)
            except BaseException:
                try:
                    os.unlink(tmp_name)
                except OSError:
                    pass
                raise

    def reset(self) -> None:
        """Truncate in place: no debt left."""
        with self._lock:
            self.close()
            with open(self.path, "w", encoding="utf-8") as handle:
                _sync(handle)

    def close(self) -> None:
        with self._lock:
            if self._handle is not None:
                self._handle.close()
                self._handle = None

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return f"{type(self).__name__}({str(self.path)!r})"
