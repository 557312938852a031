"""Result sinks: incremental, resumable delivery of grid outcomes.

A :class:`ResultSink` receives every grid cell's outcome — a
:class:`~repro.scenarios.results.ScenarioResult` or a structured
:class:`~repro.scenarios.backends.CellError` — one at a time and in input
order, so a million-cell grid never materialises one giant in-memory list.
Three sinks ship in the :data:`RESULT_SINKS` registry:

* ``"memory"`` — collects outcomes in a list (the default, and the old
  ``run_grid`` behaviour);
* ``"jsonl"`` — appends one canonical JSON object per line; the same grid
  produces byte-identical files whatever the execution backend;
* ``"sqlite"`` — one row per cell in a ``results`` table, queryable with
  plain SQL.

File-backed sinks support *resume*: :meth:`ResultSink.start` with
``resume=True`` reports the digests of cells already persisted so
:class:`~repro.scenarios.session.GridSession` can skip them, and new rows
are appended instead of truncating.  Error rows are never treated as done —
a resumed run retries them.
"""

from __future__ import annotations

import json
import os
import sqlite3
from pathlib import Path
from typing import Any, Iterable

from repro.errors import ScenarioError
from repro.scenarios.backends import CellError
from repro.registry import Registry
from repro.scenarios.results import ScenarioResult


def _row_for(index: int, digest: str, outcome: object) -> dict[str, Any]:
    """The canonical JSON-native row for one outcome."""
    if isinstance(outcome, ScenarioResult):
        return {"index": index, "digest": digest, "result": outcome.to_dict()}
    if isinstance(outcome, CellError):
        return {"index": index, "digest": digest, "error": outcome.to_dict()}
    raise ScenarioError(
        f"sinks accept ScenarioResult or CellError, got {type(outcome).__name__}"
    )


def _outcome_from_row(row: Any, *, where: str) -> tuple[int, str, object]:
    """Parse one persisted row back into ``(index, digest, outcome)``."""
    if not isinstance(row, dict) or "digest" not in row:
        raise ScenarioError(f"{where}: malformed result row {row!r}")
    index = int(row.get("index", -1))
    digest = str(row["digest"])
    if "result" in row:
        return index, digest, ScenarioResult.from_dict(row["result"])
    if "error" in row:
        return index, digest, CellError.from_dict(row["error"])
    raise ScenarioError(f"{where}: row has neither 'result' nor 'error'")


def _dedupe_outcomes(rows: "list[tuple[str, object]]") -> list[object]:
    """Keep the latest row per cell, in the order the cells last appeared.

    A cell's identity is ``(digest, scenario label)`` — NOT its positional
    index, which shifts when a grid is edited between resumed runs.  Label
    is part of the key so deduplicated copies of one simulation (same
    digest, different names) all survive a reload; the digest part makes a
    successful retry shadow the error row it replaces.
    """
    latest: dict[tuple[str, str], int] = {}
    outcomes: list[object | None] = []
    for digest, outcome in rows:
        key = (digest, outcome.scenario.name)
        if key in latest:
            outcomes[latest[key]] = None  # superseded by the later row
        latest[key] = len(outcomes)
        outcomes.append(outcome)
    return [o for o in outcomes if o is not None]


class ResultSink:
    """Receives grid outcomes incrementally, in input order.

    Lifecycle: :class:`~repro.scenarios.session.GridSession` calls
    :meth:`start` once (returning what is already persisted, for resume),
    then :meth:`write` per cell in input order, then :meth:`finish` in a
    ``finally`` block.  Sinks are also context managers wrapping the same
    calls for standalone use.
    """

    #: Registry key (also used by the CLI's ``--output`` extension mapping).
    name = "?"

    def start(self, *, resume: bool = False) -> dict[str, object]:
        """Prepare for writing; returns ``{digest: outcome}`` already stored.

        With ``resume=False`` any previous contents are discarded and the
        mapping is empty.  Only successful results count as persisted —
        error rows are omitted so resumed runs retry them.
        """
        return {}

    def write(self, index: int, digest: str, outcome: object) -> None:
        """Persist one cell outcome (called in input order)."""
        raise NotImplementedError

    def finish(self) -> None:
        """Flush and release resources (safe to call more than once)."""

    def __enter__(self) -> "ResultSink":
        self.start()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.finish()

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return f"{type(self).__name__}()"


class MemorySink(ResultSink):
    """Collects outcomes into :attr:`outcomes` (the default sink)."""

    name = "memory"

    def __init__(self) -> None:
        #: Every outcome written, in input order.
        self.outcomes: list[object] = []

    def start(self, *, resume: bool = False) -> dict[str, object]:
        """Reset the collected list; memory sinks never persist, so resume
        has nothing to report."""
        self.outcomes = []
        return {}

    def write(self, index: int, digest: str, outcome: object) -> None:
        """Append the outcome."""
        self.outcomes.append(outcome)

    @property
    def results(self) -> list[ScenarioResult]:
        """Only the successful results, in input order."""
        return [o for o in self.outcomes if isinstance(o, ScenarioResult)]

    @property
    def errors(self) -> list[CellError]:
        """Only the failed cells, in input order."""
        return [o for o in self.outcomes if isinstance(o, CellError)]


class JsonlSink(ResultSink):
    """One canonical JSON object per line, appended as cells complete.

    Rows are ``{"index": i, "digest": sha256, "result": {...}}`` (or
    ``"error"`` for failed cells), dumped with sorted keys — so two runs of
    the same grid produce byte-identical files regardless of backend.
    """

    name = "jsonl"

    def __init__(self, path: str | os.PathLike):
        self.path = Path(path)
        self._handle: Any = None

    def start(self, *, resume: bool = False) -> dict[str, object]:
        """Open the file (truncate, or append when resuming)."""
        persisted: dict[str, object] = {}
        if resume and self.path.exists():
            for _index, digest, outcome in self.load_rows(self.path):
                if isinstance(outcome, ScenarioResult):
                    persisted[digest] = outcome
            self._handle = self.path.open("a")
        else:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._handle = self.path.open("w")
        return persisted

    def write(self, index: int, digest: str, outcome: object) -> None:
        """Append one row and flush, so crashes lose at most one cell."""
        if self._handle is None:  # pragma: no cover - misuse guard
            raise ScenarioError("JsonlSink.write() before start()")
        row = _row_for(index, digest, outcome)
        self._handle.write(json.dumps(row, sort_keys=True) + "\n")
        self._handle.flush()

    def finish(self) -> None:
        """Close the file."""
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    @staticmethod
    def load_rows(path: str | os.PathLike) -> Iterable[tuple[int, str, object]]:
        """Yield ``(index, digest, outcome)`` per line of a JSONL file."""
        with Path(path).open() as handle:
            for lineno, line in enumerate(handle, start=1):
                line = line.strip()
                if not line:
                    continue
                try:
                    row = json.loads(line)
                except json.JSONDecodeError as exc:
                    raise ScenarioError(
                        f"{path}:{lineno}: not valid JSON: {exc}"
                    ) from None
                yield _outcome_from_row(row, where=f"{path}:{lineno}")

    @classmethod
    def load(cls, path: str | os.PathLike) -> list[object]:
        """Reload a file's outcomes (latest row wins per cell).

        A resumed file can hold an error row and, later, the successful
        retry for the same cell; :func:`_dedupe_outcomes` keeps the latest.
        """
        return _dedupe_outcomes([(digest, outcome) for _index, digest, outcome
                                 in cls.load_rows(path)])

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return f"JsonlSink({str(self.path)!r})"


class SqliteSink(ResultSink):
    """One row per cell in a ``results`` table of a SQLite database.

    Schema: ``results(idx INTEGER, digest TEXT, name TEXT, status TEXT,
    payload TEXT)`` where ``status`` is ``"result"`` or the error kind and
    ``payload`` is the canonical JSON document.  Rows are append-only —
    ``idx`` is informative, not an identity, because positional indices
    shift when a grid is edited between resumed runs; :meth:`load`
    deduplicates by ``(digest, name)``, latest row winning, so a
    successful retry shadows the error row it replaces.
    """

    name = "sqlite"

    _SCHEMA = ("CREATE TABLE IF NOT EXISTS results ("
               "idx INTEGER NOT NULL, digest TEXT NOT NULL, "
               "name TEXT NOT NULL, status TEXT NOT NULL, "
               "payload TEXT NOT NULL)")

    def __init__(self, path: str | os.PathLike):
        self.path = Path(path)
        self._conn: sqlite3.Connection | None = None

    def start(self, *, resume: bool = False) -> dict[str, object]:
        """Create/open the database (cleared unless resuming)."""
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._conn = sqlite3.connect(self.path)
        self._conn.execute(self._SCHEMA)
        persisted: dict[str, object] = {}
        if resume:
            rows = self._conn.execute(
                "SELECT digest, payload FROM results WHERE status = 'result'"
            ).fetchall()
            for digest, payload in rows:
                persisted[digest] = ScenarioResult.from_dict(json.loads(payload))
        else:
            self._conn.execute("DELETE FROM results")
        self._conn.commit()
        return persisted

    def write(self, index: int, digest: str, outcome: object) -> None:
        """Upsert one cell row and commit."""
        if self._conn is None:  # pragma: no cover - misuse guard
            raise ScenarioError("SqliteSink.write() before start()")
        if isinstance(outcome, ScenarioResult):
            status, name = "result", outcome.scenario.name
            payload = json.dumps(outcome.to_dict(), sort_keys=True)
        elif isinstance(outcome, CellError):
            status, name = outcome.kind, outcome.scenario.name
            payload = json.dumps(outcome.to_dict(), sort_keys=True)
        else:
            raise ScenarioError(
                f"sinks accept ScenarioResult or CellError, got "
                f"{type(outcome).__name__}"
            )
        self._conn.execute(
            "INSERT INTO results (idx, digest, name, status, payload) "
            "VALUES (?, ?, ?, ?, ?)", (index, digest, name, status, payload))
        self._conn.commit()

    def finish(self) -> None:
        """Commit and close the connection."""
        if self._conn is not None:
            self._conn.commit()
            self._conn.close()
            self._conn = None

    @classmethod
    def load(cls, path: str | os.PathLike) -> list[object]:
        """Reload a database's outcomes (latest row wins per cell)."""
        conn = sqlite3.connect(path)
        try:
            rows = conn.execute(
                "SELECT digest, status, payload FROM results ORDER BY rowid"
            ).fetchall()
        finally:
            conn.close()
        parsed: list[tuple[str, object]] = []
        for digest, status, payload in rows:
            data = json.loads(payload)
            if status == "result":
                parsed.append((digest, ScenarioResult.from_dict(data)))
            else:
                parsed.append((digest, CellError.from_dict(data)))
        return _dedupe_outcomes(parsed)

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return f"SqliteSink({str(self.path)!r})"


#: Result-sink factories: ``fn(*args) -> ResultSink``.
RESULT_SINKS: Registry = Registry("result sink")
RESULT_SINKS.register("memory")(MemorySink)
RESULT_SINKS.register("jsonl")(JsonlSink)
RESULT_SINKS.register("sqlite")(SqliteSink)

#: File extensions the CLI maps onto sink registry names.
_EXTENSION_SINKS = {".jsonl": "jsonl", ".ndjson": "jsonl", ".json": "jsonl",
                    ".sqlite": "sqlite", ".sqlite3": "sqlite", ".db": "sqlite"}


def sink_for_path(path: str | os.PathLike) -> ResultSink:
    """The file-backed sink matching ``path``'s extension.

    ``.jsonl``/``.ndjson``/``.json`` map to :class:`JsonlSink`;
    ``.sqlite``/``.sqlite3``/``.db`` to :class:`SqliteSink`.
    """
    suffix = Path(path).suffix.lower()
    try:
        name = _EXTENSION_SINKS[suffix]
    except KeyError:
        known = ", ".join(sorted(_EXTENSION_SINKS))
        raise ScenarioError(
            f"cannot infer a result sink from {str(path)!r}; "
            f"use one of the extensions {known}"
        ) from None
    return RESULT_SINKS.get(name)(path)


def resolve_sink(spec: "str | ResultSink | None") -> ResultSink:
    """Coerce a sink name, path-free instance or ``None`` into a sink.

    ``None`` resolves to a fresh :class:`MemorySink`; a string must name a
    registry entry whose factory takes no arguments (``"memory"``) — the
    file-backed sinks need a path, so pass an instance or use
    :func:`sink_for_path`.
    """
    if spec is None:
        return MemorySink()
    if isinstance(spec, ResultSink):
        return spec
    if isinstance(spec, str):
        factory = RESULT_SINKS.get(spec)
        try:
            return factory()
        except TypeError:
            raise ScenarioError(
                f"result sink {spec!r} needs arguments (e.g. a path); "
                f"pass an instance instead of the bare name"
            ) from None
    raise ScenarioError(
        f"sink must be a name or a ResultSink, got {type(spec).__name__}"
    )
