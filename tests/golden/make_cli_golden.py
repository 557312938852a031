"""Regenerate the golden of the grid-running CLI subcommands.

Usage::

    PYTHONPATH=src:. python tests/golden/make_cli_golden.py

Pins, for ``grid``, ``submit`` and ``chaos``:

* the stdout bytes of ``grid --json`` and ``submit --json`` on a two-cell
  ``--fast``-sized grid (``submit`` talks to an in-process sweep server);
* the exit code of each command on a clean grid, on a grid whose cells
  fail at run time, on a document naming an unregistered recovery scheme,
  on a document that is not a grid at all and on four documents with one
  malformed scenario value each;
* under ``text``, what each of those runs prints besides the pinned
  ``--json`` outcome rows (summaries, error lines, chaos reports), plus
  the text modes of ``grid --progress`` and ``submit --progress``, the
  ``--json`` mode of ``chaos``, ``status`` in both modes after every
  submission, and ``cache stats`` / ``cache prune`` on the cache the
  text-mode grids filled.

Temporary paths and the server's OS-assigned address are normalised to
``<tmp>`` and ``<address>``, and the cache's last-used timestamps to
``<span>``, so the bytes repeat from run to run.

All three commands load grid documents through one decoder and one name
check, so each exits 2 on a malformed value or an unregistered scheme
before any cell runs.  The fixture
should only be regenerated when a command's output or exit contract
changes on purpose.
"""

from __future__ import annotations

import contextlib
import io
import json
import re
import tempfile
from pathlib import Path

from repro.experiments.cli import main as cli_main

PATH = Path(__file__).with_name("cli_golden.json")

#: The two-cell grid every case starts from (a few ms per cell).
BASE = {
    "name": "cli-golden",
    "workload": "custom",
    "topology": {
        "operators": [
            {"name": "S", "parallelism": 2, "kind": "source"},
            {"name": "A", "parallelism": 2, "selectivity": 0.5},
            {"name": "B", "parallelism": 1, "selectivity": 0.5},
        ],
        "edges": [
            {"upstream": "S", "downstream": "A", "pattern": "one-to-one"},
            {"upstream": "A", "downstream": "B", "pattern": "merge"},
        ],
    },
    "workload_params": {"source_rate": 20.0, "window_seconds": 5.0},
    "planner": "greedy",
    "engine": {"checkpoint_interval": 5.0},
    "failures": [{"model": "single-task", "at": 8.0,
                  "params": {"operator": "A"}}],
    "duration": 16.0,
}

#: case -> grid document.  ``cell-error`` passes every up-front check and
#: fails inside each cell; ``unknown-recovery`` names no registered scheme;
#: the last four each carry one malformed scenario value.
DOCUMENTS = {
    "clean": {"base": BASE, "axes": {"budget": [1, 2]}},
    "cell-error": {
        "base": {**BASE, "failures": [{"model": "single-task", "at": 8.0,
                                       "params": {"operator": "NOPE"}}]},
        "axes": {"budget": [1, 2]},
    },
    "unknown-recovery": {"base": {**BASE, "recovery": "ppaa"},
                         "axes": {"budget": [1, 2]}},
    "not-a-grid": [BASE],
    "failure-at-not-a-number": {"base": {
        **BASE, "failures": [{"model": "single-task", "at": "soon"}]}},
    "operator-without-name": {"base": {**BASE, "topology": {
        **BASE["topology"],
        "operators": [{"parallelism": 2, "kind": "source"}]}}},
    "budget-not-a-number": {"base": {**BASE, "budget": "three"}},
    "workload-params-not-an-object": {"base": {**BASE,
                                               "workload_params": [1, 2]}},
}

COMMANDS = ("grid", "submit", "chaos")


def _run(argv: list[str]) -> tuple[int, str, str]:
    """``cli_main(argv)``'s exit code, stdout and stderr (argparse exits
    included)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli_main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
    return code, out.getvalue(), err.getvalue()


@contextlib.contextmanager
def _sweep_server():
    """A serial in-process sweep server; yields its ``host:port``."""
    from repro.service import SweepServer

    server = SweepServer().start()
    try:
        host, port = server.address
        yield f"{host}:{port}"
    finally:
        server.stop()


def _argv(command: str, path: str, address: str) -> list[str]:
    if command == "grid":
        return ["grid", path, "--json"]
    if command == "submit":
        return ["submit", address, path, "--json"]
    return ["chaos", path, "--workers", "1"]


#: The text-mode runs pinned on the cases whose cells run, by key prefix.
TEXT_RUNS = {
    "grid --progress": lambda path, address, tmp: [
        "grid", path, "--progress", "--cache-dir", f"{tmp}/cache",
        "--output", f"{path}l"],
    "submit --progress": lambda path, address, tmp: [
        "submit", address, path, "--progress"],
}


def cli_golden() -> dict:
    """The golden document, computed on the current code."""
    out: dict = {"exit_codes": {}, "stdout": {}, "text": {}}
    with tempfile.TemporaryDirectory() as tmp, _sweep_server() as address:

        def text(key: str, stdout: str, stderr: str) -> None:
            streams = {"stdout": stdout, "stderr": stderr}
            for name, value in streams.items():
                value = value.replace(tmp, "<tmp>").replace(address,
                                                            "<address>")
                streams[name] = re.sub(r"last-used span: .*", "<span>", value)
            out["text"][key] = streams

        for case, document in DOCUMENTS.items():
            path = Path(tmp) / f"{case}.json"
            path.write_text(json.dumps(document))
            for command in COMMANDS:
                code, stdout, stderr = _run(_argv(command, str(path), address))
                out["exit_codes"][f"{command}/{case}"] = code
                if case == "clean" and command != "chaos":
                    out["stdout"][f"{command} --json"] = stdout
                # grid/submit --json rows are pinned above (clean) or
                # hold nothing but the cells' own error texts.
                text(f"{command}/{case}",
                     stdout if command == "chaos" else "", stderr)
            if case not in ("clean", "cell-error"):
                continue
            for name, argv in TEXT_RUNS.items():
                text(f"{name}/{case}",
                     *_run(argv(str(path), address, tmp))[1:])
            if case == "clean":
                text("chaos --json/clean", *_run(
                    ["chaos", str(path), "--workers", "1", "--json"])[1:])
        for argv in (["status", address], ["status", address, "--json"],
                     ["cache", "stats", f"{tmp}/cache"],
                     ["cache", "prune", f"{tmp}/cache", "--max-entries", "1"]):
            key = " ".join(arg for arg in argv
                           if arg != address and not arg.startswith(tmp))
            text(key, *_run(argv)[1:])
    return out


def main() -> None:
    PATH.write_text(json.dumps(cli_golden(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {PATH}")


if __name__ == "__main__":
    main()
