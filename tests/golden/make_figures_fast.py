"""Regenerate the golden of every ``--fast`` figure, ablation and claim.

Usage::

    PYTHONPATH=src:. python tests/golden/make_figures_fast.py

Pins what ``python -m repro.experiments all --fast`` prints — title,
headers, notes and every row of all nine ``RUNNERS[name](True)`` figures —
plus the two engine-running ablations at benchmark scale and
``tentative_speedup()`` at its defaults.  Every cell is stored as its
``repr``, so floats are compared digit for digit.  The fixture was generated
*before* Fig. 12/13, the claims and the ablations moved onto the scenario
path (PR 20) and should only be regenerated when the simulation itself
intentionally changes.
"""

from __future__ import annotations

import functools
import json
from pathlib import Path

from repro.experiments.ablations import (
    ablate_checkpoint_stagger,
    ablate_tuple_scale,
)
from repro.experiments.claims import tentative_speedup
from repro.experiments.cli import RUNNERS

PATH = Path(__file__).with_name("figures_fast.json")


def _table(result) -> dict:
    return {"figure": result.figure, "headers": list(result.headers),
            "rows": [[repr(cell) for cell in row] for row in result.rows],
            "notes": result.notes}


@functools.lru_cache(maxsize=None)
def fast_figures(name: str) -> tuple:
    """The ``FigureResult`` list of ``RUNNERS[name](True)``, computed once."""
    return tuple(RUNNERS[name](True))


@functools.lru_cache(maxsize=None)
def fast_ablations() -> dict:
    """The two engine-running ablations at benchmark scale, computed once."""
    return {
        "checkpoint_stagger": ablate_checkpoint_stagger(
            rates=(1000.0,), tuple_scale=32.0),
        "tuple_scale": ablate_tuple_scale(scales=(16.0, 32.0)),
    }


def golden_section(section: str, name: str = "") -> object:
    """One entry of the golden document, computed on the current code."""
    if section == "figures":
        return [_table(result) for result in fast_figures(name)]
    if section == "ablations":
        return _table(fast_ablations()[name])
    return repr(tentative_speedup())


def golden_keys() -> list[tuple[str, str]]:
    """Every (section, name) pair the golden document holds."""
    return ([("figures", name) for name in sorted(RUNNERS)]
            + [("ablations", "checkpoint_stagger"), ("ablations", "tuple_scale"),
               ("tentative_speedup", "")])


def main() -> None:
    out: dict = {"figures": {}, "ablations": {}}
    for section, name in golden_keys():
        value = golden_section(section, name)
        if name:
            out[section][name] = value
        else:
            out[section] = value
        print(f"{section}/{name}: done")
    PATH.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    print(f"wrote {PATH}")


if __name__ == "__main__":
    main()
