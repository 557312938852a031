"""Regenerate the recovery scheme x failure model golden matrix.

Usage::

    PYTHONPATH=src:. python tests/golden/make_scheme_matrix.py

Every registered recovery scheme under seven failure cases, with tentative
outputs off and on, plus ``approximate-ft`` at bounds wide enough to reach
``APPROXIMATE`` mode (the default 0.1 almost never does) — on the paper's
Fig. 6 workload at ``tuple_scale`` 32 for 50 simulated seconds.  Each cell
pins a hash over everything the run measured, so a refactor of
``repro.engine.recovery`` is byte-identical or a red test.  The fixture was
generated *before* the schemes became declared policy triples (PR 17) and
should only be regenerated when the simulation itself intentionally
changes.
"""

from __future__ import annotations

import hashlib
import json
from collections import Counter
from pathlib import Path

from repro.engine import RECOVERY_SCHEMES
from repro.scenarios import Scenario

from tests.engine_helpers import metrics_fingerprint, run_scenario_engine

DURATION = 50.0

#: Six nodes on three racks; the 31 Fig. 6 tasks land on them round-robin.
_PLACEMENT = {f"n{i}": f"r{i % 3}" for i in range(6)}


def _rack(at: float, *racks: str) -> dict:
    return {"model": "rack-correlated", "at": at,
            "params": {"placement": _PLACEMENT, "racks": list(racks)}}


#: case name -> the scenario's failure specs.
FAILURE_CASES: dict[str, list[dict]] = {
    "correlated": [{"model": "correlated", "at": 20.0}],
    "rolling-restart": [{"model": "rolling-restart", "at": 12.0,
                         "params": {"stagger": 2.0}}],
    "flapping": [{"model": "flapping", "at": 12.0,
                  "params": {"cycles": 3, "down": 4.0, "up": 7.0}}],
    "detection-jitter": [{"model": "detection-jitter", "at": 20.0,
                          "params": {"jitter": 3.0}}],
    "rack-one": [_rack(20.0, "r0")],
    # The second rack dies half a second after the heartbeat that detects
    # the first: replicas hosted there are lost in the middle of a takeover.
    "rack-two": [_rack(19.0, "r0"), _rack(20.5, "r1")],
    "jitter-over-rack": [{"model": "detection-jitter", "at": 20.0,
                          "params": {"jitter": 3.0, "base": "rack-correlated",
                                     "base_params": _rack(0.0, "r0")["params"]}}],
}

#: Extra ``approximate-ft`` bounds (the default 0.1 is in the main product).
APPROXIMATE_BOUNDS = (0.6, 1.0)


def matrix_cells() -> dict[str, Scenario]:
    """cell key -> scenario, for every scheme registered right now."""
    variants = [(name, {}) for name in RECOVERY_SCHEMES.names()]
    variants += [("approximate-ft", {"fidelity_bound": bound})
                 for bound in APPROXIMATE_BOUNDS]
    cells = {}
    for scheme, params in variants:
        label = scheme + "".join(f"@{v}" for v in params.values())
        for case, failures in FAILURE_CASES.items():
            for tentative in (False, True):
                key = f"{label}/{case}/{'tentative' if tentative else 'hold'}"
                cells[key] = Scenario.from_dict({
                    "name": f"matrix/{key}",
                    "workload": "synthetic",
                    "workload_params": {"tuple_scale": 32.0},
                    "planner": "structure-aware", "budget_fraction": 0.5,
                    "engine": {"checkpoint_interval": 5.0,
                               "tentative_outputs": tentative},
                    "recovery": scheme, "recovery_params": params,
                    "failures": failures, "duration": DURATION,
                })
    return cells


def cell_record(scenario: Scenario) -> dict:
    """What the golden stores for one cell: a hash plus a readable summary.

    Every cell shares one workload, so the memo behind
    ``run_scenario_engine`` plans it and generates its sources once.
    """
    metrics = run_scenario_engine(scenario).metrics
    fingerprint = metrics_fingerprint(metrics)
    fingerprint["processed_events"] = metrics.processed_events
    fingerprint["fidelity"] = [[r.fidelity_bound, r.fidelity_loss]
                               for r in metrics.recoveries]
    blob = json.dumps(fingerprint, sort_keys=True).encode()
    return {
        "sha256": hashlib.sha256(blob).hexdigest(),
        "processed_events": metrics.processed_events,
        "batches_forged": metrics.batches_forged,
        "modes": dict(sorted(Counter(
            r.mode.value for r in metrics.recoveries).items())),
        "recovered": sum(r.recovered_time is not None
                         for r in metrics.recoveries),
    }


def main() -> None:
    out = {key: cell_record(scenario)
           for key, scenario in matrix_cells().items()}
    for key, record in out.items():
        print(f"{key}: {record['modes']} events={record['processed_events']}")
    path = Path(__file__).with_name("scheme_matrix.json")
    path.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(out)} cells to {path}")


if __name__ == "__main__":
    main()
