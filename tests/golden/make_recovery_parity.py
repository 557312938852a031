"""Regenerate the recovery-parity golden fixture.

Usage::

    PYTHONPATH=src:. python tests/golden/make_recovery_parity.py

The fixture pins the exact :class:`MetricsCollector` output of the engine's
built-in fault-tolerance protocols on fixed scenarios, so the registry-backed
recovery schemes (``ppa``, ``checkpoint-replay``, ``source-replay``) can be
proven byte-identical to the monolithic engine they were extracted from.
It was generated *before* the extraction (PR 3) and should only be
regenerated when the simulation itself intentionally changes.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.scenarios import Scenario, scenario_digest

from tests.engine_helpers import metrics_fingerprint, run_scenario_engine

#: A tiny fixed topology shared by the custom-workload golden scenarios.
_RECIPE = {
    "operators": [
        {"name": "S", "parallelism": 2, "kind": "source"},
        {"name": "A", "parallelism": 2, "selectivity": 0.5},
        {"name": "B", "parallelism": 1, "selectivity": 0.5},
    ],
    "edges": [
        {"upstream": "S", "downstream": "A", "pattern": "one-to-one"},
        {"upstream": "A", "downstream": "B", "pattern": "merge"},
    ],
}

_CUSTOM_PARAMS = {"source_rate": 40.0, "window_seconds": 6.0, "tuple_scale": 1.0}

#: key -> (scheme name the refactored engine must select, scenario dict).
GOLDEN_SCENARIOS: dict[str, tuple[str, dict]] = {
    # Partially-active replication: a mixed plan, so the correlated failure
    # exercises replica takeover AND checkpoint restore in one run.
    "ppa-mixed": ("ppa", {
        "name": "golden/ppa-mixed",
        "workload": "custom",
        "topology": _RECIPE,
        "workload_params": _CUSTOM_PARAMS,
        "planner": "fixed",
        "planner_params": {"tasks": [["A", 0], ["B", 0]]},
        "engine": {"checkpoint_interval": 4.0, "heartbeat_interval": 2.0,
                   "sync_interval": 4.0},
        "failures": [{"model": "correlated", "at": 12.0}],
        "duration": 24.0,
    }),
    # Pure passive checkpoint/replay (Spark-Streaming style): no replicas.
    "checkpoint-replay": ("checkpoint-replay", {
        "name": "golden/checkpoint-replay",
        "workload": "custom",
        "topology": _RECIPE,
        "workload_params": _CUSTOM_PARAMS,
        "planner": "none",
        "engine": {"checkpoint_interval": 4.0, "heartbeat_interval": 2.0},
        "failures": [{"model": "correlated", "at": 12.0}],
        "duration": 24.0,
    }),
    # Vanilla Storm: no checkpoints, state rebuilt by source replay.
    "source-replay": ("source-replay", {
        "name": "golden/source-replay",
        "workload": "custom",
        "topology": _RECIPE,
        "workload_params": _CUSTOM_PARAMS,
        "planner": "none",
        "recovery": "source-replay",
        "engine": {"checkpoint_interval": None, "heartbeat_interval": 2.0,
                   "source_replay_window_batches": 6},
        "failures": [{"model": "correlated", "at": 12.0}],
        "duration": 24.0,
    }),
    # The paper's Fig. 6 workload under a half-budget PPA plan with forging
    # enabled, covering tentative outputs and the structure-aware planner.
    "ppa-synthetic": ("ppa", {
        "name": "golden/ppa-synthetic",
        "workload": "synthetic",
        "workload_params": {"rate_per_source": 600.0, "window_seconds": 10.0,
                            "tuple_scale": 16.0},
        "planner": "structure-aware",
        "budget_fraction": 0.5,
        "engine": {"checkpoint_interval": 5.0, "sync_interval": 5.0,
                   "tentative_outputs": True},
        "failures": [{"model": "correlated", "at": 15.0}],
        "duration": 30.0,
    }),
}


def main() -> None:
    out: dict[str, dict] = {}
    for key, (scheme, data) in GOLDEN_SCENARIOS.items():
        scenario = Scenario.from_dict(data)
        engine = run_scenario_engine(scenario)
        out[key] = {
            "scheme": scheme,
            "scenario": data,
            "digest": scenario_digest(scenario),
            "fingerprint": metrics_fingerprint(engine.metrics),
        }
        print(f"{key}: {len(engine.metrics.recoveries)} recoveries, "
              f"digest {out[key]['digest'][:12]}")
    path = Path(__file__).with_name("recovery_parity.json")
    path.write_text(json.dumps(out, indent=2, sort_keys=True) + "\n")
    print(f"wrote {path}")


if __name__ == "__main__":
    main()
