"""Regenerate the golden of the scenario and result record codecs.

Usage::

    PYTHONPATH=src:. python tests/golden/make_codec_golden.py

Pins, for the eight serializable records (``OperatorDef``, ``EdgeDef``,
``TopologyRecipe``, ``FailureSpec``, ``Scenario``, ``RecoveryOutcome``,
``ScenarioResult`` and ``CellError``):

* ``bytes``: the ``json.dumps`` text (key order as emitted, no
  ``sort_keys``) of ``to_dict()``, once with every optional field set
  (``<Class>/full``) and once with none (``<Class>/bare``);
* ``errors``: the exact :class:`~repro.errors.ScenarioError` text of each
  malformed document the decoders reject by name;
* ``raises``: the exception class a malformed scenario value raises when a
  grid document is loaded.

Every record is built by hand (no engine run), so the fixture only moves
when a codec's output or error contract changes on purpose.
"""

from __future__ import annotations

import copy
import json
from pathlib import Path
from typing import Any, Callable

from repro.core.plans import ReplicationPlan
from repro.errors import ScenarioError
from repro.scenarios import (
    CellError,
    EdgeDef,
    FailureSpec,
    OperatorDef,
    RecoveryOutcome,
    Scenario,
    ScenarioResult,
    TopologyRecipe,
)
from repro.scenarios.grid import scenarios_from_document
from repro.topology import TaskId

PATH = Path(__file__).with_name("codec_golden.json")

OPERATOR = OperatorDef("A", 2, kind="independent", selectivity=0.5,
                       task_weights=(0.25, 0.75))
EDGE = EdgeDef("S", "A", "one-to-one")
RECIPE = TopologyRecipe(
    operators=(OperatorDef("S", 2, kind="source"), OPERATOR,
               OperatorDef("B", 1, selectivity=0.5)),
    edges=(EDGE, EdgeDef("A", "B", "merge")),
)
FAILURE = FailureSpec("single-task", at=8.0,
                      params={"operator": "A", "index": 1})
SCENARIO = Scenario(
    name="full", workload="custom",
    workload_params={"source_rate": 20.0, "window_seconds": 5.0},
    topology=RECIPE, planner="greedy", planner_params={"seed": 1},
    objective="IC", budget=2,
    engine={"checkpoint_interval": 5.0, "tentative_outputs": True},
    recovery="approximate-ft", recovery_params={"fidelity_bound": 0.5},
    quality={"measure_from": 8.0, "measure_until": 14.0},
    failures=(FAILURE, FailureSpec("correlated", at=10.0)),
    duration=16.0, seed=7,
)
RECOVERY = RecoveryOutcome(TaskId("A", 1), "approximate", 8.0, 9.0, 11.5,
                           fidelity_bound=0.5, fidelity_loss=0.125)
RESULT = ScenarioResult(
    scenario=SCENARIO,
    plan=ReplicationPlan(frozenset({TaskId("B", 0), TaskId("A", 0)}),
                         planner="Greedy", budget=2),
    worst_case_fidelity=0.75, failure_fidelity=0.5,
    failed_tasks=(TaskId("A", 1), TaskId("A", 0)),
    recoveries=(RECOVERY,
                RecoveryOutcome(TaskId("A", 0), "active", 10.0, 11.0, None)),
    batches_processed=120, tuples_processed=4800, checkpoints_taken=6,
    batches_forged=3, complete_sink_batches=12, tentative_sink_batches=4,
    output_quality=0.875,
    profile={"processed_events": 1234, "wall_seconds": 0.5,
             "simulated_seconds": 16.0, "events_per_second": 2468.0,
             "sim_seconds_per_wall_second": 32.0,
             "peak_history_batches": 9},
)
CELL_ERROR = CellError(SCENARIO, "timeout", "too slow", attempts=2)

#: name -> (record with every optional field set, record with none).
RECORDS: dict[str, tuple[Any, Any]] = {
    "OperatorDef": (OPERATOR, OperatorDef("S", 1)),
    "EdgeDef": (EDGE, EdgeDef("A", "B")),
    "TopologyRecipe": (RECIPE, TopologyRecipe((), ())),
    "FailureSpec": (FAILURE, FailureSpec("correlated")),
    "Scenario": (SCENARIO, Scenario()),
    "RecoveryOutcome": (RECOVERY,
                        RecoveryOutcome(TaskId("A", 0), "active", 1.0, 2.0,
                                        None)),
    "ScenarioResult": (RESULT,
                       ScenarioResult(Scenario(), ReplicationPlan(frozenset()),
                                      0.5, 0.25)),
    "CellError": (CELL_ERROR, CellError(Scenario(), "error", "boom")),
}


def _edit(data: dict, path: str, value: Any = None, *,
          delete: bool = False) -> dict:
    """A deep copy of ``data`` with the dotted ``path`` set (or deleted)."""
    out = copy.deepcopy(data)
    *heads, last = path.split(".")
    node: Any = out
    for head in heads:
        node = node[int(head)] if isinstance(node, list) else node[head]
    if delete:
        del node[last]
    else:
        node[int(last) if isinstance(node, list) else last] = value
    return out


def _result(path: str, value: Any = None, *, delete: bool = False) -> tuple:
    return ScenarioResult.from_dict, _edit(RESULT.to_dict(), path, value,
                                           delete=delete)


def _recovery(path: str, value: Any = None, *, delete: bool = False) -> tuple:
    return RecoveryOutcome.from_dict, _edit(RECOVERY.to_dict(), path, value,
                                            delete=delete)


def _cell_error(path: str, value: Any = None, *,
                delete: bool = False) -> tuple:
    return CellError.from_dict, _edit(CELL_ERROR.to_dict(), path, value,
                                      delete=delete)


def _scenario(path: str, value: Any = None, *, delete: bool = False) -> tuple:
    return Scenario.from_dict, _edit(SCENARIO.to_dict(), path, value,
                                     delete=delete)


#: case -> (decoder, malformed document); each raises a ScenarioError.
MALFORMED: dict[str, tuple[Callable[[Any], Any], Any]] = {
    "result/missing-plan": _result("plan", delete=True),
    "result/unknown-field": _result("fidelity", 1.0),
    "result/malformed-failed-task": _result("failed_tasks", ["A-0"]),
    "result/malformed-plan-task": _result("plan.replicated", [42]),
    "result/non-numeric-fidelity": _result("worst_case_fidelity", "high"),
    "result/null-counter": _result("batches_processed", None),
    "result/non-numeric-plan-budget": _result("plan.budget", "lots"),
    "result/profile-not-an-object": _result("profile", "not-an-object"),
    "result/not-an-object": (ScenarioResult.from_dict, [1]),
    "result/plan-not-an-object": _result("plan", []),
    "result/unknown-plan-field": _result("plan.replicas", []),
    "result/recoveries-not-a-list": _result("recoveries", 5),
    "result/recovery-not-an-object": _result("recoveries", [5]),
    "result/unknown-scenario-field": _result("scenario.bugdet", 3),
    "recovery/null-mode": _recovery("mode", None),
    "recovery/unknown-field": _recovery("speed", 9),
    "recovery/missing-task": _recovery("task", delete=True),
    "recovery/malformed-task": _recovery("task", "A"),
    "recovery/non-numeric-time": _recovery("fail_time", "early"),
    "recovery/not-an-object": (RecoveryOutcome.from_dict, "A[0]"),
    "cell-error/missing-scenario": _cell_error("scenario", delete=True),
    "cell-error/unknown-field": _cell_error("retries", 1),
    "cell-error/not-an-object": (CellError.from_dict, []),
    "scenario/unknown-field": _scenario("bugdet", 3),
    "scenario/unknown-failure-field": _scenario("failures.0.when", 4.0),
    "scenario/failure-without-model": _scenario("failures.1.model",
                                                delete=True),
    "scenario/unknown-operator-field": _scenario(
        "topology.operators.0.weight", 1.0),
    "scenario/unknown-edge-field": _scenario("topology.edges.0.via", "x"),
    "scenario/unknown-topology-field": _scenario("topology.nodes", []),
    "scenario/unknown-quality-field": _scenario("quality.measure_form", 1.0),
}

#: case -> a grid document whose one malformed scenario value is named.
MALFORMED_GRIDS: dict[str, dict] = {
    "failure-at-not-a-number": {"base": _edit(SCENARIO.to_dict(),
                                              "failures.0.at", "soon")},
    "operator-without-name": {"base": _edit(SCENARIO.to_dict(),
                                            "topology.operators.1.name",
                                            delete=True)},
    "budget-not-a-number": {"base": _edit(SCENARIO.to_dict(), "budget",
                                          "three")},
    "workload-params-not-an-object": {"base": _edit(
        SCENARIO.to_dict(), "workload_params", [1, 2])},
}


def codec_golden() -> dict:
    """The golden document, computed on the current code."""
    out: dict = {"bytes": {}, "errors": {}, "raises": {}}
    for name, (full, bare) in RECORDS.items():
        out["bytes"][f"{name}/full"] = json.dumps(full.to_dict())
        out["bytes"][f"{name}/bare"] = json.dumps(bare.to_dict())
    for case, (decode, document) in MALFORMED.items():
        try:
            decode(document)
        except ScenarioError as exc:
            out["errors"][case] = str(exc)
        else:
            raise AssertionError(f"{case}: decoded without an error")
    for case, document in MALFORMED_GRIDS.items():
        try:
            scenarios_from_document(document)
        except Exception as exc:  # noqa: BLE001 - the class is the record
            out["raises"][case] = type(exc).__name__
        else:
            raise AssertionError(f"{case}: decoded without an error")
    return out


def main() -> None:
    PATH.write_text(json.dumps(codec_golden(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {PATH}")


if __name__ == "__main__":
    main()
