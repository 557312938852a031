"""Quickstart: declare a scenario, run it, see what active replication buys.

Declares a small aggregation topology as a serializable recipe, compares the
greedy and structure-aware planners on it via a scenario grid, then runs the
structure-aware plan through the engine with everything outside the plan
killed — tentative outputs keep flowing from the replicated subtree.

The whole pipeline (topology -> rates -> planner -> engine -> failure
injection) is driven by `repro.run_scenario`; no hand-wiring.

Run:  python examples/quickstart.py
"""

import json

import repro


def build_recipe() -> repro.TopologyRecipe:
    """Four sensor sources feeding a two-level aggregation with one sink."""
    return repro.TopologyRecipe(
        operators=(
            repro.OperatorDef("sensors", 4, kind="source"),
            repro.OperatorDef("preagg", 4, selectivity=0.5),
            repro.OperatorDef("merge", 2, selectivity=0.5),
            repro.OperatorDef("report", 1),
        ),
        edges=(
            repro.EdgeDef("sensors", "preagg", "one-to-one"),
            repro.EdgeDef("preagg", "merge", "merge"),
            repro.EdgeDef("merge", "report", "merge"),
        ),
    )


def main():
    recipe = build_recipe()
    topology = recipe.build()
    print(topology.describe())

    # One declarative scenario: the custom topology, a 40% replication
    # budget, and a failure killing every task outside the plan while
    # recovery stays off — the Fig. 12/13 tentative-output situation.
    base = repro.Scenario(
        workload="custom",
        topology=recipe,
        workload_params={"source_rate": 50.0, "window_seconds": 10.0},
        budget_fraction=0.4,
        engine={"checkpoint_interval": None, "tentative_outputs": True,
                "recovery_enabled": False},
        failures=(repro.FailureSpec("unreplicated", at=10.0),),
        duration=20.0,
    )
    print(f"\nScenario JSON round-trips: "
          f"{repro.Scenario.from_json(base.to_json()) == base}")

    budget = repro.budget_from_fraction(topology, 0.4)
    print(f"Replication budget: {budget} of {topology.num_tasks} tasks (40%)\n")

    # Grids run through a pluggable execution backend ("serial",
    # "processes" for real parallelism, or "cluster"); results are
    # deterministic and identical whichever backend executes them.
    results = repro.run_grid(base, {"planner": ["greedy", "structure-aware"]},
                             backend="processes")
    for result in results:
        tasks = ", ".join(str(t) for t in sorted(result.plan.replicated))
        print(f"{result.plan.planner:>7}: OF = {result.worst_case_fidelity:.3f}"
              f"  plan = [{tasks}]")

    sa = results[-1]
    print(f"\nEngine run ({sa.plan.planner} plan): "
          f"{sa.complete_sink_batches} complete output batches, "
          f"{sa.tentative_sink_batches} tentative ones after the failure "
          f"({sa.batches_forged} forged punctuations).")
    if sa.tentative_sink_batches:
        print("Tentative batches keep flowing — computed from the replicated "
              "MC-trees only.")

    # Scenarios are plain data: this is exactly what
    # `python -m repro.experiments scenario <file.json>` consumes.
    print("\nScenario document:")
    print(json.dumps(base.to_dict(), indent=2)[:400] + " ...")


if __name__ == "__main__":
    main()
