"""Q2: traffic-jam incident detection with a stream join (Sec. VI-B).

Demonstrates why the correlation of a join's input streams matters: the same
budget planned under OF (join-aware) and under IC (join-agnostic) yields very
different tentative-output quality during a correlated failure.

Run:  python examples/traffic_incidents.py
"""

from repro.core import (
    IC_OBJECTIVE,
    StructureAwarePlanner,
    budget_from_fraction,
    worst_case_completeness,
    worst_case_fidelity,
)
from repro.experiments.accuracy import measured_accuracy, run_baseline, settings_for
from repro.workloads.bundles import q2_bundle


def main():
    bundle = q2_bundle(window_seconds=20.0, tuple_scale=80.0)
    print(bundle.topology.describe())
    print("\nO3 is a correlated-input operator: an incident only surfaces if "
          "both the\nsegment-speed stream and the incident stream survive "
          "for its segment.\n")

    settings = settings_for(bundle)
    baseline = run_baseline(bundle, settings)
    of_planner = StructureAwarePlanner()
    ic_planner = StructureAwarePlanner(IC_OBJECTIVE)

    header = (f"{'fraction':>8} | {'OF value':>8} {'OF-plan acc':>11} | "
              f"{'IC value':>8} {'IC-plan acc':>11}")
    print(header)
    print("-" * len(header))
    for fraction in (0.4, 0.6, 0.8):
        budget = budget_from_fraction(bundle.topology, fraction)
        of_plan = of_planner.plan(bundle.topology, bundle.rates, budget)
        ic_plan = ic_planner.plan(bundle.topology, bundle.rates, budget)
        of_value = worst_case_fidelity(bundle.topology, bundle.rates,
                                       of_plan.replicated)
        ic_value = worst_case_completeness(bundle.topology, bundle.rates,
                                           ic_plan.replicated)
        of_acc = measured_accuracy(bundle, of_plan.replicated, baseline, settings)
        ic_acc = measured_accuracy(bundle, ic_plan.replicated, baseline, settings)
        print(f"{fraction:>8.1f} | {of_value:>8.3f} {of_acc:>11.3f} | "
              f"{ic_value:>8.3f} {ic_acc:>11.3f}")

    print("\nIC reports optimistic values but its plans replicate tasks that "
          "cannot form\ncomplete joined MC-trees — the OF-planned accuracy is "
          "what users actually see.")


if __name__ == "__main__":
    main()
