"""Q1: top-100 hottest pages over a WorldCup-like access log (Sec. VI-B).

Runs the hierarchical top-k query twice — once failure-free, once with a
worst-case correlated failure under a structure-aware PPA plan — and reports
the measured accuracy of the tentative top-k sets against the OF prediction.

Run:  python examples/worldcup_topk.py
"""

from repro.core import StructureAwarePlanner, budget_from_fraction, worst_case_fidelity
from repro.experiments.accuracy import measured_accuracy, run_baseline, settings_for
from repro.workloads.bundles import q1_bundle


def main():
    bundle = q1_bundle(window_seconds=20.0, pages=400, tuple_scale=8.0)
    print(bundle.topology.describe())
    settings = settings_for(bundle)
    print(f"\nFailure at t={settings.fail_time:.0f}s; accuracy measured over "
          f"[{settings.measure_from:.0f}, {settings.duration:.0f}]s\n")

    baseline = run_baseline(bundle, settings)
    planner = StructureAwarePlanner()
    print(f"{'fraction':>8} | {'OF':>6} | {'accuracy':>8}")
    print("-" * 30)
    for fraction in (0.2, 0.4, 0.6, 0.8):
        budget = budget_from_fraction(bundle.topology, fraction)
        plan = planner.plan(bundle.topology, bundle.rates, budget)
        predicted = worst_case_fidelity(bundle.topology, bundle.rates,
                                        plan.replicated)
        actual = measured_accuracy(bundle, plan.replicated, baseline, settings)
        print(f"{fraction:>8.1f} | {predicted:>6.3f} | {actual:>8.3f}")

    print("\nOF tracks the measured top-k accuracy: more replicated "
          "aggregation subtrees keep more of the true top-100 alive.")


if __name__ == "__main__":
    main()
