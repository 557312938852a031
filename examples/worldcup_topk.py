"""Q1: top-100 hottest pages over a WorldCup-like access log (Sec. VI-B).

Runs the hierarchical top-k query under a structure-aware PPA plan and its
worst-case correlated failure — one Fig. 12 cell per budget fraction, each a
plain `Scenario` whose `quality` axis scores the tentative top-k sets against
a failure-free run — and reports the measured accuracy next to the OF
prediction.

Run:  python examples/worldcup_topk.py
"""

from repro import run_scenarios
from repro.experiments import quality_scenario
from repro.workloads.bundles import q1_bundle

Q1 = {"window_seconds": 20.0, "pages": 400, "tuple_scale": 8.0}


def main():
    cells = [quality_scenario("q1", Q1, fraction=fraction)
             for fraction in (0.2, 0.4, 0.6, 0.8)]
    print(q1_bundle(**Q1).topology.describe())
    (failure,) = cells[0].failures
    print(f"\nFailure at t={failure.at:.0f}s; accuracy measured over "
          f"[{cells[0].quality['measure_from']:.0f}, "
          f"{cells[0].duration:.0f}]s\n")

    print(f"{'fraction':>8} | {'OF':>6} | {'accuracy':>8}")
    print("-" * 30)
    for cell, result in zip(cells, run_scenarios(cells)):
        print(f"{cell.budget_fraction:>8.1f} | "
              f"{result.worst_case_fidelity:>6.3f} | "
              f"{result.output_quality:>8.3f}")

    print("\nOF tracks the measured top-k accuracy: more replicated "
          "aggregation subtrees keep more of the true top-100 alive.")


if __name__ == "__main__":
    main()
