"""Q2: traffic-jam incident detection with a stream join (Sec. VI-B).

Demonstrates why the correlation of a join's input streams matters: the same
budget planned under OF (join-aware) and under IC (join-agnostic) yields very
different tentative-output quality during a correlated failure.  Each number
pair is one Fig. 12 cell — a `Scenario` with `objective` OF or IC.

Run:  python examples/traffic_incidents.py
"""

from repro import run_scenarios
from repro.experiments import quality_scenario
from repro.workloads.bundles import q2_bundle

Q2 = {"window_seconds": 20.0, "tuple_scale": 80.0}
FRACTIONS = (0.4, 0.6, 0.8)


def main():
    cells = [quality_scenario("q2", Q2, fraction=fraction, objective=objective)
             for fraction in FRACTIONS for objective in ("OF", "IC")]
    print(q2_bundle(**Q2).topology.describe())
    print("\nO3 is a correlated-input operator: an incident only surfaces if "
          "both the\nsegment-speed stream and the incident stream survive "
          "for its segment.\n")

    header = (f"{'fraction':>8} | {'OF value':>8} {'OF-plan acc':>11} | "
              f"{'IC value':>8} {'IC-plan acc':>11}")
    print(header)
    print("-" * len(header))
    results = run_scenarios(cells)
    for fraction, of, ic in zip(FRACTIONS, results[0::2], results[1::2]):
        print(f"{fraction:>8.1f} | "
              f"{of.worst_case_fidelity:>8.3f} {of.output_quality:>11.3f} | "
              f"{ic.worst_case_fidelity:>8.3f} {ic.output_quality:>11.3f}")

    print("\nIC reports optimistic values but its plans replicate tasks that "
          "cannot form\ncomplete joined MC-trees — the OF-planned accuracy is "
          "what users actually see.")


if __name__ == "__main__":
    main()
