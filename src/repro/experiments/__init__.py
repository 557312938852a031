"""Experiment harness: one module per figure of the paper's evaluation.

* :mod:`repro.experiments.recovery` — Fig. 7 (single failure), Fig. 8
  (correlated failure), Fig. 10 (PPA plans);
* :mod:`repro.experiments.checkpoint_cost` — Fig. 9;
* :mod:`repro.experiments.accuracy` — Fig. 12 (OF/IC validation) and
  Fig. 13 (planner comparison);
* :mod:`repro.experiments.random_topologies` — Fig. 14 (a–d);
* :mod:`repro.experiments.claims` — the Sec. VIII headline claims.

Run ``python -m repro.experiments all --fast`` for a quick pass.
"""

from repro.experiments.accuracy import (
    AccuracySettings,
    fig12,
    fig13,
    measured_accuracy,
    run_baseline,
    settings_for,
)
from repro.experiments.checkpoint_cost import checkpoint_cpu_ratio, fig9
from repro.experiments.claims import claims, sa_vs_greedy_ratio, tentative_speedup
from repro.experiments.random_topologies import (
    VARIANTS,
    fig14,
    sweep_planner_fidelity,
)
from repro.experiments.recovery import (
    DEFAULT_TECHNIQUES,
    FigureResult,
    Technique,
    TechniqueKind,
    correlated_failure_latency,
    fig7,
    fig8,
    fig10,
    half_subtree_plan,
    single_failure_latency,
)
from repro.experiments.tables import format_table
from repro.workloads.bundles import (
    QueryBundle,
    calibrated_costs,
    fig6_bundle,
    q1_bundle,
    q2_bundle,
)

__all__ = [
    "AccuracySettings",
    "DEFAULT_TECHNIQUES",
    "FigureResult",
    "QueryBundle",
    "Technique",
    "TechniqueKind",
    "VARIANTS",
    "calibrated_costs",
    "checkpoint_cpu_ratio",
    "claims",
    "correlated_failure_latency",
    "fig10",
    "fig12",
    "fig13",
    "fig14",
    "fig6_bundle",
    "fig7",
    "fig8",
    "fig9",
    "format_table",
    "half_subtree_plan",
    "measured_accuracy",
    "q1_bundle",
    "q2_bundle",
    "run_baseline",
    "sa_vs_greedy_ratio",
    "settings_for",
    "single_failure_latency",
    "sweep_planner_fidelity",
    "tentative_speedup",
]
