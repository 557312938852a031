"""Experiment harness: one module per figure of the paper's evaluation.

Every figure that involves a plan or a failure is a *scenario grid plus a
pivot*: its cells are :class:`~repro.scenarios.Scenario` objects, executed
as one :func:`~repro.experiments.recovery.run_cells` batch (so each takes
``backend=`` and ``cache=``) and pivoted into a
:class:`~repro.experiments.recovery.FigureResult` table.

* :mod:`repro.experiments.recovery` — Fig. 7 (single failure), Fig. 8
  (correlated failure), Fig. 10 (PPA plans), the recovery-scheme sweep, and
  the shared cell/pivot helpers;
* :mod:`repro.experiments.accuracy` — Fig. 12 (OF/IC validation) and
  Fig. 13 (planner comparison), cells built by
  :func:`~repro.experiments.accuracy.quality_scenario`;
* :mod:`repro.experiments.claims` — the Sec. VIII headline claims;
* :mod:`repro.experiments.ablations` — checkpoint stagger, tuple scale, DP
  beam;
* :mod:`repro.experiments.checkpoint_cost` — Fig. 9, the one figure that
  drives :class:`~repro.engine.engine.StreamEngine` directly: it reads
  per-task virtual CPU accounting that a ``ScenarioResult`` does not carry;
* :mod:`repro.experiments.random_topologies` — Fig. 14 (a–d), planners only.

Run ``python -m repro.experiments all --fast`` for a quick pass.
"""

from repro.experiments.accuracy import fig12, fig13, quality_scenario
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
    correlated_failure_latency,
    fig7,
    fig8,
    fig10,
    half_subtree_plan,
    recovery_latency,
    run_cells,
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
    "DEFAULT_TECHNIQUES",
    "FigureResult",
    "QueryBundle",
    "Technique",
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
    "q1_bundle",
    "q2_bundle",
    "quality_scenario",
    "recovery_latency",
    "run_cells",
    "sa_vs_greedy_ratio",
    "single_failure_latency",
    "sweep_planner_fidelity",
    "tentative_speedup",
]
