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

from repro.lazy import lazy_exports

#: exported name -> the module it is imported from on first use.
_EXPORTS = {
    "DEFAULT_TECHNIQUES": "repro.experiments.recovery",
    "FigureResult": "repro.experiments.recovery",
    "QueryBundle": "repro.workloads.bundles",
    "Technique": "repro.experiments.recovery",
    "VARIANTS": "repro.experiments.random_topologies",
    "calibrated_costs": "repro.workloads.bundles",
    "checkpoint_cpu_ratio": "repro.experiments.checkpoint_cost",
    "claims": "repro.experiments.claims",
    "correlated_failure_latency": "repro.experiments.recovery",
    "fig10": "repro.experiments.recovery",
    "fig12": "repro.experiments.accuracy",
    "fig13": "repro.experiments.accuracy",
    "fig14": "repro.experiments.random_topologies",
    "fig6_bundle": "repro.workloads.bundles",
    "fig7": "repro.experiments.recovery",
    "fig8": "repro.experiments.recovery",
    "fig9": "repro.experiments.checkpoint_cost",
    "format_table": "repro.experiments.tables",
    "half_subtree_plan": "repro.experiments.recovery",
    "q1_bundle": "repro.workloads.bundles",
    "q2_bundle": "repro.workloads.bundles",
    "quality_scenario": "repro.experiments.accuracy",
    "recovery_latency": "repro.experiments.recovery",
    "run_cells": "repro.experiments.recovery",
    "sa_vs_greedy_ratio": "repro.experiments.claims",
    "single_failure_latency": "repro.experiments.recovery",
    "sweep_planner_fidelity": "repro.experiments.random_topologies",
    "tentative_speedup": "repro.experiments.claims",
}

__getattr__, __dir__, __all__ = lazy_exports(__name__, _EXPORTS)
