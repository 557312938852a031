"""The paper's primary contribution: the OF metric and the PPA planners.

* :mod:`repro.core.loss` / :mod:`repro.core.fidelity` — information-loss
  propagation (Eq. 1–3) and Output Fidelity (Eq. 4);
* :mod:`repro.core.completeness` — the Internal Completeness baseline;
* :mod:`repro.core.mc_trees` — Minimal Complete Tree enumeration;
* :mod:`repro.core.plans` — plans, objectives, planner interface;
* the planners — Algorithms 1–5 of the paper.
"""

from repro.core.completeness import (
    internal_completeness,
    single_failure_completeness,
    worst_case_completeness,
)
from repro.core.decompose import SubTopology, decompose
from repro.core.dp import BruteForcePlanner, DynamicProgrammingPlanner
from repro.core.fidelity import (
    output_fidelity,
    single_failure_fidelity,
    worst_case_fidelity,
)
from repro.core.full_topology import FullTopologyPlanner
from repro.core.greedy import GreedyPlanner
from repro.core.loss import (
    propagate_information_loss,
    propagate_information_loss_reference,
)
from repro.core.mc_trees import (
    count_mc_tree_derivations,
    enumerate_mc_trees,
    minimum_tree_size,
    tree_is_replicated,
)
from repro.core.plans import (
    IC_OBJECTIVE,
    OF_OBJECTIVE,
    Planner,
    PlanningContext,
    PlanObjective,
    ReplicationPlan,
    budget_from_fraction,
)
from repro.core.structure_aware import StructureAwarePlanner
from repro.core.structured import StructuredTopologyPlanner, complete_tree
from repro.core.units import split_into_units, unit_neighbours

__all__ = [
    "BruteForcePlanner",
    "DynamicProgrammingPlanner",
    "FullTopologyPlanner",
    "GreedyPlanner",
    "IC_OBJECTIVE",
    "OF_OBJECTIVE",
    "PlanObjective",
    "Planner",
    "PlanningContext",
    "ReplicationPlan",
    "StructureAwarePlanner",
    "StructuredTopologyPlanner",
    "SubTopology",
    "budget_from_fraction",
    "complete_tree",
    "count_mc_tree_derivations",
    "decompose",
    "enumerate_mc_trees",
    "internal_completeness",
    "minimum_tree_size",
    "output_fidelity",
    "propagate_information_loss",
    "propagate_information_loss_reference",
    "single_failure_completeness",
    "single_failure_fidelity",
    "split_into_units",
    "tree_is_replicated",
    "unit_neighbours",
    "worst_case_completeness",
    "worst_case_fidelity",
]
