"""Workload generators and ready-to-run query bundles.

Raw generators (synthetic rates, WorldCup-like log, traffic streams) plus
the :class:`~repro.workloads.bundles.QueryBundle` packages of the paper's
evaluation workloads (Fig. 6 synthetic, Q1 top-k, Q2 incidents).
"""

from repro.lazy import lazy_exports

#: exported name -> the module it is imported from on first use.
_EXPORTS = {
    "Incident": "repro.workloads.traffic",
    "IncidentReportSource": "repro.workloads.traffic",
    "IncidentSchedule": "repro.workloads.traffic",
    "QueryBundle": "repro.workloads.bundles",
    "SquareWaveSource": "repro.workloads.sources",
    "UniformRateSource": "repro.workloads.sources",
    "UserLocationSource": "repro.workloads.traffic",
    "WorldCupAccessLog": "repro.workloads.worldcup",
    "batch_rng": "repro.workloads.zipf",
    "calibrated_costs": "repro.workloads.bundles",
    "fig6_bundle": "repro.workloads.bundles",
    "q1_bundle": "repro.workloads.bundles",
    "q2_bundle": "repro.workloads.bundles",
    "sample_zipf": "repro.workloads.zipf",
    "zipf_probabilities": "repro.workloads.zipf",
}

__getattr__, __dir__, __all__ = lazy_exports(__name__, _EXPORTS)
