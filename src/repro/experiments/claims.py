"""The paper's two headline claims (Sec. VIII), checked end to end.

1. *"Upon a correlated failure, PPA can start producing tentative outputs up
   to 10 times faster than the completion of recovering all the failed
   tasks"* — measured as the ratio between the full passive-recovery
   completion time and the recovery completion of the actively replicated
   subtree in a PPA-0.5 run.

2. *"Structure-aware algorithms can achieve up to one order of magnitude
   improvements on the qualities of tentative outputs in comparing the
   greedy algorithm ... especially when there is limited resource"* —
   measured as the largest SA/Greedy OF ratio across fractions on random
   topologies (counting configurations where greedy achieves exactly zero
   separately, since the ratio is unbounded there).
"""

from __future__ import annotations

from typing import Sequence

from repro.engine.config import EngineConfig
from repro.engine.engine import StreamEngine
from repro.experiments.random_topologies import BASE_SPEC, sweep_planner_fidelity
from repro.experiments.recovery import (
    DEFAULT_DURATION,
    DEFAULT_FAIL_TIME,
    FigureResult,
    half_subtree_plan,
)
from repro.topology.generator import WeightSkew
from repro.workloads.bundles import fig6_bundle


def tentative_speedup(rate: float = 2000.0, checkpoint_interval: float = 30.0,
                      window: float = 30.0, tuple_scale: float = 8.0) -> float:
    """Full-recovery completion time divided by tentative-output resume time."""
    bundle = fig6_bundle(rate, window, tuple_scale=tuple_scale)
    plan = half_subtree_plan(bundle)
    config = EngineConfig(
        checkpoint_interval=checkpoint_interval, sync_interval=5.0,
        tentative_outputs=True, costs=bundle.costs,
    )
    engine = StreamEngine(bundle.topology, bundle.make_logic(), config, plan=plan)
    engine.schedule_task_failure(DEFAULT_FAIL_TIME, bundle.synthetic_tasks)
    engine.run(DEFAULT_DURATION)
    full = engine.metrics.max_recovery_latency()
    active = engine.metrics.max_recovery_latency(tasks=plan)
    if full is None or active is None or active <= 0:
        raise RuntimeError("recovery did not complete; extend the run")
    return full / active


def sa_vs_greedy_ratio(fractions: Sequence[float] = (0.1, 0.2, 0.3),
                       n_topologies: int = 30, seed0: int = 2000
                       ) -> tuple[float, int]:
    """(largest finite SA/Greedy OF ratio, #points where greedy scored 0 < SA)."""
    spec = BASE_SPEC.with_skew(WeightSkew.ZIPF)
    sa, greedy = sweep_planner_fidelity(spec, fractions, n_topologies,
                                        seed0=seed0)
    best = 0.0
    unbounded = 0
    for sa_value, greedy_value in zip(sa, greedy):
        if greedy_value <= 1e-12:
            if sa_value > 1e-12:
                unbounded += 1
            continue
        best = max(best, sa_value / greedy_value)
    return best, unbounded


def claims(n_topologies: int = 30) -> FigureResult:
    """Both headline claims as one small table."""
    speedup = tentative_speedup()
    ratio, unbounded = sa_vs_greedy_ratio(n_topologies=n_topologies)
    rows = [
        ["tentative outputs vs full recovery (speedup ×)", speedup,
         "paper: up to 10×"],
        ["SA vs Greedy OF ratio (best finite)", ratio,
         "paper: up to 10×"],
        ["fractions where Greedy OF = 0 < SA OF", unbounded,
         "ratio unbounded there"],
    ]
    return FigureResult(
        "Headline claims (Sec. VIII)",
        ["claim", "measured", "reference"],
        rows,
    )
