"""Ablations of the reproduction's design choices (see DESIGN.md §5).

Three ablations back the decisions the simulator's results rest on:

* **checkpoint staggering** — the paper motivates PPA partly by the massive
  synchronisation that *asynchronous* checkpoints force during correlated
  recovery (Sec. I).  Disabling the stagger aligns every task's checkpoint
  and should shrink the correlated-recovery gap;
* **tuple-scale invariance** — experiments divide stream rates by a scale
  factor while multiplying per-tuple costs by the same factor; virtual-time
  results must not depend on the chosen scale;
* **DP beam width** — the exact DP is exponential; the beam extension trades
  optimality for tractability and the ablation quantifies the loss.
"""

from __future__ import annotations

from typing import Sequence

from repro.core.dp import DynamicProgrammingPlanner
from repro.core.fidelity import worst_case_fidelity
from repro.engine.config import EngineConfig
from repro.engine.engine import StreamEngine
from repro.experiments.recovery import DEFAULT_DURATION, DEFAULT_FAIL_TIME, FigureResult
from repro.topology.generator import (
    TopologySpec,
    generate_source_rates,
    generate_topology,
)
from repro.topology.rates import propagate_rates
from repro.workloads.bundles import fig6_bundle


def _correlated_latency(stagger: bool, *, rate: float, window: float,
                        interval: float, tuple_scale: float) -> float:
    bundle = fig6_bundle(rate, window, tuple_scale=tuple_scale)
    config = EngineConfig(checkpoint_interval=interval,
                          stagger_checkpoints=stagger, costs=bundle.costs)
    engine = StreamEngine(bundle.topology, bundle.make_logic(), config)
    engine.schedule_task_failure(DEFAULT_FAIL_TIME, bundle.synthetic_tasks)
    engine.run(DEFAULT_DURATION)
    latency = engine.metrics.max_recovery_latency()
    if latency is None:
        raise RuntimeError("correlated recovery incomplete")
    return latency


def ablate_checkpoint_stagger(rates: Sequence[float] = (1000.0, 2000.0),
                              interval: float = 15.0, window: float = 30.0,
                              tuple_scale: float = 16.0) -> FigureResult:
    """Correlated recovery latency with staggered vs aligned checkpoints."""
    rows: list[list[object]] = []
    for rate in rates:
        staggered = _correlated_latency(True, rate=rate, window=window,
                                        interval=interval,
                                        tuple_scale=tuple_scale)
        aligned = _correlated_latency(False, rate=rate, window=window,
                                      interval=interval,
                                      tuple_scale=tuple_scale)
        rows.append([f"{rate:g}t/s", staggered, aligned])
    return FigureResult(
        "Ablation: asynchronous (staggered) vs aligned checkpoints",
        ["rate", "staggered (s)", "aligned (s)"], rows,
        notes="correlated failure, checkpoint interval "
              f"{interval:g}s — async checkpoints force synchronisation",
    )


def ablate_tuple_scale(scales: Sequence[float] = (8.0, 16.0, 32.0),
                       rate: float = 1000.0, window: float = 10.0,
                       interval: float = 15.0) -> FigureResult:
    """Correlated recovery latency must be invariant to the tuple scale."""
    rows: list[list[object]] = []
    for scale in scales:
        latency = _correlated_latency(True, rate=rate, window=window,
                                      interval=interval, tuple_scale=scale)
        rows.append([f"1/{scale:g}", latency])
    return FigureResult(
        "Ablation: tuple-scale invariance of the virtual-time results",
        ["tuple scale", "correlated recovery (s)"], rows,
        notes="rates divided / per-tuple costs multiplied by the same factor",
    )


def ablate_dp_beam(beams: Sequence[int | None] = (None, 8, 2, 1),
                   n_topologies: int = 6, budget_fraction: float = 0.4,
                   seed0: int = 500) -> FigureResult:
    """Plan quality of the beam-limited DP relative to the exact DP."""
    spec = TopologySpec(n_operators=(2, 4), parallelism=(1, 3))
    header = ["beam"] + [f"topo-{i}" for i in range(n_topologies)] + ["mean"]
    rows: list[list[object]] = []
    for beam in beams:
        planner = DynamicProgrammingPlanner(beam=beam)
        values: list[float] = []
        for index in range(n_topologies):
            seed = seed0 + index
            topology = generate_topology(spec, seed)
            rates = propagate_rates(
                topology, generate_source_rates(topology, seed)
            )
            budget = max(1, int(topology.num_tasks * budget_fraction))
            plan = planner.plan(topology, rates, budget)
            values.append(worst_case_fidelity(topology, rates, plan.replicated))
        label = "exact" if beam is None else f"beam={beam}"
        rows.append([label] + values + [sum(values) / len(values)])
    return FigureResult(
        "Ablation: DP beam width vs exact optimality",
        header, rows,
        notes="worst-case OF of the produced plans; exact DP is the optimum",
    )
