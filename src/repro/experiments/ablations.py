"""Ablations of the reproduction's design choices.

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
from repro.experiments.recovery import (
    DEFAULT_FAIL_TIME,
    Backend,
    FigureResult,
    fig6_scenario,
    recovery_latency,
    run_cells,
)
from repro.scenarios import FailureSpec, Scenario, ScenarioCache
from repro.topology.generator import (
    TopologySpec,
    generate_source_rates,
    generate_topology,
)
from repro.topology.rates import propagate_rates


def _correlated_scenario(stagger: bool, *, rate: float, window: float,
                         interval: float, tuple_scale: float) -> Scenario:
    """Purely passive recovery of a correlated failure of all 15 tasks."""
    return fig6_scenario(
        f"ablation(stagger={stagger},rate={rate:g},scale={tuple_scale:g})",
        rate=rate, window=window, tuple_scale=tuple_scale,
        failure=FailureSpec("correlated", at=DEFAULT_FAIL_TIME),
        planner="none",
        engine={"checkpoint_interval": interval,
                "stagger_checkpoints": stagger},
    )


def ablate_checkpoint_stagger(rates: Sequence[float] = (1000.0, 2000.0),
                              interval: float = 15.0, window: float = 30.0,
                              tuple_scale: float = 16.0,
                              backend: Backend = None,
                              cache: ScenarioCache | None = None
                              ) -> FigureResult:
    """Correlated recovery latency with staggered vs aligned checkpoints."""
    labels = {True: "staggered", False: "aligned"}
    results = run_cells({
        (rate, stagger): _correlated_scenario(
            stagger, rate=rate, window=window, interval=interval,
            tuple_scale=tuple_scale)
        for rate in rates for stagger in labels
    }, backend, cache)
    rows = [
        [f"{rate:g}t/s"] + [recovery_latency(label, results[(rate, stagger)])
                            for stagger, label in labels.items()]
        for rate in rates
    ]
    return FigureResult(
        "Ablation: asynchronous (staggered) vs aligned checkpoints",
        ["rate", "staggered (s)", "aligned (s)"], rows,
        notes="correlated failure, checkpoint interval "
              f"{interval:g}s — async checkpoints force synchronisation",
    )


def ablate_tuple_scale(scales: Sequence[float] = (8.0, 16.0, 32.0),
                       rate: float = 1000.0, window: float = 10.0,
                       interval: float = 15.0,
                       backend: Backend = None,
                       cache: ScenarioCache | None = None) -> FigureResult:
    """Correlated recovery latency must be invariant to the tuple scale."""
    results = run_cells({
        scale: _correlated_scenario(True, rate=rate, window=window,
                                    interval=interval, tuple_scale=scale)
        for scale in scales
    }, backend, cache)
    rows = [[f"1/{scale:g}", recovery_latency(f"scale {scale:g}", results[scale])]
            for scale in scales]
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
