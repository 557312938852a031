"""``planner_sweep`` — the Fig. 14 planner comparison, no engine at all.

Random Sec. VI-C topologies (5-10 operators, parallelism 10-20, Zipf task
weights) of the ``structured`` and ``full`` classes with 0 % and 50 % joins;
on each, the ``greedy`` and the ``structure-aware`` planner plan for
replication fractions 0.1, 0.3 and 0.5.  One operation is one ``plan()``
call; the work unit is plans.  All of the time is ``repro.core`` and
``repro.topology``, which makes this the control for every engine or fabric
change: they must not move it.

What the seed draws.  Planning cost differs a hundredfold between random
topologies (9 ms to 1.3 s here), so a pool drawn from the run seed would
make runs with different seeds incomparable.  The pool's *structure* is
therefore fixed (generator seed 2 for each class, about 2 s a cycle, so a
10 s run samples every plan five times), and the run seed draws
what varies within it: the Zipf exponent of the task weights (0.08-0.12
around the paper's 0.1) and the base source rate (800-1200 around 1000).
``general`` topologies with joins are left out at this size (one plan took
59 s); one small ``general`` topology is timed as a layer metric only.
"""

from __future__ import annotations

import random
import time
from typing import Any

from repro.core.plans import OF_OBJECTIVE, budget_from_fraction
from repro.scenarios import make_bundle, make_planner

from perf.harness import Timing, Workload, median, percentile
from perf.trace import resolve

PLANNERS = ("greedy", "structure-aware")
FRACTIONS = (0.1, 0.3, 0.5)
CLASSES = (("structured", 0.0), ("structured", 0.5),
           ("full", 0.0), ("full", 0.5))
SIZES = {
    "full": {"parallelism": [10, 20], "topology_seeds": (2,)},
    "smoke": {"parallelism": [2, 4], "topology_seeds": (1,)},
}


class PlannerSweep(Workload):
    name = "planner_sweep"
    unit = "plans"

    def __init__(self, seed: int, size: str = "full"):
        super().__init__(seed, size)
        rng = random.Random(seed)
        self.zipf_s = round(rng.uniform(0.08, 0.12), 6)
        self.base_rate = round(rng.uniform(800.0, 1200.0), 3)
        self.bundles: list[Any] = []
        self.labels: list[str] = []
        self.ops: list[tuple] = []
        self.cycle = (len(CLASSES) * len(SIZES[size]["topology_seeds"])
                      * len(PLANNERS) * len(FRACTIONS))
        #: op key -> [OF of the plan, plan size], first cycle.
        self._first: dict[str, list] = {}

    def _bundle(self, topology_class: str, join_fraction: float,
                topology_seed: int, parallelism: list[int]) -> Any:
        return make_bundle(
            "zipf", seed=topology_seed, n_operators=[5, 10],
            parallelism=parallelism, zipf_s=self.zipf_s,
            topology_class=topology_class, join_fraction=join_fraction,
            base_rate=self.base_rate)

    def setup(self, traced: bool = False) -> None:
        params = SIZES[self.size]
        self.bundles, self.labels, self.ops = [], [], []
        for topology_class, join_fraction in CLASSES:
            for topology_seed in params["topology_seeds"]:
                self.bundles.append(self._bundle(
                    topology_class, join_fraction, topology_seed,
                    params["parallelism"]))
                self.labels.append(
                    f"{topology_class}/j{join_fraction:g}/t{topology_seed}")
        for index in range(len(self.bundles)):
            for planner in PLANNERS:
                for fraction in FRACTIONS:
                    self.ops.append((index, planner, fraction))
        self.run_op(0)  # warm-up, discarded

    def run_op(self, index: int) -> tuple[float, Any]:
        op = self.ops[index % self.cycle]
        bundle_index, planner, fraction = op
        bundle = self.bundles[bundle_index]
        budget = budget_from_fraction(bundle.topology, fraction)
        plan = make_planner(planner, OF_OBJECTIVE).plan(
            bundle.topology, bundle.rates, budget)
        return 1, (op, budget, plan)

    def verify(self, index: int, output: Any) -> bool:
        op, budget, plan = output
        bundle = self.bundles[op[0]]
        value = OF_OBJECTIVE.plan_value(bundle.topology, bundle.rates,
                                        plan.replicated)
        record = [value, plan.usage]
        ok = plan.usage <= budget and 0.0 <= value <= 1.0
        key = f"{self.labels[op[0]]}/{op[1]}/{op[2]:g}"
        first = self._first.setdefault(key, record)
        if record != first:
            self.problems.append(f"{key}: repeated plan differs")
            ok = False
        if self.golden is not None \
                and record != self.golden["plans"].get(key):
            self.problems.append(f"{key}: differs from the golden")
            ok = False
        return ok

    def of_sum(self, planner: str) -> float:
        return sum(record[0] for key, record in sorted(self._first.items())
                   if f"/{planner}/" in key)

    def finish_checks(self) -> None:
        # The paper's claim at the level it holds: summed over the pool,
        # structure-aware plans keep at least the fidelity greedy ones do
        # (single topologies can go either way by a hair).
        if self.of_sum("structure-aware") < self.of_sum("greedy"):
            self.problems.append("structure-aware OF sum below greedy's")

    def golden_record(self) -> dict:
        return {"zipf_s": self.zipf_s, "base_rate": self.base_rate,
                "plans": dict(sorted(self._first.items()))}

    # -- layer metrics ---------------------------------------------------
    def layer_metrics(self, timing: Timing) -> dict[str, float]:
        by_planner: dict[str, list[float]] = {p: [] for p in PLANNERS}
        for index, duration in enumerate(timing.durations):
            by_planner[self.ops[index % self.cycle][1]].append(duration * 1e3)
        aware = by_planner["structure-aware"]
        metrics = {
            "core.greedy.plan_ms_p50": median(by_planner["greedy"]),
            "core.structure_aware.plan_ms_p50": median(aware),
            "core.structure_aware.plan_ms_p90": percentile(aware, 0.9),
            "core.structure_aware.plan_ms_max": max(aware),
            "core.plans.of_sum.greedy": self.of_sum("greedy"),
            "core.plans.of_sum.structure-aware":
                self.of_sum("structure-aware"),
        }
        metrics.update(self._micro_probes())
        return metrics

    def _micro_probes(self) -> dict[str, float]:
        """Direct calls into ``repro.topology`` / ``repro.core`` pieces."""
        metrics: dict[str, float] = {}
        missing = self.tracer.missing
        params = SIZES[self.size]

        try:
            generator = resolve("repro.topology.generator:generate_topology")[2]
            spec_cls = resolve("repro.topology.generator:TopologySpec")[2]
            skew = resolve("repro.topology.generator:WeightSkew")[2]
            topo_class = resolve("repro.topology.generator:TopologyClass")[2]
            builds = []
            for topology_class, join_fraction in CLASSES:
                spec = spec_cls(
                    n_operators=(5, 10),
                    parallelism=tuple(params["parallelism"]),
                    weight_skew=skew.ZIPF, zipf_s=self.zipf_s,
                    join_fraction=join_fraction,
                    topology_class=topo_class(topology_class))
                for topology_seed in params["topology_seeds"]:
                    start = time.perf_counter()
                    generator(spec, topology_seed)
                    builds.append((time.perf_counter() - start) * 1e3)
            metrics["topology.generator.build_ms"] = median(builds)
        except (ImportError, AttributeError):
            missing.append("repro.topology.generator:generate_topology")

        try:
            propagate = resolve("repro.topology.rates:propagate_rates")[2]
            uniform = resolve("repro.topology.rates:uniform_source_rates")[2]
            times = []
            for bundle in self.bundles:
                rates = uniform(bundle.topology, self.base_rate)
                start = time.perf_counter()
                propagate(bundle.topology, rates)
                times.append((time.perf_counter() - start) * 1e3)
            metrics["topology.rates.propagate_ms"] = median(times)
        except (ImportError, AttributeError):
            missing.append("repro.topology.rates:propagate_rates")

        try:
            fidelity = resolve("repro.core.fidelity:worst_case_fidelity")[2]
            times = []
            for bundle in self.bundles:
                half = list(bundle.topology.tasks())[::2]
                start = time.perf_counter()
                fidelity(bundle.topology, bundle.rates, half)
                times.append((time.perf_counter() - start) * 1e6)
            metrics["core.fidelity.eval_us"] = median(times)
        except (ImportError, AttributeError):
            missing.append("repro.core.fidelity:worst_case_fidelity")

        # One small `general` topology (mixed full / structured edges).
        bundle = self._bundle("general", 0.5, 0, [2, 5])
        budget = budget_from_fraction(bundle.topology, 0.3)
        start = time.perf_counter()
        make_planner("structure-aware", OF_OBJECTIVE).plan(
            bundle.topology, bundle.rates, budget)
        metrics["core.structure_aware.general_plan_ms"] = \
            (time.perf_counter() - start) * 1e3
        return metrics
