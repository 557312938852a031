"""Shared measurement core: the closed timed loop and what it reads.

Every workload is a :class:`Workload`: ``setup()`` (build inputs, start the
system, run and discard one warm-up operation), ``run_op(i)`` (one timed
operation), ``verify(i, output)`` (untimed correctness check) and
``teardown()``.  :func:`timed_pass` drives one closed loop — the next
operation starts only when the previous one has been checked — over whole
*cycles* of the workload's operation list, as many as come nearest to
``seconds`` of operation time (at least one), so every operation of a cycle
is sampled equally often and the medians do not depend on where the clock
cut the run.
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import resource
import shutil
import signal
import statistics
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Any

PERF = Path(__file__).resolve().parent
ROOT = PERF.parent
SRC = ROOT / "src"
GOLDEN = PERF / "golden"
#: Scratch space of a run; inside the checkout, removed on exit, git-ignored.
WORK = ROOT / ".perf_work"

#: The seed the committed goldens were recorded with.
DEFAULT_SEED = 0
#: A workload that has not finished this long after it started is failed
#: (SIGALRM) instead of hanging the run; the driver's own limit is 180 s.
WALL_CEILING_S = 150


class WorkloadFailure(Exception):
    """A workload could not be measured at all (set-up failed, ceiling hit)."""


class Timing:
    """What one timed pass measured, operation by operation."""

    def __init__(self, cycle: int) -> None:
        self.cycle = cycle
        self.durations: list[float] = []
        #: CPU of the benchmark process during each operation.
        self.cpu: list[float] = []
        self.works: list[float] = []
        self.failed = 0
        #: CPU of the system's other processes over the whole pass.
        self.system_cpu_s = 0.0
        self.first = 0.0
        self.last = 0.0

    @property
    def attempted(self) -> int:
        return len(self.durations)

    @property
    def busy_s(self) -> float:
        return sum(self.durations)

    @property
    def work(self) -> float:
        return sum(self.works)

    def _per_cycle(self, values: list[float]) -> list[float]:
        n = self.cycle
        return [sum(values[i:i + n]) for i in range(0, len(self.works), n)
                if i + n <= len(self.works)]

    @property
    def work_per_s(self) -> float:
        """Median over the pass's cycles of work done per operation second.

        The median, not the total: on a shared machine a slow spell of a
        few seconds then costs one cycle its place, not the run its result.
        """
        rates = [work / busy for work, busy in
                 zip(self._per_cycle(self.works),
                     self._per_cycle(self.durations)) if busy]
        return median(rates)

    @property
    def cpu_s_per_work(self) -> float:
        """This process's CPU per work unit (median over cycles) plus the
        other processes' (their total over the pass)."""
        own = [cpu / work for cpu, work in
               zip(self._per_cycle(self.cpu), self._per_cycle(self.works))
               if work]
        other = self.system_cpu_s / self.work if self.work else 0.0
        return median(own) + other


class Workload:
    """One benchmark workload; subclasses fill in the five methods."""

    name = ""
    #: The work unit ``work_per_s`` counts.
    unit = ""
    #: Operations per cycle (the loop only stops on a cycle boundary).
    cycle = 1

    def __init__(self, seed: int, size: str = "full"):
        self.seed = seed
        self.size = size
        self.tracer = None
        #: Correctness problems found outside single operations.
        self.problems: list[str] = []
        #: Remarks that do not make the run incorrect (a probe target gone).
        self.notes: list[str] = []
        self.golden: dict | None = None
        if seed == DEFAULT_SEED and size == "full":
            self.golden = load_golden(self.name)

    def setup(self, traced: bool = False) -> None:
        raise NotImplementedError

    def teardown(self) -> None:
        """Release what :meth:`setup` acquired (idempotent)."""

    def run_op(self, index: int) -> tuple[float, Any]:
        """Run operation ``index``; returns ``(work units, output)``."""
        raise NotImplementedError

    def verify(self, index: int, output: Any) -> bool:
        raise NotImplementedError

    def finish_checks(self) -> None:
        """Checks that need the whole pass (append to :attr:`problems`)."""

    def system_pids(self) -> list[int]:
        """Processes running the system under test besides this one."""
        return []

    def golden_record(self) -> dict:
        """What ``--write-golden`` stores for this workload."""
        raise NotImplementedError

    def after_traced_pass(self) -> None:
        """Probes that need the system still running (before teardown)."""

    def layer_metrics(self, timing: Timing) -> dict[str, float]:
        """Per-layer metrics of the traced pass (``self.tracer`` is set)."""
        return {}


def timed_pass(workload: Workload, seconds: float) -> Timing:
    """Run the whole cycles of ``workload`` that come nearest to ``seconds``.

    A raising operation counts as failed and ends the pass: the system is
    broken and the rest of the loop would only repeat the failure.
    """
    timing = Timing(workload.cycle)
    tracer = workload.tracer
    pids = workload.system_pids()
    system_cpu = cpu_seconds(pids)
    index = 0
    timing.first = time.perf_counter()
    while True:
        # Every operation starts from the same collector state: what the
        # previous one left behind is freed and the generation counters are
        # reset here, outside the timing.  Without this the cost of the full
        # collections an allocation-heavy run triggers depends on the heap
        # its predecessors left, and run times scatter by +-15 %.
        gc.collect()
        if tracer is not None:
            tracer.op = index
        cpu = time.process_time()
        start = time.perf_counter()
        try:
            if tracer is not None:
                with tracer.span("bench.op"):
                    work, output = workload.run_op(index)
            else:
                work, output = workload.run_op(index)
        except WorkloadFailure:
            raise
        except Exception as exc:  # the operation failed; report, stop
            timing.failed += 1
            workload.problems.append(
                f"op {index} raised {type(exc).__name__}: {exc}")
            work, output = 0, None
        timing.durations.append(time.perf_counter() - start)
        timing.cpu.append(time.process_time() - cpu)
        timing.works.append(work)
        timing.last = time.perf_counter()
        if output is None:
            break
        if not workload.verify(index, output):
            timing.failed += 1
        output = None  # free it before the next operation allocates
        index += 1
        if index % workload.cycle == 0:
            # Whole cycles only, as many as come nearest to `seconds`.
            cycles = index // workload.cycle
            if timing.busy_s + timing.busy_s / cycles / 2 >= seconds:
                break
    if tracer is not None:
        tracer.op = -1
    timing.system_cpu_s = cpu_seconds(pids) - system_cpu
    return timing


@contextmanager
def wall_ceiling(seconds: float, what: str):
    """Fail ``what`` with :class:`WorkloadFailure` after ``seconds`` of wall.

    SIGALRM interrupts even a blocking socket read, so a hung server fails
    the workload (and its ``finally`` blocks still stop every process).
    """
    def on_alarm(signum, frame):  # noqa: ANN001 - signal handler
        raise WorkloadFailure(f"{what} exceeded its {seconds:g}s wall ceiling")

    previous = signal.signal(signal.SIGALRM, on_alarm)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


# -- process accounting (Linux /proc) ----------------------------------------
_TICK = os.sysconf("SC_CLK_TCK") if hasattr(os, "sysconf") else 100


def _stat_fields(pid: int) -> list[str] | None:
    try:
        text = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return None
    # The command name may contain spaces; fields resume after the last ')'.
    return text[text.rfind(")") + 2:].split()


def group_pids(pgid: int) -> list[int]:
    """Every live process in process group ``pgid``."""
    pids = []
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            fields = _stat_fields(int(entry))
            # fields[0] is the state (field 3 of stat), fields[2] the pgrp.
            if fields and fields[0] != "Z" and int(fields[2]) == pgid:
                pids.append(int(entry))
    return pids


def cpu_seconds(pids: list[int]) -> float:
    """User + system CPU the processes ``pids`` have used so far."""
    total = 0.0
    for pid in pids:
        fields = _stat_fields(pid)
        if fields:
            total += (int(fields[11]) + int(fields[12])) / _TICK
    return total


def peak_rss_mb(pids: list[int]) -> float:
    """The largest peak resident set among ``pids`` (this process if empty)."""
    if not pids:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    peak = 0.0
    for pid in pids:
        try:
            status = Path(f"/proc/{pid}/status").read_text()
        except OSError:
            continue
        for line in status.splitlines():
            if line.startswith("VmHWM:"):
                peak = max(peak, int(line.split()[1]) / 1024.0)
    return peak


#: Marks every process a benchmark run starts (workers inherit it), so the
#: exit check can find one that escaped its process group.
OWNER_ENV = "PERF_BENCH_OWNER"


def stray_servers() -> list[int]:
    """Server or worker processes this benchmark process started and that
    are still alive — the no-process-left-behind assertion at exit."""
    marker = f"{OWNER_ENV}={os.getpid()}".encode()
    stray = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit() or int(entry) == os.getpid():
            continue
        try:
            environ = Path(f"/proc/{entry}/environ").read_bytes()
        except OSError:
            continue
        if marker in environ.split(b"\0"):
            stray.append(int(entry))
    return stray


# -- numbers -----------------------------------------------------------------
def percentile(values: list[float], fraction: float) -> float:
    """Nearest-rank percentile (``fraction`` in [0, 1]) of ``values``."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = min(len(ordered) - 1, max(0, round(fraction * (len(ordered) - 1))))
    return ordered[rank]


def median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def calibration_ops_per_s(loops: int = 2_000_000) -> float:
    """A fixed pure-python loop, to tell a slow machine from a slow commit."""
    start = time.perf_counter()
    acc = 0
    for i in range(loops):
        acc += i * i % 7
    return loops / (time.perf_counter() - start)


# -- goldens -----------------------------------------------------------------
def result_digest(result: Any) -> str:
    """SHA-256 of a ``ScenarioResult``'s simulated content.

    The machine-dependent ``profile`` block is left out, so the digest is
    the same on every host and on both kernel backends.
    """
    data = result.to_dict()
    data.pop("profile", None)
    canonical = json.dumps(data, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def load_golden(name: str) -> dict | None:
    path = GOLDEN / f"{name}.json"
    if not path.exists():
        return None
    return json.loads(path.read_text())


def write_golden(name: str, record: dict) -> None:
    GOLDEN.mkdir(exist_ok=True)
    (GOLDEN / f"{name}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True) + "\n")


def work_dir(label: str) -> Path:
    """A fresh scratch directory for ``label`` under :data:`WORK`."""
    path = WORK / f"{label}-{os.getpid()}-{time.monotonic_ns()}"
    path.mkdir(parents=True)
    return path


def remove_work_dirs() -> None:
    """Remove this process's scratch directories (and WORK once empty)."""
    if WORK.exists():
        for path in WORK.glob(f"*-{os.getpid()}-*"):
            shutil.rmtree(path, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass  # another benchmark process still has directories here
