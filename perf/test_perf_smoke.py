"""Tier-1 guard: the benchmark still runs and still emits its schema.

``perf/run.py --smoke`` runs all five workloads at a tiny size, untraced and
traced, and validates every metric name, unit and value against
``BENCHMARK.json`` — so a refactor that breaks a benchmark path (or silently
loses a layer probe) turns this test red instead of the next benchmark run.
"""

import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"


def test_smoke_runs_every_workload_and_validates_schema():
    done = subprocess.run([sys.executable, str(RUN), "--smoke"],
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stdout + done.stderr
    assert "PROBLEM" not in done.stdout
