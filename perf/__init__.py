"""The repo benchmark: five workloads, five end-to-end metrics, a per-layer trace.

Run it with ``python3 perf/run.py`` from the repo root; see ``perf/README.md``.
"""
