"""Start the sweep server with the fabric probes installed.

Usage: ``python perf/serve_traced.py DUMP.json serve [serve options]``.

The traced pass of the sweep workloads starts the server through this
launcher instead of ``python -m repro.experiments``: it wraps the service
and cluster layers (see :func:`perf.probes.install_fabric_probes`), calls
the very same ``serve`` entry point, and writes the recorded spans to
``DUMP.json`` once the server has drained.
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[0] = str(ROOT)  # the script directory would shadow stdlib `trace`


def main(argv: list[str]) -> int:
    from perf.probes import install_fabric_probes
    from perf.trace import Tracer, resolve

    dump_path, serve_argv = argv[0], argv[1:]
    tracer = Tracer()
    tracer.calibrate()
    install_fabric_probes(tracer)
    try:
        return resolve("repro.experiments.cli:main")[2](serve_argv)
    finally:
        tracer.unpatch()
        tracer.dump(dump_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
