"""API surface checks: docstrings, exports, and the README quickstart."""

import doctest
import importlib
import inspect
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
import repro.cluster
import repro.core
import repro.engine
import repro.experiments
import repro.queries
import repro.scenarios
import repro.service
import repro.topology
import repro.workloads


PACKAGES = [repro, repro.cluster, repro.core, repro.engine, repro.experiments,
            repro.queries, repro.scenarios, repro.service, repro.topology,
            repro.workloads]


def _perf_importable() -> None:
    """Put the repo root on ``sys.path`` so ``perf.*`` imports resolve."""
    repo_root = str(Path(__file__).resolve().parent.parent)
    if repo_root not in sys.path:
        sys.path.insert(0, repo_root)


class TestApiSurface:
    def test_all_exports_resolve(self):
        for package in PACKAGES:
            for name in package.__all__:
                assert hasattr(package, name), f"{package.__name__}.{name}"

    def test_all_lists_are_sorted(self):
        for package in PACKAGES:
            assert list(package.__all__) == sorted(package.__all__), (
                f"{package.__name__}.__all__ is not sorted"
            )

    def test_public_items_have_docstrings(self):
        for package in PACKAGES:
            for name in package.__all__:
                item = getattr(package, name)
                if inspect.isclass(item) or inspect.isfunction(item):
                    assert item.__doc__, f"{package.__name__}.{name} lacks a docstring"

    def test_public_classes_public_methods_documented(self):
        for package in (repro.core, repro.engine, repro.topology):
            for name in package.__all__:
                item = getattr(package, name)
                if not inspect.isclass(item):
                    continue
                for method_name, method in inspect.getmembers(item, inspect.isfunction):
                    if method_name.startswith("_"):
                        continue
                    # getdoc() resolves inherited docstrings for overrides.
                    assert inspect.getdoc(method) is not None, (
                        f"{item.__module__}.{item.__qualname__}.{method_name} "
                        "lacks a docstring"
                    )

    def test_version_string(self):
        assert repro.__version__.count(".") == 2

    def test_execution_backends_and_result_sinks_are_exactly_these(self):
        assert sorted(repro.EXECUTION_BACKENDS.names()) == \
            ["cluster", "processes", "serial"]
        assert sorted(repro.RESULT_SINKS.names()) == \
            ["jsonl", "memory", "sqlite"]

    def test_deleted_surfaces_stay_out_of_every_all(self):
        import repro.cluster

        deleted = {"AdaptationDecision", "DynamicPlanAdapter",
                   "PlanTransition", "MarginalGain", "PlanExplanation",
                   "TaskCriticality", "criticality_report", "explain_plan",
                   "fidelity_under_failures", "marginal_gains", "SshFleet",
                   "DEFAULT_SSH_CMD", "ParquetSink", "ThreadBackend",
                   "CircuitBreaker", "RecoveryContext", "PassiveStrategy"}
        for package in (repro, repro.core, repro.cluster, repro.engine,
                        repro.scenarios):
            assert deleted.isdisjoint(package.__all__), package.__name__
        for module in ("repro.core.adaptation", "repro.core.analysis"):
            with pytest.raises(ImportError):
                importlib.import_module(module)

    def test_every_subcommand_resolves(self):
        from repro.experiments.cli import SUBCOMMANDS, resolve_subcommand

        for name in SUBCOMMANDS:
            assert callable(resolve_subcommand(name)), name

    def test_figure_run_loads_neither_service_nor_cluster(self):
        src = Path(repro.__file__).resolve().parent.parent
        probe = ("import contextlib, io, sys\n"
                 "from repro.experiments.cli import main\n"
                 "with contextlib.redirect_stdout(io.StringIO()):\n"
                 "    assert main(['fig10', '--fast']) == 0\n"
                 "print(sorted(m for m in ('repro.service', 'repro.cluster')"
                 " if m in sys.modules))\n")
        done = subprocess.run([sys.executable, "-c", probe],
                              env={**os.environ, "PYTHONPATH": str(src)},
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "[]"

    def test_lazy_export_tables_match_all_and_dir(self):
        lazy = [package for package in PACKAGES if "_EXPORTS" in vars(package)]
        assert {package.__name__ for package in lazy} >= {
            "repro", "repro.cluster", "repro.experiments", "repro.service",
            "repro.workloads"}
        for package in lazy:
            listed = dir(package)
            for name, module in package._EXPORTS.items():
                assert name in package.__all__, f"{package.__name__}.{name}"
                assert name in listed, f"{package.__name__}.{name}"
                value = getattr(package, name)
                assert value is getattr(importlib.import_module(module), name)

    def test_a_loaded_submodule_never_shadows_an_export(self):
        # Loading ``repro.experiments.claims`` binds the module onto the
        # package as ``claims``; the exported ``claims`` function must stay.
        module = importlib.import_module("repro.experiments.claims")
        setattr(repro.experiments, "claims", module)
        assert repro.experiments.claims is module.claims
        assert inspect.isfunction(repro.experiments.claims)

    def test_cluster_backend_takes_no_ssh_parameters(self):
        from repro.cluster import ClusterBackend

        params = inspect.signature(ClusterBackend).parameters
        assert "ssh_hosts" not in params and "ssh_cmd" not in params
        with pytest.raises(TypeError):
            ClusterBackend(ssh_hosts=["h1"])

    def test_sweep_client_takes_no_breaker(self):
        from repro.service.client import SweepClient

        assert "breaker" not in inspect.signature(SweepClient).parameters
        with pytest.raises(TypeError):
            SweepClient("127.0.0.1:9", breaker=object())


EXAMPLES = sorted((Path(__file__).resolve().parent.parent / "examples")
                  .glob("*.py"))


def _imported(*args: str) -> set[str]:
    """The modules a fresh ``python -X importtime *args`` imports."""
    src = Path(repro.__file__).resolve().parent.parent
    done = subprocess.run([sys.executable, "-X", "importtime", *args],
                          env={**os.environ, "PYTHONPATH": str(src)},
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    return {line.rpartition("|")[2].strip()
            for line in done.stderr.splitlines()
            if line.startswith("import time:")}


class TestColdStartImports:
    """Every entry point imports only the code it runs.

    A cluster worker's start-up is the restart phase of a fleet recovery,
    and it is almost all import time.
    """

    def test_cluster_worker_loads_no_numpy_figure_or_broker_module(self):
        loaded = _imported("-c", "import repro.cluster.worker")
        assert "repro.cluster.worker" in loaded
        assert "numpy" not in loaded
        assert "repro.service.broker" not in loaded
        assert not {m for m in loaded if m.startswith("repro.experiments.")}

    def test_core_loads_neither_engine_nor_scenarios(self):
        loaded = _imported("-c", "import repro.core")
        assert "repro.core.structure_aware" in loaded
        assert not {m for m in loaded
                    if m.startswith(("repro.engine", "repro.scenarios"))}

    def test_worker_subcommand_loads_no_figure_module(self):
        loaded = _imported("-m", "repro.experiments", "worker", "--help")
        assert "repro.cluster.worker" in loaded
        assert {m for m in loaded if m.startswith("repro.experiments.")} \
            <= {"repro.experiments.cli", "repro.experiments.tables"}


class TestExamples:
    """Every script under ``examples/`` runs to completion."""

    def test_examples_found(self):
        assert len(EXAMPLES) >= 9

    @pytest.mark.parametrize("script", EXAMPLES, ids=lambda p: p.name)
    def test_example_exits_cleanly(self, script):
        src = Path(repro.__file__).resolve().parent.parent
        done = subprocess.run([sys.executable, str(script)],
                              env={**os.environ, "PYTHONPATH": str(src)},
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr


class TestDoctests:
    def test_package_quickstart_doctest(self):
        results = doctest.testmod(repro, verbose=False)
        assert results.failed == 0
        assert results.attempted > 0

    def test_builder_doctest(self):
        import repro.topology.builder as builder_module

        results = doctest.testmod(builder_module, verbose=False)
        assert results.failed == 0
        assert results.attempted > 0

    def test_fabric_core_doctests(self):
        import repro.fabric.journal as journal_module
        import repro.fabric.transport as transport_module

        for module in (journal_module, transport_module):
            results = doctest.testmod(module, verbose=False)
            assert results.failed == 0
            assert results.attempted > 0


class TestOneFabricCore:
    """Structure guards: the fabric mechanisms exist exactly once."""

    def test_disk_and_socket_primitives_each_live_in_one_module(self):
        source_root = Path(repro.__file__).resolve().parent
        sources = {path: path.read_text()
                   for path in source_root.rglob("*.py")}
        for primitive, home in (("os.fsync", "fabric/journal.py"),
                                ("socketserver", "fabric/transport.py"),
                                ("socket.create_connection",
                                 "fabric/transport.py"),
                                ("TCP_NODELAY", "fabric/transport.py"),
                                ("disable_nagle_algorithm",
                                 "fabric/transport.py")):
            users = [str(path.relative_to(source_root))
                     for path, text in sources.items() if primitive in text]
            assert users == [home], (primitive, users)

    def test_deleted_compatibility_modules_stay_deleted(self):
        with pytest.raises(ImportError):
            importlib.import_module("repro.experiments.bundles")

    def test_benchmark_probe_targets_still_resolve(self):
        """A refactor that renames a probed callable must go red here,
        not silently null a layer metric in the next benchmark run."""
        _perf_importable()
        from perf.probes import install_fabric_probes
        from perf.trace import Tracer, resolve

        tracer = Tracer()
        try:
            install_fabric_probes(tracer)
        finally:
            tracer.unpatch()
        assert tracer.missing == []
        for name in ("dump_message", "parse_message",
                     "outcome_to_wire", "outcome_from_wire"):
            assert callable(resolve(f"repro.service.protocol:{name}")[2])


class TestOneExperimentRunPath:
    """Structure guards: figures are scenario grids, Fig. 9 the exception."""

    def test_only_fig9_drives_the_engine_directly(self):
        package = Path(repro.experiments.__file__).parent
        sources = {path.name: path.read_text()
                   for path in package.glob("*.py")}
        assert [name for name, text in sources.items()
                if "StreamEngine(" in text] == ["checkpoint_cost.py"]
        assert [name for name, text in sources.items()
                if "passive_strategy" in text] == []

    def test_second_vocabulary_stays_deleted(self):
        for name in ("AccuracySettings", "TechniqueKind", "measured_accuracy",
                     "run_baseline", "settings_for"):
            assert name not in repro.experiments.__all__
            assert not hasattr(repro.experiments, name)
        technique = repro.experiments.DEFAULT_TECHNIQUES[0]
        assert not hasattr(technique, "planner_name")
        assert not hasattr(technique, "engine_overrides")

    def test_tentative_lead_probe_target_resolves(self):
        """``perf/recovery_storm.py`` calls it with no arguments."""
        _perf_importable()
        from perf.trace import resolve

        lead = resolve("repro.experiments.claims:tentative_speedup")[2]
        assert callable(lead)
        signature = inspect.signature(lead)
        assert all(parameter.default is not inspect.Parameter.empty
                   for parameter in signature.parameters.values())


class TestRecoverySchemesAreTriples:
    """Structure guards: built-ins are declarations, each step exists once."""

    def test_builtin_schemes_define_no_machinery(self):
        from repro.engine.recovery import RECOVERY_SCHEMES, RecoveryScheme

        machinery = {name for name, value in vars(RecoveryScheme).items()
                     if inspect.isfunction(value)}
        assert {"restore_task", "on_task_failed", "__init__"} <= machinery
        for name in RECOVERY_SCHEMES.names():
            cls = RECOVERY_SCHEMES.get(name)
            assert issubclass(cls, RecoveryScheme)
            assert not machinery & set(vars(cls)), name

    def test_protocol_steps_exist_once(self):
        package = Path(repro.engine.recovery.__file__).parent
        text = "".join(path.read_text()
                       for path in sorted(package.glob("*.py")))
        for step in ("restore_task", "restore_source", "serve_replay",
                     "ensure_recomputed", "on_failure_detected"):
            assert text.count(f"def {step}(") == 1, step
        # The checkpoint-load, open-passive-recovery and forge-one-batch
        # blocks, by the one thing only they touch.
        for marker in ("per_tuple_load", "restart_delay", "= forged_batch("):
            assert text.count(marker) == 1, marker

    def test_runner_names_no_scheme_and_no_failure_model(self):
        import ast

        from repro.engine.recovery import RECOVERY_SCHEMES
        from repro.scenarios import FAILURE_MODELS, runner

        tree = ast.parse(Path(runner.__file__).read_text())
        literals = {node.value for node in ast.walk(tree)
                    if isinstance(node, ast.Constant)
                    and isinstance(node.value, str)}
        names = set(RECOVERY_SCHEMES.names()) | set(FAILURE_MODELS.names())
        assert not literals & names

    def test_engine_probe_targets_still_resolve(self):
        _perf_importable()
        from perf.probes import install_engine_probes
        from perf.trace import Tracer

        tracer = Tracer()
        try:
            install_engine_probes(tracer)
        finally:
            tracer.unpatch()
        assert tracer.missing == []
