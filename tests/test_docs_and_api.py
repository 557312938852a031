"""API surface checks: docstrings, exports, and the README quickstart."""

import doctest
import importlib
import inspect
import sys
from pathlib import Path

import pytest

import repro
import repro.core
import repro.engine
import repro.experiments
import repro.queries
import repro.scenarios
import repro.topology
import repro.workloads


PACKAGES = [repro, repro.core, repro.engine, repro.experiments,
            repro.queries, repro.scenarios, repro.topology, repro.workloads]


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
        repo_root = str(Path(__file__).resolve().parent.parent)
        if repo_root not in sys.path:
            sys.path.insert(0, repo_root)
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
