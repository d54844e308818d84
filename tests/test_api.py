"""Public API surface tests: exports exist, exceptions are coherent."""

import importlib

import pytest

import repro
from repro import _exceptions


class TestExports:
    def test_version(self):
        assert repro.__version__

    def test_all_exports_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), f"missing export {name}"

    def test_subpackage_all_exports_resolve(self):
        for package in (
            "repro", "repro.analysis", "repro.awe", "repro.circuit",
            "repro.cli", "repro.core", "repro.obs", "repro.ops", "repro.opt",
            "repro.parallel", "repro.resilience", "repro.routing",
            "repro.serve", "repro.signals", "repro.sta", "repro.workloads",
        ):
            module = importlib.import_module(package)
            assert set(module.__all__) <= set(dir(module)), package
            exports = getattr(module, "_EXPORTS", {})
            assert set(exports) <= set(module.__all__), package
            for name, (defining, attr) in exports.items():
                assert getattr(module, name) is getattr(
                    importlib.import_module(defining), attr), (package, name)
            namespace = {}
            exec(f"from {package} import *", namespace)
            assert set(module.__all__) <= set(namespace), package
            with pytest.raises(AttributeError):
                getattr(module, "no_such_export")


class TestExceptionHierarchy:
    def test_all_derive_from_repro_error(self):
        for name in _exceptions.__all__:
            exc = getattr(_exceptions, name)
            assert issubclass(exc, _exceptions.ReproError)

    def test_convergence_is_analysis_error(self):
        assert issubclass(
            _exceptions.ConvergenceError, _exceptions.AnalysisError
        )

    def test_catchable_at_top_level(self):
        from repro import RCTree, ReproError
        tree = RCTree("in")
        with pytest.raises(ReproError):
            tree.add_node("a", "ghost", 10.0)
