"""Public-API integrity: imports, __all__ consistency, version."""

import importlib

import pytest

import repro

SUBPACKAGES = ["core", "utility", "cmp", "workloads", "sim", "analysis"]


class TestPackage:
    def test_version(self):
        assert repro.__version__ == "1.0.0"

    @pytest.mark.parametrize("name", SUBPACKAGES)
    def test_subpackage_importable(self, name):
        module = importlib.import_module(f"repro.{name}")
        assert module is not None

    @pytest.mark.parametrize("name", SUBPACKAGES)
    def test_all_names_resolve(self, name):
        module = importlib.import_module(f"repro.{name}")
        for symbol in module.__all__:
            assert hasattr(module, symbol), f"repro.{name}.{symbol}"

    def test_top_level_all_resolves(self):
        for symbol in repro.__all__:
            assert hasattr(repro, symbol), symbol

    def test_exceptions_hierarchy(self):
        from repro.exceptions import MarketConfigurationError, ReproError, SanitizerError

        assert issubclass(MarketConfigurationError, ReproError)
        assert issubclass(SanitizerError, ReproError)

    def test_public_entry_points_documented(self):
        # Every public module carries a docstring (the documentation
        # deliverable's floor).
        for name in SUBPACKAGES:
            module = importlib.import_module(f"repro.{name}")
            assert module.__doc__, f"repro.{name} missing docstring"
        assert repro.__doc__
