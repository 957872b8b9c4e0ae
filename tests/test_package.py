"""Public-API integrity: imports, __all__ consistency, version, and a
public surface that something besides the tests uses."""

import ast
import importlib
import re
from pathlib import Path

import pytest

import repro

SUBPACKAGES = ["core", "utility", "cmp", "workloads", "sim", "analysis"]

ROOT = Path(__file__).resolve().parents[1]

#: Where a reference keeps a public name alive: everything but tests/.
USING_TREES = ("src", "benchmarks", "perfbench", "scripts", "examples")

#: Public names that nothing outside tests/ references, kept on purpose.
#: An entry leaves this list when its name gains a user or goes away.
SURFACE_ALLOWLIST = {
    # Oracles and test seams.
    "repro.cmp.umon.UMONShadowTags.observe": "full-stream oracle of observe_sampled",
    "repro.qa.engine.Linter.lint_sources": "lints in-memory sources without files",
    "repro.utility.base.UtilityFunction.gradient": (
        "per-point oracle that batched gradients equal bitwise"
    ),
    # Safety code: switches for the invariant sanitizer.
    "repro.qa.sanitize.refresh": "re-reads REPRO_SANITIZE after the env changes",
    "repro.qa.sanitize.enabled": "forces the sanitizer on or off for a scope",
    # Inputs to the planned PoA and equilibrium certificates (ROADMAP).
    "repro.core.metrics.price_of_anarchy": "realized Nash/OPT ratio of Theorem 1",
    "repro.core.theory.check_theorem1": "Theorem 1 bound check on a realized PoA",
    "repro.core.theory.check_theorem2": "Theorem 2 bound check on a realized EF",
    "repro.core.market.Market.is_strongly_competitive": "Lemma 1's existence premise",
    # Checks of the paper's hardware-cost and Talus claims.
    "repro.cmp.umon.UMONShadowTags.storage_overhead_bytes": "Section 5's 3.6 kB per core",
    "repro.cmp.futility.FutilityScalingController.storage_overhead_fraction": (
        "the paper's ~1.5% futility state"
    ),
    "repro.cmp.talus.TalusController.realized_value": "Talus realizes the hull",
    # Utility families the property tests build random markets from.
    "repro.utility.functions.CobbDouglasUtility": "concave family of market properties",
    "repro.utility.functions.AdditiveUtility": "concave family of market properties",
    "repro.utility.functions.ScaledUtility": "concave family of market properties",
}

_DOTTED = re.compile(r"^[A-Za-z_][\w.]*$")


def _public_definitions():
    """``(qualified name, module tail, name, is_method)`` of every public
    top-level function and class under ``src/repro`` and every public
    method of those classes (dunders are private here)."""
    for path in sorted((ROOT / "src" / "repro").rglob("*.py")):
        module = ".".join(path.relative_to(ROOT / "src").with_suffix("").parts)
        tail = module.rsplit(".", 1)[-1]
        for node in ast.parse(path.read_text()).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            if node.name.startswith("_"):
                continue
            yield f"{module}.{node.name}", tail, node.name, False
            if isinstance(node, ast.ClassDef):
                for sub in node.body:
                    if isinstance(sub, ast.FunctionDef) and not sub.name.startswith("_"):
                        yield f"{module}.{node.name}.{sub.name}", tail, sub.name, True


def _references():
    """Names used outside tests/: bare names and ``module:attr`` pairs
    (``sanitize:refresh`` for ``_sanitize.refresh`` after ``import sanitize
    as _sanitize``), for top-level definitions; any attribute name, for
    methods.  Dotted strings count, as the benchmark tracer patches layers
    by path; package ``__init__`` re-exports and ``__all__`` lists do not."""
    bare, qualified, attributes = set(), set(), set()
    for tree in USING_TREES:
        for path in (ROOT / tree).rglob("*.py"):
            package_init = tree == "src" and path.name == "__init__.py"
            body = [
                node
                for node in ast.parse(path.read_text()).body
                if not (package_init and isinstance(node, ast.ImportFrom))
                and not (
                    isinstance(node, ast.Assign)
                    and any(getattr(t, "id", None) == "__all__" for t in node.targets)
                )
            ]
            aliases = {}
            nodes = [n for top in body for n in ast.walk(top)]
            for node in nodes:
                if isinstance(node, ast.alias):
                    name = node.name.rsplit(".", 1)[-1]
                    aliases[node.asname or name] = name
                    bare.add(name)
            for node in nodes:
                if isinstance(node, ast.Name):
                    bare.add(node.id)
                elif isinstance(node, ast.Attribute):
                    attributes.add(node.attr)
                    if isinstance(node.value, ast.Name):
                        owner = aliases.get(node.value.id, node.value.id)
                        qualified.add(f"{owner}:{node.attr}")
                elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                    if _DOTTED.match(node.value):
                        parts = node.value.split(".")
                        attributes.update(parts)
                        bare.add(parts[-1])
                        qualified.update(f"{a}:{b}" for a, b in zip(parts, parts[1:]))
    return bare, qualified, attributes


def _unreferenced_public_names():
    bare, qualified, attributes = _references()
    unused = set()
    for name, tail, short, is_method in _public_definitions():
        used = (
            short in attributes
            if is_method
            else short in bare or f"{tail}:{short}" in qualified
        )
        if not used:
            unused.add(name)
    return unused


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


class TestPublicSurface:
    """Every public function, class and method has a user outside tests/
    (the library itself, a benchmark, a script or an example), or a
    reason on :data:`SURFACE_ALLOWLIST`."""

    def test_every_public_name_is_used_or_allowlisted(self):
        unexplained = sorted(_unreferenced_public_names() - set(SURFACE_ALLOWLIST))
        assert unexplained == [], (
            "public names only tests reach; retire them or allowlist them "
            f"with a reason: {unexplained}"
        )

    def test_allowlist_holds_only_unreferenced_definitions(self):
        defined = {name for name, *_ in _public_definitions()}
        stale = sorted(
            name
            for name in SURFACE_ALLOWLIST
            if name not in defined or name not in _unreferenced_public_names()
        )
        assert stale == []
