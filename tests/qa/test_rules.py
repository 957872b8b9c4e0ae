"""Per-rule positive/negative fixtures: every rule must fire on its
minimal bad snippet and stay silent on the good twin."""

import textwrap

import pytest

from repro.qa import Linter


def lint(*named_sources):
    """Lint in-memory ``(path, source)`` pairs; single-string calls get
    a default module path."""
    pairs = []
    for item in named_sources:
        if isinstance(item, str):
            pairs.append(("pkg/mod.py", textwrap.dedent(item)))
        else:
            pairs.append((item[0], textwrap.dedent(item[1])))
    return Linter().lint_sources(pairs)


def rule_ids(report):
    return {f.rule for f in report.findings}


class TestFloatEquality:
    def test_fires_on_float_literal_neq(self):
        report = lint("def f(diff):\n    return diff != 0.0\n")
        assert "REPRO101" in rule_ids(report)

    def test_fires_on_float_call_eq(self):
        report = lint("def f(a, b):\n    return float(a) == b\n")
        assert "REPRO101" in rule_ids(report)

    def test_silent_on_int_comparison(self):
        report = lint("def f(n):\n    return n == 0\n")
        assert "REPRO101" not in rule_ids(report)

    def test_silent_on_isclose_twin(self):
        report = lint(
            """
            import math

            def f(diff):
                return not math.isclose(diff, 0.0, rel_tol=0.0, abs_tol=1e-9)
            """
        )
        assert "REPRO101" not in rule_ids(report)

    def test_silent_on_float_inequality_ordering(self):
        report = lint("def f(x):\n    return x > 0.0\n")
        assert "REPRO101" not in rule_ids(report)


class TestMutableDefaultArg:
    @pytest.mark.parametrize("default", ["[]", "{}", "set()", "dict()", "list()"])
    def test_fires(self, default):
        report = lint(f"def f(x={default}):\n    return x\n")
        assert "REPRO102" in rule_ids(report)

    def test_fires_on_kwonly_default(self):
        report = lint("def f(*, x=[]):\n    return x\n")
        assert "REPRO102" in rule_ids(report)

    def test_silent_on_none_twin(self):
        report = lint(
            """
            def f(x=None):
                if x is None:
                    x = []
                return x
            """
        )
        assert "REPRO102" not in rule_ids(report)

    def test_silent_on_immutable_defaults(self):
        report = lint("def f(x=(), y=0, z='a'):\n    return x, y, z\n")
        assert "REPRO102" not in rule_ids(report)


class TestOverbroadExcept:
    def test_fires_on_bare_except(self):
        report = lint(
            """
            def f():
                try:
                    return 1
                except:
                    return None
            """
        )
        assert "REPRO103" in rule_ids(report)

    def test_fires_on_swallowed_exception(self):
        report = lint(
            """
            def f():
                try:
                    return 1
                except Exception:
                    return None
            """
        )
        assert "REPRO103" in rule_ids(report)

    def test_silent_when_traceback_recorded(self):
        report = lint(
            """
            import traceback

            def f():
                try:
                    return 1
                except Exception:
                    return traceback.format_exc()
            """
        )
        assert "REPRO103" not in rule_ids(report)

    def test_silent_when_reraised(self):
        report = lint(
            """
            def f():
                try:
                    return 1
                except Exception as exc:
                    raise RuntimeError("wrapped") from exc
            """
        )
        assert "REPRO103" not in rule_ids(report)

    def test_silent_on_specific_exception(self):
        report = lint(
            """
            def f(d):
                try:
                    return d["k"]
                except KeyError:
                    return None
            """
        )
        assert "REPRO103" not in rule_ids(report)


class TestUnseededRng:
    def test_fires_on_np_random_global(self):
        report = lint("import numpy as np\nx = np.random.rand(3)\n")
        assert "REPRO104" in rule_ids(report)

    def test_fires_on_np_random_seed(self):
        report = lint("import numpy as np\nnp.random.seed(0)\n")
        assert "REPRO104" in rule_ids(report)

    def test_fires_on_stdlib_random(self):
        report = lint("import random\n\ndef f(x):\n    random.shuffle(x)\n")
        assert "REPRO104" in rule_ids(report)

    def test_fires_on_from_random_import(self):
        report = lint("from random import shuffle\n")
        assert "REPRO104" in rule_ids(report)

    def test_silent_on_seed_sequence_and_default_rng(self):
        report = lint(
            """
            import numpy as np

            def f(seed_seq):
                rng = np.random.default_rng(seed_seq)
                child = np.random.SeedSequence(7)
                return rng, child
            """
        )
        assert "REPRO104" not in rule_ids(report)

    def test_silent_on_explicit_random_instance(self):
        report = lint("import random\nrng = random.Random(7)\n")
        assert "REPRO104" not in rule_ids(report)


WORKER_HARNESS = """
from repro.exec import SweepExecutor

{globals_block}

def worker(spec):
{worker_body}

def run_all(specs):
    executor = SweepExecutor(workers=2)
    return executor.run(worker, specs)
"""


def worker_module(worker_body, globals_block=""):
    body = textwrap.indent(textwrap.dedent(worker_body).strip(), "    ")
    return WORKER_HARNESS.format(globals_block=globals_block, worker_body=body)


class TestWorkerNondeterminism:
    def test_fires_on_mutable_global_in_worker(self):
        report = lint(
            worker_module("_CACHE[spec] = 1\nreturn _CACHE", "_CACHE = {}")
        )
        assert "REPRO105" in rule_ids(report)
        assert any("_CACHE" in f.message for f in report.findings)

    def test_fires_transitively_through_helpers(self):
        source = worker_module("return helper(spec)", "_SEEN = []")
        source += "\ndef helper(s):\n    _SEEN.append(s)\n    return s\n"
        report = lint(source)
        assert "REPRO105" in rule_ids(report)
        assert any("'helper'" in f.message for f in report.findings)

    def test_fires_on_wall_clock_read(self):
        source = worker_module("import time\nreturn time.time()")
        report = lint(source)
        assert "REPRO105" in rule_ids(report)
        assert any("wall clock" in f.message for f in report.findings)

    def test_fires_on_set_iteration(self):
        report = lint(
            worker_module(
                "out = []\nfor x in set(spec):\n    out.append(x)\nreturn out"
            )
        )
        assert "REPRO105" in rule_ids(report)

    def test_silent_on_local_state_twin(self):
        report = lint(
            worker_module(
                "cache = {}\ncache[spec] = 1\n"
                "for x in sorted(set(spec)):\n    cache[x] = x\nreturn cache"
            )
        )
        assert "REPRO105" not in rule_ids(report)

    def test_silent_without_executor_entry(self):
        # Same global mutation, but the function is never handed to a
        # SweepExecutor — single-process code may keep module caches.
        report = lint(
            """
            _CACHE = {}

            def not_a_worker(spec):
                _CACHE[spec] = 1
                return _CACHE
            """
        )
        assert "REPRO105" not in rule_ids(report)

    def test_perf_counter_allowed(self):
        source = worker_module("import time\nreturn time.perf_counter()")
        report = lint(source)
        assert "REPRO105" not in rule_ids(report)

    def test_cross_module_resolution(self):
        runner = """
        from repro.exec import SweepExecutor
        from pkg.cells import cell

        def go(specs):
            ex = SweepExecutor(workers=4)
            return ex.run(cell, specs)
        """
        cells = """
        _HITS = {}

        def cell(spec):
            _HITS[spec] = 1
            return spec
        """
        report = lint(("pkg/runner.py", runner), ("pkg/cells.py", cells))
        assert "REPRO105" in rule_ids(report)
        assert any(f.path == "pkg/cells.py" for f in report.findings)


class TestDunderAllDrift:
    def test_fires_on_missing_all(self):
        report = lint("def public_api():\n    return 1\n")
        assert "REPRO106" in rule_ids(report)

    def test_fires_on_stale_name(self):
        report = lint("__all__ = ['gone']\n\ndef _private():\n    return 1\n")
        assert any(
            f.rule == "REPRO106" and "gone" in f.message for f in report.findings
        )

    def test_fires_on_missing_public_name(self):
        report = lint(
            "__all__ = ['f']\n\ndef f():\n    return 1\n\nCONST = 2\n"
        )
        assert any(
            f.rule == "REPRO106" and "CONST" in f.message for f in report.findings
        )

    def test_silent_on_reconciled_module(self):
        report = lint(
            """
            __all__ = ["CONST", "f"]

            CONST = 2
            _INTERNAL = 3

            def f():
                return CONST

            def _helper():
                return _INTERNAL
            """
        )
        assert "REPRO106" not in rule_ids(report)

    def test_init_reexports_must_be_listed(self):
        report = lint(
            ("pkg/__init__.py", "from .mod import thing\n__all__ = []\n")
        )
        assert any(
            f.rule == "REPRO106" and "thing" in f.message for f in report.findings
        )

    def test_main_module_exempt(self):
        report = lint(("pkg/__main__.py", "def run():\n    return 1\n"))
        assert "REPRO106" not in rule_ids(report)


class TestParseError:
    def test_unparseable_file_is_an_error_finding(self, tmp_path):
        bad = tmp_path / "bad.py"
        bad.write_text("def broken(:\n")
        report = Linter().lint_paths([str(bad)])
        assert [f.rule for f in report.findings] == ["REPRO100"]
        assert report.exit_code() == 1
