"""The acceptance gate: ``repro lint src/`` is clean, and the exit-code
contract holds on a deliberately bad fixture."""

import json
from pathlib import Path

import repro
from repro.cli import main
from repro.qa import Linter, Severity

#: The installed package's source tree (…/src/repro -> lint the package).
PACKAGE_DIR = Path(repro.__file__).resolve().parent

BAD_FIXTURE = (
    "import numpy as np\n"
    "\n"
    "def f(x=[]):\n"
    "    return np.random.rand(3)\n"
)


class TestSelfLint:
    def test_package_lints_clean(self):
        report = Linter().lint_paths([str(PACKAGE_DIR)])
        details = "\n".join(
            f"{f.location} {f.rule} {f.message}" for f in report.findings
        )
        assert report.findings == [], f"lint findings on src:\n{details}"
        assert report.exit_code(fail_on=Severity.WARNING) == 0

    def test_known_suppressions_are_counted(self):
        # src carries no suppression; new blanket noqas should not
        # creep in unnoticed.
        report = Linter().lint_paths([str(PACKAGE_DIR)])
        assert report.suppressed == 0

    def test_cli_exits_zero_on_clean_tree(self, capsys):
        assert main(["lint", str(PACKAGE_DIR)]) == 0
        assert "0 error(s), 0 warning(s)" in capsys.readouterr().out

    def test_cli_exits_nonzero_on_seeded_bad_fixture(self, tmp_path, capsys):
        bad = tmp_path / "bad.py"
        bad.write_text(BAD_FIXTURE)
        assert main(["lint", str(bad)]) == 1
        out = capsys.readouterr().out
        assert "REPRO102" in out and "REPRO104" in out

    def test_cli_fail_on_warning_tightens_threshold(self, tmp_path, capsys):
        # Only a warning-severity finding (__all__ drift): default
        # threshold passes, --fail-on warning fails.
        warn_only = tmp_path / "warn.py"
        warn_only.write_text("def api():\n    return 1\n")
        assert main(["lint", str(warn_only)]) == 0
        assert main(["lint", str(warn_only), "--fail-on", "warning"]) == 1
        capsys.readouterr()

    def test_cli_json_format_is_valid(self, tmp_path, capsys):
        bad = tmp_path / "bad.py"
        bad.write_text(BAD_FIXTURE)
        assert main(["lint", str(bad), "--format", "json"]) == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["files"] == 1
        assert {f["rule"] for f in doc["findings"]} >= {"REPRO102", "REPRO104"}
