"""The ``python -m repro`` command-line harness."""

import pytest

from repro import cli
from repro.analysis import SweepFailure, SweepResult
from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_fig4_defaults(self):
        args = build_parser().parse_args(["fig4"])
        assert args.bundles == 3
        assert args.cores == 64

    def test_fig5_categories(self):
        args = build_parser().parse_args(["fig5", "--categories", "CPBN", "BBNN"])
        assert args.categories == ["CPBN", "BBNN"]


class TestCommands:
    def test_fig1(self, capsys):
        assert main(["fig1"]) == 0
        out = capsys.readouterr().out
        assert "Theorem 1" in out
        assert "Theorem 2" in out

    def test_fig2(self, capsys):
        assert main(["fig2"]) == 0
        out = capsys.readouterr().out
        assert "mcf raw" in out
        assert "vpr hull" in out

    def test_fig3_with_generated_bundle(self, capsys):
        assert main(["fig3", "--bundle-category", "CPBN"]) == 0
        out = capsys.readouterr().out
        assert "MUR" in out
        assert "ReBudget-20" in out

    def test_fig4_small(self, capsys):
        assert main(["fig4", "--bundles", "1", "--cores", "8"]) == 0
        out = capsys.readouterr().out
        assert "Figure 4a series" in out
        assert "EqualBudget" in out

    def test_fig5_small(self, capsys):
        assert main(["fig5", "--epochs", "2", "--cores", "8", "--categories", "CPBN"]) == 0
        out = capsys.readouterr().out
        assert "Figure 5 summary" in out

    def test_convergence_small(self, capsys):
        assert main(["convergence", "--bundles", "1"]) == 0
        out = capsys.readouterr().out
        assert "convergence statistics" in out

    def test_convergence_reports_failed_cells(self, capsys, monkeypatch):
        failure = SweepFailure(
            bundle="CPBN-00", category="CPBN", mechanism="Balanced", error="boom"
        )
        monkeypatch.setattr(
            cli, "run_analytic_sweep", lambda **_: SweepResult(failures=[failure])
        )
        assert main(["convergence", "--bundles", "1"]) == 0
        captured = capsys.readouterr()
        assert "FAILED CPBN-00/Balanced" in captured.err
        assert "convergence statistics" in captured.out

    def test_suite(self, capsys):
        assert main(["suite"]) == 0
        out = capsys.readouterr().out
        assert "mcf" in out and "class" in out

    def test_validate(self, capsys):
        assert main(["validate"]) == 0
        out = capsys.readouterr().out
        assert "UMON" in out and "Futility" in out
