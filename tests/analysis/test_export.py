"""CSV export of sweeps and simulation scores."""

import csv
import io

import pytest

from repro.analysis import run_analytic_sweep
from repro.analysis.export import sweep_to_csv, write_csv
from repro.cmp import cmp_8core
from repro.core import EqualBudget, EqualShare, MaxEfficiency


@pytest.fixture(scope="module")
def sweep():
    return run_analytic_sweep(
        config=cmp_8core(),
        bundles_per_category=1,
        categories=("CPBN",),
        mechanisms_factory=lambda: [EqualShare(), EqualBudget(), MaxEfficiency()],
    )


class TestSweepCsv:
    def test_rows_and_columns(self, sweep):
        text = sweep_to_csv(sweep)
        rows = list(csv.DictReader(io.StringIO(text)))
        assert len(rows) == 3  # 1 bundle x 3 mechanisms
        assert rows[0]["bundle"] == "CPBN-00"
        assert {r["mechanism"] for r in rows} == {
            "EqualShare",
            "EqualBudget",
            "MaxEfficiency",
        }

    def test_numeric_fields_parse(self, sweep):
        rows = list(csv.DictReader(io.StringIO(sweep_to_csv(sweep))))
        for row in rows:
            assert 0.0 <= float(row["efficiency_vs_opt"]) <= 1.0 + 1e-6
            assert 0.0 <= float(row["envy_freeness"]) <= 1.0

    def test_mur_blank_for_non_market_mechanisms(self, sweep):
        rows = list(csv.DictReader(io.StringIO(sweep_to_csv(sweep))))
        by_mech = {r["mechanism"]: r for r in rows}
        assert by_mech["EqualShare"]["mur"] == ""
        assert by_mech["EqualBudget"]["mur"] != ""


class TestWriteCsv:
    def test_writes_file(self, tmp_path, sweep):
        path = tmp_path / "sweep.csv"
        write_csv(sweep_to_csv(sweep), path)
        assert path.read_text().startswith("order,bundle")
