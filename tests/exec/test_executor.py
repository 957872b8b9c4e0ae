"""SweepExecutor: determinism, error isolation, progress, validation."""

import numpy as np
import pytest

from repro.exec import SweepExecutor, SweepProgress


def _draw_cell(spec):
    """Return (spec, one draw from a generator the spec seeds)."""
    rng = np.random.default_rng(spec)
    return spec, float(rng.random())


def _square_cell(spec):
    return spec * spec


def _explode_on_three(spec):
    if spec == 3:
        raise ValueError(f"cell {spec} exploded")
    return spec * 10


class TestDeterminism:
    def test_serial_matches_parallel(self):
        specs = list(range(8))
        serial = SweepExecutor(workers=1).run(_draw_cell, specs)
        pooled = SweepExecutor(workers=4).run(_draw_cell, specs)
        assert serial.values() == pooled.values()

    def test_worker_count_is_invisible(self):
        specs = list(range(6))
        runs = [
            SweepExecutor(workers=w).run(_draw_cell, specs).values()
            for w in (1, 2, 3)
        ]
        assert runs[0] == runs[1] == runs[2]

    def test_results_in_submission_order(self):
        run = SweepExecutor(workers=4).run(_square_cell, [5, 3, 1, 4, 2])
        assert run.values() == [25, 9, 1, 16, 4]
        assert [cell.index for cell in run.cells] == [0, 1, 2, 3, 4]


class TestErrorIsolation:
    def test_failure_recorded_not_raised(self):
        run = SweepExecutor(workers=1).run(_explode_on_three, [1, 2, 3, 4])
        assert run.values() == [10, 20, 40]
        assert len(run.failures) == 1
        failed = run.failures[0]
        assert not failed.ok
        assert "ValueError" in failed.error
        assert "cell 3 exploded" in failed.error

    def test_failure_isolated_under_pool(self):
        run = SweepExecutor(workers=2).run(_explode_on_three, [1, 2, 3, 4])
        assert run.values() == [10, 20, 40]
        assert len(run.failures) == 1

    def test_raise_failures(self):
        run = SweepExecutor(workers=1).run(
            _explode_on_three, [1, 3], labels=["fine", "doomed"]
        )
        with pytest.raises(RuntimeError, match="doomed"):
            run.raise_failures()
        SweepExecutor(workers=1).run(_square_cell, [1, 2]).raise_failures()


class TestProgress:
    def test_beats_cover_every_cell(self):
        beats = []
        executor = SweepExecutor(workers=1, progress=beats.append)
        executor.run(_square_cell, [1, 2, 3], labels=["a", "b", "c"])
        assert [b.completed for b in beats] == [1, 2, 3]
        assert all(isinstance(b, SweepProgress) for b in beats)
        assert all(b.total == 3 for b in beats)
        assert {b.label for b in beats} == {"a", "b", "c"}
        assert beats[-1].eta_s == 0.0

    def test_describe_mentions_failure(self):
        beats = []
        executor = SweepExecutor(workers=1, progress=beats.append)
        executor.run(_explode_on_three, [3], labels=["boom"])
        assert "FAILED" in beats[0].describe()
        assert "boom" in beats[0].describe()


class TestValidation:
    def test_rejects_bad_workers(self):
        with pytest.raises(ValueError, match="workers"):
            SweepExecutor(workers=0)

    def test_rejects_label_mismatch(self):
        with pytest.raises(ValueError, match="labels"):
            SweepExecutor().run(_square_cell, [1, 2], labels=["only-one"])

    def test_empty_specs(self):
        run = SweepExecutor(workers=4).run(_square_cell, [])
        assert run.cells == [] and run.values() == []
