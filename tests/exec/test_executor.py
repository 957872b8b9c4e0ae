"""SweepExecutor: determinism, error isolation, progress, validation."""

import numpy as np
import pytest

from repro.exec import SweepExecutor, SweepProgress
from repro.utility import LogUtility
from repro.utility.batch import BatchedUtilitySet


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


def _three_cells(spec):
    """A work item of three cells, finished in reverse order; cell 1
    fails alone when ``spec`` is odd."""
    for k in (2, 1, 0):
        if k == 1 and spec % 2:
            yield k, ValueError(f"item {spec} cell 1 failed")
        else:
            yield k, (spec, k)


def _dies_after_one(spec):
    yield 1, "first"
    raise KeyError("item died")


def _forgets_a_cell(spec):
    yield 0, "only"


def _counted_cells(spec):
    """One batched value dispatch per cell, ``spec + 1`` rows each."""
    evaluator = BatchedUtilitySet([LogUtility([1.0], [1.0])])
    for k in range(2):
        yield k, float(evaluator.values(np.ones((spec + 1, 1))).sum())


class TestMultiCellItems:
    def test_cells_in_submission_order(self):
        run = SweepExecutor(workers=1).run(
            _three_cells, [0, 2], labels=[("a", "b", "c"), ("d", "e", "f")]
        )
        assert [cell.label for cell in run.cells] == list("abcdef")
        assert [cell.index for cell in run.cells] == list(range(6))
        assert run.values() == [(0, 0), (0, 1), (0, 2), (2, 0), (2, 1), (2, 2)]

    @pytest.mark.parametrize("workers", [1, 2])
    def test_a_yielded_exception_fails_its_cell_alone(self, workers):
        run = SweepExecutor(workers=workers).run(
            _three_cells, [1, 2], labels=[("a", "b", "c"), ("d", "e", "f")]
        )
        assert [cell.label for cell in run.failures] == ["b"]
        assert "item 1 cell 1 failed" in run.failures[0].error
        assert "ValueError" in run.failures[0].error
        assert len(run.values()) == 5

    def test_an_escaping_exception_fails_the_unfinished_cells(self):
        run = SweepExecutor(workers=1).run(
            _dies_after_one, [0], labels=[("a", "b", "c")]
        )
        assert [(cell.label, cell.ok) for cell in run.cells] == [
            ("a", False), ("b", True), ("c", False),
        ]
        assert all("item died" in cell.error for cell in run.failures)

    def test_a_cell_without_an_outcome_fails(self):
        run = SweepExecutor(workers=1).run(_forgets_a_cell, [0], labels=[("a", "b")])
        assert [cell.ok for cell in run.cells] == [True, False]
        assert "no outcome" in run.cells[1].error

    def test_in_process_beats_per_cell_in_completion_order(self):
        beats = []
        SweepExecutor(workers=1, progress=beats.append).run(
            _three_cells, [0], labels=[("a", "b", "c")]
        )
        assert [(b.label, b.completed, b.total) for b in beats] == [
            ("c", 1, 3), ("b", 2, 3), ("a", 3, 3),
        ]

    @pytest.mark.parametrize("workers", [1, 2])
    def test_cells_carry_their_eval_counts(self, workers):
        run = SweepExecutor(workers=workers).run(
            _counted_cells, [0, 3], labels=[("a", "b"), ("c", "d")]
        )
        assert [cell.eval_counts["batch_points"] for cell in run.cells] == [1, 1, 4, 4]
        assert run.eval_counts["batch_value_calls"] == 4
        assert run.eval_counts["batch_points"] == 10
