"""The hill climb reproduces its frozen reference outputs bitwise.

``fixtures/climb_reference.json`` (written by ``make_climb_reference.py``)
pins bids, prices, lambdas, iteration counts and convergence flags of
default-bidder Jacobi, warm, Gauss-Seidel, price-taking, ReBudget and
exact-best-response solves on the 8-core reference problems, plus the
utility-evaluation tallies of every default-bidder Jacobi solve.  Any
change to the climb's arithmetic or its stop rules shows up in
:func:`test_case_reproduces_reference`; a change to how many
evaluations it dispatches shows up, on its own, in
:func:`test_case_reproduces_reference_eval_counts`.
"""

import copy
import json
from functools import lru_cache

import pytest

import make_climb_reference
from make_climb_reference import COUNTS, FIXTURE, case_runners
from make_climb_reference import split_counts as _split

REFERENCE = json.loads(FIXTURE.read_text())


@lru_cache(maxsize=None)
def _runners():
    return case_runners()


@lru_cache(maxsize=None)
def _run(case):
    return _runners()[case]()


@pytest.mark.parametrize("case", sorted(REFERENCE))
def test_case_reproduces_reference(case):
    assert _split(_run(case))[0] == _split(REFERENCE[case])[0]


@pytest.mark.parametrize("case", sorted(REFERENCE))
def test_case_reproduces_reference_eval_counts(case):
    assert _split(_run(case))[1] == _split(REFERENCE[case])[1]


def test_split_reaches_every_recorded_count():
    numbers, counts = _split(REFERENCE["bbpc/rebudget-20"])
    rounds = REFERENCE["bbpc/rebudget-20"]["rounds"]
    assert counts.keys() == {f"/rounds/{i}" for i in range(len(rounds))}
    assert COUNTS not in json.dumps(numbers)
    assert _split(REFERENCE["bbpc/jacobi-cold"])[1].keys() == {""}


def test_every_case_is_recorded():
    assert sorted(_runners()) == sorted(REFERENCE)


class TestCountsOnlyRewrite:
    """``make_climb_reference.py --counts-only`` rewrites tallies alone."""

    @staticmethod
    def _rewrite(monkeypatch, tmp_path, cases):
        fixture = tmp_path / "climb_reference.json"
        fixture.write_text(FIXTURE.read_text())
        monkeypatch.setattr(make_climb_reference, "FIXTURE", fixture)
        monkeypatch.setattr(make_climb_reference, "run_cases", lambda: cases)
        return make_climb_reference.main(["--counts-only"]), json.loads(fixture.read_text())

    def test_writes_when_only_counts_move(self, monkeypatch, tmp_path):
        cases = copy.deepcopy(REFERENCE)
        cases["bbpc/jacobi-cold"][COUNTS]["batch_points"] += 1
        status, written = self._rewrite(monkeypatch, tmp_path, cases)
        assert status == 0 and written == cases

    @pytest.mark.parametrize("field", ["iterations", "missing-case"])
    def test_refuses_when_anything_else_moves(self, monkeypatch, tmp_path, field):
        cases = copy.deepcopy(REFERENCE)
        cases["bbpc/jacobi-cold"][COUNTS]["batch_points"] += 1
        if field == "iterations":
            cases["bbpc/jacobi-warm"]["iterations"] += 1
        else:
            del cases["small/exact-cold"]
        status, written = self._rewrite(monkeypatch, tmp_path, cases)
        assert status == 1 and written == REFERENCE
