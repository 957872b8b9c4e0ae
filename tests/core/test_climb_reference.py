"""The hill climb reproduces its frozen reference outputs bitwise.

``fixtures/climb_reference.json`` (written by ``make_climb_reference.py``)
pins bids, prices, lambdas, iteration counts and convergence flags of
default-bidder Jacobi, warm, Gauss-Seidel, price-taking, ReBudget and
exact-best-response solves on the 8-core reference problems, plus the
utility-evaluation tallies of every default-bidder Jacobi solve.  Any
change to the climb's arithmetic, its stop rules or its evaluation
dispatches shows up here as an exact mismatch.
"""

import json
from functools import lru_cache

import pytest

from make_climb_reference import FIXTURE, case_runners

REFERENCE = json.loads(FIXTURE.read_text())


@lru_cache(maxsize=None)
def _runners():
    return case_runners()


@pytest.mark.parametrize("case", sorted(REFERENCE))
def test_case_reproduces_reference(case):
    assert _runners()[case]() == REFERENCE[case]


def test_every_case_is_recorded():
    assert sorted(_runners()) == sorted(REFERENCE)

