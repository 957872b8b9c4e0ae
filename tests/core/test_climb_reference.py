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

import json
from functools import lru_cache

import pytest

from make_climb_reference import FIXTURE, case_runners

REFERENCE = json.loads(FIXTURE.read_text())

COUNTS = "eval_counts"


@lru_cache(maxsize=None)
def _runners():
    return case_runners()


@lru_cache(maxsize=None)
def _run(case):
    return _runners()[case]()


def _split(record):
    """``(record without eval_counts, eval_counts)`` at any nesting depth.

    Counts are collected with their path, so a ReBudget case's per-round
    tallies stay attributed to their round.
    """
    counts = {}

    def strip(node, path):
        if isinstance(node, dict):
            if COUNTS in node:
                counts[path] = node[COUNTS]
            return {k: strip(v, f"{path}/{k}") for k, v in node.items() if k != COUNTS}
        if isinstance(node, list):
            return [strip(v, f"{path}/{i}") for i, v in enumerate(node)]
        return node

    return strip(record, ""), counts


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
