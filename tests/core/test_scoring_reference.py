"""Fig-4 scoring reproduces its frozen reference outputs bitwise.

``fixtures/scoring_reference.json`` (written by
``make_scoring_reference.py``) pins allocations, utilities, efficiency
and envy-freeness of every standard mechanism on the 8-core bundles,
two 64-core bundles, the 3-resource bandwidth problem and a
non-power-of-two-quantum log market, plus MaxEfficiency's ``steps`` and
one 64-core envy matrix.  Any change to the envy scoring, the optimum's
search order or the utility lookups shows up here as an exact mismatch.
"""

import json
from functools import lru_cache

import pytest

from make_scoring_reference import FIXTURE, case_runners

REFERENCE = json.loads(FIXTURE.read_text())


@lru_cache(maxsize=None)
def _runners():
    return case_runners()


@pytest.mark.parametrize("case", sorted(REFERENCE))
def test_case_reproduces_reference(case):
    assert _runners()[case]() == REFERENCE[case]


def test_every_case_is_recorded():
    assert sorted(_runners()) == sorted(REFERENCE)
    assert sum("envy_matrix" in record for record in REFERENCE.values()) == 1
