"""Utility construction reproduces its frozen reference grids bitwise.

``fixtures/utility_grid_reference.json`` (written by
``make_utility_grid_reference.py``) pins the true-utility grids of the
six ``<category>-00`` bundles on 8 and 64 cores with and without
convexification, every monitored grid of one 8-core run with a context
switch, and the per-epoch extras of that run with and without runtime
monitors.  Any change to the power-to-frequency inversion, the Talus
hull, the miss-curve sampling or the simulator's utility bookkeeping
shows up here as an exact mismatch.
"""

import json
from functools import lru_cache

import pytest

from make_utility_grid_reference import FIXTURE, case_runners

REFERENCE = json.loads(FIXTURE.read_text())


@lru_cache(maxsize=None)
def _runners():
    return case_runners()


@pytest.mark.parametrize("case", sorted(REFERENCE))
def test_case_reproduces_reference(case):
    assert _runners()[case]() == REFERENCE[case]


def test_every_case_is_recorded():
    assert sorted(_runners()) == sorted(REFERENCE)
    # One market problem per epoch, with one grid per core.
    assert len(REFERENCE["monitored"]["grids_sha256"]) == 30
    assert {len(epoch) for epoch in REFERENCE["monitored"]["grids_sha256"]} == {8}
