"""Shared fixtures for the test suite.

Heavier objects (the BBPC chip, true utilities) are session-scoped so
the many tests that need a realistic multicore allocation problem don't
pay the construction cost repeatedly.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.cmp import ChipModel, cmp_8core
from repro.core import AllocationProblem
from repro.utility import LogUtility
from repro.workloads import paper_bbpc_bundle


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture
def small_market():
    """Three log-utility players over two resources, equal budgets."""
    problem = AllocationProblem(
        utilities=[
            LogUtility([1.0, 0.2], [1.0, 1.0]),
            LogUtility([0.2, 1.0], [1.0, 1.0]),
            LogUtility([0.6, 0.6], [1.0, 1.0]),
        ],
        capacities=[10.0, 5.0],
        resource_names=["cache", "power"],
        player_names=["a", "b", "c"],
    )
    return problem.build_market([100.0] * 3)


@pytest.fixture(scope="session")
def bbpc_chip():
    """The paper's 8-core BBPC case-study chip (Section 6.1.1)."""
    return ChipModel(cmp_8core(), paper_bbpc_bundle().apps)


@pytest.fixture(scope="session")
def bbpc_problem(bbpc_chip):
    """The convexified phase-1 allocation problem for the BBPC chip."""
    return bbpc_chip.build_problem()
