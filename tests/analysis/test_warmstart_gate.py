"""Warm-started epochs beat cold starts on the default warm-start bench.

These are the limits ``scripts/bench_warmstart.py --check`` enforces,
run as part of the tier-1 suite: :func:`run_warmstart_bench` at its
default 8-core scale (about 3 s).
"""

import pytest

from repro.analysis import run_warmstart_bench


@pytest.fixture(scope="module")
def bench():
    return run_warmstart_bench()


def test_warm_epochs_take_fewer_iterations_overall(bench):
    overall = bench["overall"]
    assert overall["warm_iterations"] < overall["cold_iterations"]


def test_warm_restart_takes_fewer_iterations_on_the_reference_problem(bench):
    reference = bench["reference"]
    assert reference["warm_iterations"] < reference["cold_iterations"]


def test_reference_warm_equilibrium_price_is_within_the_tolerance_of_cold(bench):
    # The paper's 1% price-convergence tolerance.
    assert bench["reference"]["max_price_divergence"] <= 0.01
