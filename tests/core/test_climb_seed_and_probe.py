"""The lockstep climb's seed and its evaluate-once first iteration.

``HillClimbBidder.optimize_all`` seeds every row in one array pass
(Step 1) and, on hinted calls, reuses the staleness probe's marginals as
its first iteration's.  Two properties pin that down:

* no ``optimize_all`` call evaluates the same Equation 7 point — the
  same ``(player, bid row, others row)`` — twice, while every call still
  returns the scalar oracle's bids bitwise;
* the array seed classifies and rescales each row exactly as the
  per-row :func:`reference_bidding.warm_start_bids` does.
"""

from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from reference_bidding import ScalarHillClimbBidder, warm_start_bids
from repro.core import HillClimbBidder
from repro.core import bidding as bidding_module
from repro.utility import LinearUtility, LogUtility
from repro.utility.batch import BatchedUtilitySet


def scalar_reference(utilities, budgets, others, capacities, current_bids, step_hints):
    """N independent scalar climbs, row for row."""
    bidder = ScalarHillClimbBidder()
    return np.array([
        bidder.optimize(
            utility,
            float(budgets[i]),
            others[i],
            capacities,
            current_bids=None if current_bids is None else current_bids[i],
            step_hint=None if step_hints is None else float(step_hints[i]),
        )
        for i, utility in enumerate(utilities)
    ])


class Recorder:
    """Records every Equation 7 point one ``optimize_all`` call evaluates.

    Wraps the evaluator's ``gradients`` (the one utility dispatch of a
    batched marginal) and the bidding module's batched marginal, which
    is what hands the evaluator its ``(bids, others, players)`` rows.
    """

    def __init__(self, monkeypatch, evaluator):
        self.points = []
        self.dispatches = []
        gradients = evaluator.gradients
        marginals = bidding_module.marginal_utility_of_bids_batch

        def recording_gradients(allocations, players=None):
            self.dispatches.append(np.array(players))
            return gradients(allocations, players)

        def recording_marginals(bids, others, capacities, *, evaluator, players):
            for player, bid_row, other_row in zip(players, bids, others):
                self.points.append((int(player), bid_row.tobytes(), other_row.tobytes()))
            return marginals(bids, others, capacities, evaluator=evaluator, players=players)

        evaluator.gradients = recording_gradients
        monkeypatch.setattr(bidding_module, "marginal_utility_of_bids_batch", recording_marginals)

    def duplicates(self):
        return [point for point, n in Counter(self.points).items() if n > 1]


@pytest.fixture
def market_rows(bbpc_problem):
    """The BBPC grid utilities plus two closed-form players, fixed others."""
    utilities = list(bbpc_problem.utilities) + [
        LogUtility([1.0, 0.5], [2.0e6, 1.0]),
        LinearUtility([1e-7, 0.02]),
    ]
    capacities = bbpc_problem.capacities
    rng = np.random.default_rng(11)
    budgets = rng.uniform(20.0, 150.0, size=len(utilities))
    others = rng.uniform(1.0, 80.0, size=(len(utilities), capacities.size))
    cold = scalar_reference(utilities, budgets, others, capacities, None, None)
    return utilities, budgets, others, capacities, cold


def _seeds(case, budgets, cold):
    """``(budgets, current_bids, step_hints)`` for each covered call shape."""
    rng = np.random.default_rng(5)
    hints = rng.uniform(0.5, 5.0, size=budgets.size)
    near = cold * rng.uniform(0.95, 1.05, size=cold.shape)
    near *= (budgets / near.sum(axis=1))[:, None]
    if case == "cold":
        return budgets, None, None
    if case == "warm":
        return budgets, near, hints
    if case == "stale":
        # Every row's split reversed: far from its best response.
        return budgets, near[:, ::-1].copy(), hints
    if case == "mixed":
        seed = near.copy()
        seed[1] *= 1.5  # bid under another budget
        seed[4, 0] = np.nan
        seed[6] = 0.0
        return budgets, seed, hints
    if case == "zero-budget":
        budgets = budgets.copy()
        budgets[2] = 0.0
        budgets[5] = -3.0
        return budgets, near, hints
    raise ValueError(case)


@pytest.mark.parametrize("case", ["cold", "warm", "stale", "mixed", "zero-budget"])
def test_each_point_is_evaluated_once_and_bids_match_the_oracle(
    monkeypatch, market_rows, case
):
    utilities, budgets, others, capacities, cold = market_rows
    budgets, seed, hints = _seeds(case, budgets, cold)
    evaluator = BatchedUtilitySet(utilities)
    recorder = Recorder(monkeypatch, evaluator)
    bids, _ = HillClimbBidder().optimize_all(
        evaluator, np.arange(len(utilities)), budgets, others, capacities,
        current_bids=seed, step_hints=hints,
    )
    assert recorder.dispatches and all(d.size for d in recorder.dispatches)
    assert sum(d.size for d in recorder.dispatches) == len(recorder.points)
    assert recorder.duplicates() == []
    expected = scalar_reference(utilities, budgets, others, capacities, seed, hints)
    assert bids.tobytes() == expected.tobytes()


def test_stale_case_probes_stale_and_mixed_case_has_cold_rows(market_rows):
    """The fixture cases exercise the branches they are named after."""
    utilities, budgets, others, capacities, cold = market_rows
    oracle = ScalarHillClimbBidder()
    _, stale_seed, _ = _seeds("stale", budgets, cold)
    assert any(
        oracle._stale(stale_seed[i], u, others[i], capacities)
        for i, u in enumerate(utilities)
    )
    _, mixed_seed, _ = _seeds("mixed", budgets, cold)
    usable = [
        warm_start_bids(mixed_seed[i], float(budgets[i]), capacities.size) is not None
        for i in range(budgets.size)
    ]
    assert not all(usable) and any(usable)


# -- Step 1 as one array pass ------------------------------------------------

#: Relative offsets of a seed row's clamped total from its budget, either
#: side of the 1e-6 tolerance ``warm_start_bids`` accepts, including the
#: sliver just above it where the tolerance's ``max(budget, total)`` scale
#: decides.
_TOLERANCE_EDGES = [
    0.0, 5e-7, -5e-7, 9.99e-7, -9.99e-7, 1.0000005e-6, -1.0000005e-6,
    1.001e-6, -1.001e-6, 2e-6, -2e-6, 0.5,
]

_entries = st.one_of(
    st.floats(0.0, 1e3),
    st.floats(-1e3, 0.0),
    st.sampled_from([0.0, -0.0, np.nan, np.inf, -np.inf]),
)


@st.composite
def seeded_calls(draw):
    """``(budgets, current_bids)`` rows covering every seed branch."""
    num_players = draw(st.integers(1, 6))
    num_resources = draw(st.integers(2, 5))
    budgets = np.array(draw(st.lists(
        st.one_of(st.floats(1e-3, 1e3), st.sampled_from([0.0, -1.0, 100.0])),
        min_size=num_players, max_size=num_players,
    )))
    rows = []
    for i in range(num_players):
        kind = draw(st.sampled_from(["raw", "zeros", "on-budget"]))
        if kind == "raw":
            row = draw(st.lists(_entries, min_size=num_resources, max_size=num_resources))
        elif kind == "zeros":
            row = [0.0] * num_resources
        else:
            # Negative entries are clamped away before the total is taken.
            split = np.array(draw(st.lists(
                st.floats(-1.0, 1.0), min_size=num_resources, max_size=num_resources
            )))
            offset = draw(st.sampled_from(_TOLERANCE_EDGES))
            total = np.maximum(split, 0.0).sum()
            scale = abs(budgets[i]) * (1.0 + offset) / total if total > 1e-9 else 0.0
            row = list(split * scale)
        rows.append(row)
    return budgets, np.array(rows, dtype=float)


@given(call=seeded_calls(), hinted=st.booleans())
# A total exactly on the tolerance boundary is accepted.
@example(call=(np.array([1e6, 1e6]), np.array([[5e5, 499999.0], [5e5, 500001.0]])), hinted=True)
@settings(max_examples=300, deadline=None)
def test_array_seed_matches_scalar_warm_start_bids(call, hinted):
    budgets, current_bids = call
    num_players, num_resources = current_bids.shape
    utilities = [LinearUtility(np.linspace(1.0, 2.0, num_resources))] * num_players
    others = np.ones((num_players, num_resources))
    capacities = np.ones(num_resources)

    # Per-row oracle: warm rows keep their rescaled seed, spending rows
    # without a usable seed split equally, the rest stay at zero.
    expected = np.zeros((num_players, num_resources))
    warm = np.zeros(num_players, dtype=bool)
    for i in range(num_players):
        budget = float(budgets[i])
        if budget <= 0.0:
            continue
        seed = warm_start_bids(current_bids[i], budget, num_resources)
        warm[i] = seed is not None
        expected[i] = budget / num_resources if seed is None else seed

    # A stop fraction of 1 makes every climb's first step too small to
    # take, so the call returns its Step-1 bids; the probe (the only
    # dispatch) then reveals which rows were hinted, in order.
    evaluator = BatchedUtilitySet(utilities)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(bidding_module, "_STEP_STOP_FRACTION", 1.0)
        recorder = Recorder(patch, evaluator)
        bids, _ = HillClimbBidder().optimize_all(
            evaluator, np.arange(num_players), budgets, others, capacities,
            current_bids=current_bids,
            step_hints=np.ones(num_players) if hinted else None,
        )
    assert bids.tobytes() == expected.tobytes()
    probed = [d.tolist() for d in recorder.dispatches]
    if hinted and warm.any():
        assert probed == [np.flatnonzero(warm).tolist()]
    else:
        assert probed == []
