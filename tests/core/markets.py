"""Hand-built markets, and a one-player best response, for the core tests."""

import numpy as np

from repro.core import AllocationProblem, Market
from repro.utility.batch import BatchedUtilitySet


def make_market(utilities, capacities, budgets=100.0):
    """A market with one utility per player over ``capacities``.

    ``budgets`` is one value per player, or one value for everyone.
    Players are named ``p0..`` and resources ``r0..``.
    """
    problem = AllocationProblem(
        utilities=list(utilities),
        capacities=capacities,
        resource_names=[f"r{j}" for j in range(len(capacities))],
        player_names=[f"p{i}" for i in range(len(utilities))],
    )
    if isinstance(budgets, (int, float)):
        budgets = [budgets] * problem.num_players
    return Market(problem, budgets)


def best_response(
    bidder, utility, budget, others, capacities, current_bids=None, step_hint=None
):
    """``bidder``'s bid vector for one player, as a one-row block."""
    bids, _ = bidder.optimize_all(
        BatchedUtilitySet([utility]),
        np.zeros(1, dtype=np.intp),
        np.array([budget], dtype=float),
        np.asarray(others, dtype=float)[None, :],
        np.asarray(capacities, dtype=float),
        current_bids=None if current_bids is None else np.asarray(current_bids)[None],
        step_hints=None if step_hint is None else np.array([step_hint], dtype=float),
    )
    return bids[0]
