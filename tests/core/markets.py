"""Hand-built markets for the core tests."""

from repro.core import AllocationProblem, Market


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
