"""The paper's core: proportional-share market, equilibrium search,
MUR/MBR metrics, theoretical bounds, and the ReBudget reassignment loop."""

from .bidding import (
    BiddingStrategy,
    ExactBidder,
    HillClimbBidder,
    PriceTakingBidder,
)
from .equilibrium import EquilibriumResult, WarmStart, find_equilibria, find_equilibrium
from .market import Market, MarketState
from .mechanisms import (
    AllocationMechanism,
    AllocationProblem,
    BalancedBudget,
    ElasticitiesProportional,
    EqualBudget,
    EqualShare,
    MaxEfficiency,
    MechanismResult,
    ReBudgetMechanism,
    allocate_all,
    clamp_to_per_player_caps,
    standard_mechanism_suite,
)
from .metrics import (
    efficiency,
    envy_freeness,
    envy_matrix,
    market_budget_range,
    market_utility_range,
    price_of_anarchy,
)
from .optimum import GreedyOptimum, max_efficiency_allocation
from .player import marginal_utility_of_bids_batch
from .rebudget import (
    ReBudgetConfig,
    ReBudgetLoop,
    ReBudgetResult,
    ReBudgetRound,
    run_rebudget,
)
from .theory import (
    check_theorem1,
    check_theorem2,
    ef_lower_bound,
    min_mbr_for_envy_freeness,
    poa_lower_bound,
    zhang_poa_order,
)

__all__ = [
    "marginal_utility_of_bids_batch",
    "Market",
    "MarketState",
    "BiddingStrategy",
    "HillClimbBidder",
    "ExactBidder",
    "PriceTakingBidder",
    "EquilibriumResult",
    "WarmStart",
    "find_equilibrium",
    "find_equilibria",
    "efficiency",
    "envy_freeness",
    "envy_matrix",
    "price_of_anarchy",
    "market_utility_range",
    "market_budget_range",
    "poa_lower_bound",
    "ef_lower_bound",
    "min_mbr_for_envy_freeness",
    "zhang_poa_order",
    "check_theorem1",
    "check_theorem2",
    "ReBudgetConfig",
    "ReBudgetResult",
    "ReBudgetRound",
    "ReBudgetLoop",
    "run_rebudget",
    "GreedyOptimum",
    "max_efficiency_allocation",
    "AllocationProblem",
    "MechanismResult",
    "AllocationMechanism",
    "EqualShare",
    "EqualBudget",
    "BalancedBudget",
    "ReBudgetMechanism",
    "allocate_all",
    "MaxEfficiency",
    "ElasticitiesProportional",
    "clamp_to_per_player_caps",
    "standard_mechanism_suite",
]
