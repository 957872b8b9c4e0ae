"""Theoretical bounds: Theorems 1 and 2 and related quantities.

These closed forms are what Figure 1 of the paper plots, and what
ReBudget uses to translate an administrator's fairness floor into an
MBR constraint.  The empirical benchmarks check every observed
equilibrium against these bounds — they must never be violated.
"""

from __future__ import annotations

import math

__all__ = [
    "ZHANG_EQUAL_BUDGET_EF",
    "poa_lower_bound",
    "ef_lower_bound",
    "min_mbr_for_envy_freeness",
    "zhang_poa_order",
    "check_theorem1",
    "check_theorem2",
]

#: Zhang's worst-case envy-freeness with equal budgets (Lemma 3):
#: ``2 * sqrt(2) - 2 ~= 0.828``.
ZHANG_EQUAL_BUDGET_EF = 2.0 * math.sqrt(2.0) - 2.0


def poa_lower_bound(mur: float) -> float:
    """Theorem 1: PoA lower bound as a function of MUR.

    * ``MUR >= 0.5`` -> ``PoA >= 1 - 1/(4 * MUR)`` (itself >= 0.5);
    * ``MUR <  0.5`` -> ``PoA >= MUR``.
    """
    if not 0.0 <= mur <= 1.0 + 1e-12:
        raise ValueError(f"MUR must lie in [0, 1], got {mur}")
    if mur >= 0.5:
        return 1.0 - 1.0 / (4.0 * mur)
    return mur


def ef_lower_bound(mbr: float) -> float:
    """Theorem 2: any equilibrium is ``(2*sqrt(1+MBR) - 2)``-approx envy-free."""
    if not 0.0 <= mbr <= 1.0 + 1e-12:
        raise ValueError(f"MBR must lie in [0, 1], got {mbr}")
    return 2.0 * math.sqrt(1.0 + mbr) - 2.0


def min_mbr_for_envy_freeness(ef_target: float) -> float:
    """Invert Theorem 2: the smallest MBR guaranteeing ``ef_target``.

    Solving ``2*sqrt(1+MBR) - 2 >= ef`` gives
    ``MBR >= ((ef + 2)/2)^2 - 1``.  The guaranteeable range of targets is
    ``[0, 2*sqrt(2) - 2]`` (the equal-budget worst case); targets outside
    raise ``ValueError``.
    """
    if not 0.0 <= ef_target <= ZHANG_EQUAL_BUDGET_EF + 1e-12:
        raise ValueError(
            f"envy-freeness target must lie in [0, {ZHANG_EQUAL_BUDGET_EF:.3f}], got {ef_target}"
        )
    return min(1.0, ((ef_target + 2.0) / 2.0) ** 2 - 1.0)


def zhang_poa_order(num_players: int) -> float:
    """Lemma 2's asymptotic order ``Theta(1/sqrt(N))`` for reference curves."""
    if num_players < 1:
        raise ValueError("need at least one player")
    return 1.0 / math.sqrt(num_players)


def check_theorem1(mur: float, realized_poa: float, slack: float = 1e-9) -> bool:
    """True when a realized efficiency ratio respects Theorem 1's bound."""
    return realized_poa >= poa_lower_bound(mur) - slack


def check_theorem2(mbr: float, realized_ef: float, slack: float = 1e-9) -> bool:
    """True when a realized envy-freeness respects Theorem 2's bound."""
    return realized_ef >= ef_lower_bound(mbr) - slack
