"""Runtime invariant sanitizer for the market stack (see ``docs/QA.md``).

The paper's guarantees are quantitative domain invariants: Theorem 1/2
bounds only apply for MUR/MBR in [0, 1], ReBudget must never cut a
budget below its MBR floor, and every market clearing must conserve
budgets and capacities.  This module turns those invariants into cheap
contract checks attached at the ``market`` / ``equilibrium`` /
``rebudget`` / ``metrics`` seams, and at the Talus hull of the utility
builder.

The checks are **compiled out by default**: every call site guards with
``if sanitize.ACTIVE:`` — a single module-attribute read — so the hot
path pays nothing measurable when sanitizing is off.  Set
``REPRO_SANITIZE=1`` in the environment (as the sanitized CI job does)
to arm every check; a violation raises :class:`SanitizerError` naming
the violated invariant.

Invariants enforced (identifier -> paper anchor):

* ``price-nonnegative``          — Eq. 1: ``p_j = sum_i b_ij / C_j`` with
  non-negative bids.
* ``spending-within-budget``     — Sec. 2.1: each player's bids sum to at
  most its budget.
* ``allocation-within-capacity`` — Eq. 2: allocations are non-negative
  and per-resource totals never exceed capacity.  The bidding seams
  (scalar and batched alike) apply the per-player form: no single
  player's allocation may exceed a resource's capacity either.
* ``marginal-finite``             — Eq. 7: the marginal utilities the
  hill climb compares must be finite (the first-bid ``y_j == 0`` case is
  mapped to a large finite sentinel before comparison).
* ``mur-in-unit-interval`` / ``mbr-in-unit-interval`` — Defs. 5/6 and
  Theorems 1/2, whose bounds are only defined on [0, 1].
* ``rebudget-budget-floor``      — Sec. 4.2: budgets never fall below
  ``MBR * B`` (nor rise above the initial budget).
* ``equilibrium-convergence-flag`` — Sec. 2.1: a search reported as
  converged must end with round-over-round price stability.
* ``hull-dominates-raw`` / ``hull-concave`` — Secs. 4.1.1 and 6: a
  grid :func:`~repro.cmp.utility_builder.convexify_grid` settled lies on
  or above its raw samples, and is concave along both axes.

Toggling: ``ACTIVE`` is resolved from the environment at import;
:func:`refresh` re-reads it and :func:`enabled` is a context manager
that forces it for a scope (the test seam).
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from typing import Iterator, Optional, Sequence

import numpy as np

from ..exceptions import SanitizerError

__all__ = [
    "ACTIVE",
    "TOLERANCE",
    "SanitizerError",
    "refresh",
    "enabled",
    "check_prices",
    "check_spending",
    "check_allocation",
    "check_player_allocations",
    "check_marginals",
    "check_unit_interval",
    "check_budget_floor",
    "check_convergence",
    "check_hull",
]

#: Absolute slack granted to every comparison: the market stack works in
#: float64 and the invariants are exact only in real arithmetic.
TOLERANCE = 1e-6

#: Absolute slack of the hull checks: the settle tolerance of
#: :func:`~repro.cmp.utility_builder.convexify_grid`.
_HULL_TOLERANCE = 1e-12


def _env_active() -> bool:
    return os.environ.get("REPRO_SANITIZE", "").strip().lower() not in (
        "", "0", "false", "off", "no",
    )


#: The master switch call sites guard on.  Module-level so the disabled
#: fast path is a single attribute read.
ACTIVE: bool = _env_active()


def refresh() -> bool:
    """Re-read ``REPRO_SANITIZE`` from the environment."""
    global ACTIVE
    ACTIVE = _env_active()
    return ACTIVE


@contextmanager
def enabled(value: bool = True) -> Iterator[None]:
    """Force the sanitizer on (or off) for a scope — the test seam."""
    global ACTIVE
    previous = ACTIVE
    ACTIVE = bool(value)
    try:
        yield
    finally:
        ACTIVE = previous


def _fail(invariant: str, detail: str) -> None:
    raise SanitizerError(
        f"invariant {invariant!r} violated: {detail}", invariant=invariant
    )


def check_prices(prices: np.ndarray) -> None:
    """``price-nonnegative``: every resource price is finite and >= 0."""
    prices = np.asarray(prices, dtype=float)
    if not np.all(np.isfinite(prices)):
        _fail("price-nonnegative", f"non-finite price in {prices!r}")
    if np.any(prices < -TOLERANCE):
        _fail(
            "price-nonnegative",
            f"negative price {float(prices.min()):.6g} (Equation 1 requires "
            f"p_j = sum_i b_ij / C_j >= 0)",
        )


def check_spending(bids: np.ndarray, budgets: np.ndarray) -> None:
    """``spending-within-budget``: per-player bid totals <= budget."""
    spending = np.asarray(bids, dtype=float).sum(axis=1)
    budgets = np.asarray(budgets, dtype=float)
    slack = TOLERANCE * np.maximum(1.0, np.abs(budgets))
    over = spending > budgets + slack
    if np.any(over):
        i = int(np.argmax(spending - budgets))
        _fail(
            "spending-within-budget",
            f"player {i} spends {float(spending[i]):.6g} of a "
            f"{float(budgets[i]):.6g} budget",
        )


def check_allocation(allocations: np.ndarray, capacities: np.ndarray) -> None:
    """``allocation-within-capacity``: r >= 0, column sums <= capacity."""
    allocations = np.asarray(allocations, dtype=float)
    capacities = np.asarray(capacities, dtype=float)
    if np.any(allocations < -TOLERANCE):
        _fail(
            "allocation-within-capacity",
            f"negative allocation {float(allocations.min()):.6g}",
        )
    totals = allocations.sum(axis=0)
    slack = TOLERANCE * np.maximum(1.0, np.abs(capacities))
    over = totals > capacities + slack
    if np.any(over):
        j = int(np.argmax(totals - capacities))
        _fail(
            "allocation-within-capacity",
            f"resource {j} allocates {float(totals[j]):.6g} of capacity "
            f"{float(capacities[j]):.6g}",
        )


def check_player_allocations(allocations: np.ndarray, capacities: np.ndarray) -> None:
    """``allocation-within-capacity``, per-player form.

    The bid-to-allocation seams hand out one row per player (or per
    batched climb point); each row must be non-negative and elementwise
    within capacity.  Shared by the scalar and batched paths so a
    vectorized rewrite cannot silently relax the Eq. 2 contract.
    """
    allocations = np.asarray(allocations, dtype=float)
    capacities = np.asarray(capacities, dtype=float)
    if np.any(allocations < -TOLERANCE):
        _fail(
            "allocation-within-capacity",
            f"negative per-player allocation {float(allocations.min()):.6g}",
        )
    slack = TOLERANCE * np.maximum(1.0, np.abs(capacities))
    if np.any(allocations > capacities + slack):
        excess = allocations - capacities
        j = int(np.argmax(excess.max(axis=0) if excess.ndim == 2 else excess))
        _fail(
            "allocation-within-capacity",
            f"a player's allocation on resource {j} exceeds its capacity "
            f"{float(capacities[j]):.6g} (Eq. 2 shares lie in [0, 1])",
        )


def check_marginals(marginals: np.ndarray) -> None:
    """``marginal-finite``: every marginal the climb compares is finite.

    A NaN or infinity here means a utility gradient blew up (or the
    first-bid sentinel substitution was skipped); argmax/argmin over such
    values silently corrupts the climb's donor/recipient choices.
    """
    marginals = np.asarray(marginals, dtype=float)
    if not np.all(np.isfinite(marginals)):
        bad = marginals[~np.isfinite(marginals)]
        _fail(
            "marginal-finite",
            f"non-finite marginal utility {bad.ravel()[0]!r} reached the "
            f"hill climb's comparison step",
        )


def check_unit_interval(name: str, value: float) -> None:
    """``mur/mbr-in-unit-interval``: Definition 5/6 ranges, Theorem 1/2
    domains."""
    invariant = f"{name.strip().lower()}-in-unit-interval"
    value = float(value)
    if not np.isfinite(value) or value < -TOLERANCE or value > 1.0 + TOLERANCE:
        _fail(
            invariant,
            f"{name} = {value!r} outside [0, 1]; Theorem 1/2 bounds are "
            f"undefined there",
        )


def check_budget_floor(
    budgets: np.ndarray,
    floor: float,
    initial_budget: Optional[float] = None,
) -> None:
    """``rebudget-budget-floor``: no budget below ``MBR * B`` (nor above
    the initial budget — ReBudget only ever cuts)."""
    budgets = np.asarray(budgets, dtype=float)
    slack = TOLERANCE * max(1.0, abs(float(floor)))
    if np.any(budgets < floor - slack):
        _fail(
            "rebudget-budget-floor",
            f"budget {float(budgets.min()):.6g} below the MBR floor "
            f"{float(floor):.6g} — the Theorem 2 fairness knob is broken",
        )
    if initial_budget is not None:
        slack = TOLERANCE * max(1.0, abs(float(initial_budget)))
        if np.any(budgets > initial_budget + slack):
            _fail(
                "rebudget-budget-floor",
                f"budget {float(budgets.max()):.6g} above the initial "
                f"budget {float(initial_budget):.6g} — ReBudget only cuts",
            )


def check_convergence(
    converged: bool,
    price_history: Sequence[np.ndarray],
    tolerance: float,
) -> None:
    """``equilibrium-convergence-flag``: converged implies the last two
    price vectors are stable within the search tolerance."""
    if not converged or len(price_history) < 2:
        return
    old = np.asarray(price_history[-2], dtype=float)
    new = np.asarray(price_history[-1], dtype=float)
    reference = np.maximum(np.abs(old), np.abs(new))
    stable = np.abs(new - old) <= (tolerance + TOLERANCE) * np.where(
        reference > 0.0, reference, 1.0
    )
    if not np.all(stable):
        j = int(np.argmax(np.abs(new - old)))
        _fail(
            "equilibrium-convergence-flag",
            f"search reported converged but price {j} moved "
            f"{float(old[j]):.6g} -> {float(new[j]):.6g} in the final "
            f"round (tolerance {tolerance:g})",
        )


def check_hull(
    cache_axis: np.ndarray,
    power_axes: np.ndarray,
    raw: np.ndarray,
    hulled: np.ndarray,
) -> None:
    """``hull-dominates-raw`` and ``hull-concave`` on settled grids.

    ``raw`` and ``hulled`` are ``(G, C, P)`` stacks over the shared
    ``cache_axis`` and each grid's own ``power_axes`` row.  No hulled
    value may lie more than ``_HULL_TOLERANCE`` below its raw sample,
    and along each axis no knot more than that below the chord of its
    two neighbours.  NaN compares False, so NaN cells pass.
    """
    raw = np.asarray(raw, dtype=float)
    hulled = np.asarray(hulled, dtype=float)
    with np.errstate(invalid="ignore", over="ignore"):
        drop = raw - hulled
    if (drop > _HULL_TOLERANCE).any():
        g, i, j = np.unravel_index(np.nanargmax(drop), drop.shape)
        _fail(
            "hull-dominates-raw",
            f"settled grid {g} fell {float(drop[g, i, j]):.6g} below its raw "
            f"sample at cache knot {i}, power knot {j}",
        )
    knots = (
        ("cache", 1, np.asarray(cache_axis, dtype=float)[None, :, None]),
        ("power", 2, np.asarray(power_axes, dtype=float)[:, None, :]),
    )
    for name, axis, x in knots:
        x = np.moveaxis(np.broadcast_to(x, hulled.shape), axis, -1)
        y = np.moveaxis(hulled, axis, -1)
        with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
            share = (x[..., 1:-1] - x[..., :-2]) / (x[..., 2:] - x[..., :-2])
            chord = y[..., :-2] + share * (y[..., 2:] - y[..., :-2])
            below = chord - y[..., 1:-1]
        if (below > _HULL_TOLERANCE).any():
            at = np.unravel_index(np.nanargmax(below), below.shape)
            _fail(
                "hull-concave",
                f"settled grid {at[0]} has a knot {float(below[at]):.6g} below "
                f"the chord of its neighbours along the {name} axis",
            )
