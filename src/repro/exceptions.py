"""Exception hierarchy for the repro package."""

from __future__ import annotations

__all__ = [
    "ReproError",
    "MarketConfigurationError",
    "SanitizerError",
]


class ReproError(Exception):
    """Base class for all errors raised by this package."""


class MarketConfigurationError(ReproError):
    """A market, player, or mechanism was configured inconsistently."""


class SanitizerError(ReproError):
    """A runtime invariant check (``repro.qa.sanitize``) failed.

    ``invariant`` names the violated contract (e.g.
    ``"rebudget-budget-floor"``) so tests and CI logs can assert on the
    exact guarantee that broke, not just the message text.
    """

    def __init__(self, message: str, invariant: str = ""):
        super().__init__(message)
        self.invariant = invariant
