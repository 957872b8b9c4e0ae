"""Workload construction: profiling-based C/P/B/N classification and
random multiprogrammed bundle generation (Section 5)."""

from .bundles import (
    BUNDLE_CATEGORIES,
    BUNDLES_PER_CATEGORY,
    Bundle,
    generate_bundle,
    generate_bundles,
    paper_bbpc_bundle,
)
from .classification import (
    PROFILE_CACHE_REGIONS,
    PROFILE_FREQUENCIES_GHZ,
    ApplicationProfileTable,
    Sensitivities,
    classify,
    profile_application,
    sensitivities,
)

__all__ = [
    "PROFILE_CACHE_REGIONS",
    "PROFILE_FREQUENCIES_GHZ",
    "ApplicationProfileTable",
    "Sensitivities",
    "profile_application",
    "sensitivities",
    "classify",
    "BUNDLE_CATEGORIES",
    "BUNDLES_PER_CATEGORY",
    "Bundle",
    "generate_bundle",
    "generate_bundles",
    "paper_bbpc_bundle",
]
