"""Multiprogrammed workload construction (Section 5).

Six bundle categories are evaluated — *CPBN*, *CCPP*, *CPBB*, *BBNN*,
*BBPN*, *BBCN* — each letter naming one quarter of the bundle's cores.
For an 8-core (64-core) chip, each letter contributes 2 (16)
applications drawn uniformly at random from the applications in that
class; 40 random bundles are generated per category, yielding the 240
bundles of Figure 4.  Sampling is with replacement (the paper's example
BBPC bundle contains two copies each of *apsi*, *swim* and *mcf*).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

from ..cmp.application import AppProfile
from ..cmp.spec_suite import apps_in_class

__all__ = [
    "BUNDLE_CATEGORIES",
    "BUNDLES_PER_CATEGORY",
    "Bundle",
    "category_fingerprint",
    "generate_bundle",
    "generate_bundles",
    "paper_bbpc_bundle",
]

#: The paper's six workload categories.
BUNDLE_CATEGORIES = ("CPBN", "CCPP", "CPBB", "BBNN", "BBPN", "BBCN")

#: Bundles generated per category (Section 5: 40).
BUNDLES_PER_CATEGORY = 40


@dataclass(frozen=True)
class Bundle:
    """One multiprogrammed workload: an ordered list of applications."""

    category: str
    index: int
    apps: tuple

    @property
    def name(self) -> str:
        return f"{self.category}-{self.index:02d}"

    @property
    def num_cores(self) -> int:
        return len(self.apps)

    def app_names(self) -> List[str]:
        return [app.name for app in self.apps]


def category_fingerprint(category: str) -> int:
    """A stable integer identity for a category string.

    The built-in ``hash()`` is salted per process, so it cannot seed
    RNGs reproducibly; this positional character sum can.
    """
    return sum(ord(c) * 31 ** k for k, c in enumerate(category))


def generate_bundle(
    category: str,
    num_cores: int,
    rng: np.random.Generator,
    index: int = 0,
) -> Bundle:
    """Draw one bundle: ``num_cores / 4`` apps per category letter."""
    if len(category) != 4 or any(c not in "CPBN" for c in category):
        raise ValueError(f"category must be 4 letters from CPBN, got {category!r}")
    if num_cores % 4 != 0:
        raise ValueError("num_cores must be divisible by 4")
    per_letter = num_cores // 4
    apps: List[AppProfile] = []
    for letter in category:
        pool = apps_in_class(letter)
        picks = rng.integers(0, len(pool), size=per_letter)
        apps.extend(pool[k] for k in picks)
    return Bundle(category=category, index=index, apps=tuple(apps))


def generate_bundles(
    category: str,
    num_cores: int,
    count: int = BUNDLES_PER_CATEGORY,
    seed: int = 2016,
) -> List[Bundle]:
    """The ``count`` random bundles of one category (deterministic seed)."""
    rng = np.random.default_rng([seed, category_fingerprint(category), num_cores])
    return [generate_bundle(category, num_cores, rng, index=k) for k in range(count)]


def paper_bbpc_bundle() -> Bundle:
    """The 8-core BBPC case study of Section 6.1.1 / Figure 3.

    Four "B" apps (two copies each of *apsi* and *swim*), two "C" apps
    (two copies of *mcf*), and two "P" apps (*hmmer* and *sixtrack*).
    """
    from ..cmp.spec_suite import app_by_name

    apps = (
        app_by_name("apsi"),
        app_by_name("apsi"),
        app_by_name("swim"),
        app_by_name("swim"),
        app_by_name("mcf"),
        app_by_name("mcf"),
        app_by_name("hmmer"),
        app_by_name("sixtrack"),
    )
    return Bundle(category="BBPC", index=0, apps=apps)
