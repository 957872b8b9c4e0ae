"""Multiprogrammed bundle generation."""

import numpy as np
import pytest

from repro.cmp.spec_suite import INTENDED_CLASS
from repro.workloads import (
    BUNDLE_CATEGORIES,
    BUNDLES_PER_CATEGORY,
    generate_bundle,
    generate_bundles,
    paper_bbpc_bundle,
)


class TestGenerateBundle:
    def test_composition_follows_category(self, rng):
        bundle = generate_bundle("CPBN", 8, rng)
        classes = [INTENDED_CLASS[a.name] for a in bundle.apps]
        assert classes == ["C", "C", "P", "P", "B", "B", "N", "N"]

    def test_64_core_composition(self, rng):
        bundle = generate_bundle("CCPP", 64, rng)
        classes = [INTENDED_CLASS[a.name] for a in bundle.apps]
        assert classes.count("C") == 32
        assert classes.count("P") == 32

    def test_sampling_with_replacement(self, rng):
        # 16 draws from a 6-app class must repeat applications.
        bundle = generate_bundle("CCCC", 64, rng)
        names = bundle.app_names()
        assert len(set(names)) < len(names)

    def test_validation(self, rng):
        with pytest.raises(ValueError):
            generate_bundle("CPX", 8, rng)
        with pytest.raises(ValueError):
            generate_bundle("CPXZ", 8, rng)
        with pytest.raises(ValueError):
            generate_bundle("CPBN", 10, rng)


class TestGenerateBundles:
    def test_deterministic_for_seed(self):
        a = generate_bundles("CPBN", 8, count=5, seed=7)
        b = generate_bundles("CPBN", 8, count=5, seed=7)
        assert [x.app_names() for x in a] == [y.app_names() for y in b]

    def test_different_seeds_differ(self):
        a = generate_bundles("CPBN", 64, count=5, seed=7)
        b = generate_bundles("CPBN", 64, count=5, seed=8)
        assert [x.app_names() for x in a] != [y.app_names() for y in b]

    def test_prefix_stability(self):
        # Small sweeps are strict subsets of big ones (same seed).
        small = generate_bundles("BBPN", 8, count=3, seed=7)
        big = generate_bundles("BBPN", 8, count=10, seed=7)
        assert [x.app_names() for x in small] == [y.app_names() for y in big[:3]]

    def test_names(self):
        bundles = generate_bundles("BBCN", 8, count=2)
        assert bundles[0].name == "BBCN-00"
        assert bundles[1].name == "BBCN-01"


class TestGenerateAll:
    def test_paper_scale(self):
        # Every category generates: the sweep's 6 x count bundles.
        for category in BUNDLE_CATEGORIES:
            bundles = generate_bundles(category, 8, count=2)
            assert [b.name for b in bundles] == [f"{category}-00", f"{category}-01"]

    def test_default_counts_are_papers(self):
        assert BUNDLES_PER_CATEGORY == 40
        assert len(BUNDLE_CATEGORIES) == 6


class TestPaperBundle:
    def test_bbpc_composition(self):
        bundle = paper_bbpc_bundle()
        names = bundle.app_names()
        assert names.count("apsi") == 2
        assert names.count("swim") == 2
        assert names.count("mcf") == 2
        assert names.count("hmmer") == 1
        assert names.count("sixtrack") == 1
        assert bundle.num_cores == 8
