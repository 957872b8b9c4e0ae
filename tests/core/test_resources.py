"""Resource descriptors."""

import numpy as np
import pytest

from repro.core import Market, Player, Resource, ResourceSet
from repro.exceptions import MarketConfigurationError
from repro.utility import LinearUtility


class TestResource:
    def test_fields(self):
        r = Resource("cache", 4.0e6, unit="bytes")
        assert r.name == "cache"
        assert r.capacity == 4.0e6
        assert r.unit == "bytes"

    def test_rejects_nonpositive_capacity(self):
        with pytest.raises(MarketConfigurationError):
            Resource("cache", 0.0)
        with pytest.raises(MarketConfigurationError):
            Resource("cache", -1.0)

    @pytest.mark.parametrize("capacity", [float("nan"), float("inf"), -float("inf")])
    def test_rejects_non_finite_capacity(self, capacity):
        with pytest.raises(MarketConfigurationError, match="finite"):
            Resource("cache", capacity)

    def test_non_finite_inputs_fail_at_construction_not_in_the_market(self):
        resources = ResourceSet.of(Resource("cache", 4.0), Resource("power", 2.0))
        utility = LinearUtility([1.0, 1.0])
        Market(resources, [Player("a", utility, 10.0)])
        with pytest.raises(MarketConfigurationError, match="budget"):
            Market(resources, [Player("a", utility, float("nan"))])
        with pytest.raises(MarketConfigurationError, match="capacity"):
            ResourceSet.of(Resource("cache", float("inf")), Resource("power", 2.0))


class TestResourceSet:
    def test_of_and_accessors(self):
        rs = ResourceSet.of(Resource("cache", 2.0), Resource("power", 3.0))
        assert len(rs) == 2
        assert rs.names == ["cache", "power"]
        np.testing.assert_allclose(rs.capacities, [2.0, 3.0])
        assert rs[1].name == "power"
        assert [r.name for r in rs] == ["cache", "power"]

    def test_index_of(self):
        rs = ResourceSet.of(Resource("cache", 2.0), Resource("power", 3.0))
        assert rs.index_of("power") == 1
        with pytest.raises(KeyError):
            rs.index_of("dram")

    def test_rejects_empty(self):
        with pytest.raises(MarketConfigurationError):
            ResourceSet.of()

    def test_rejects_duplicates(self):
        with pytest.raises(MarketConfigurationError):
            ResourceSet.of(Resource("x", 1.0), Resource("x", 2.0))
