"""The whole-chip model and its market-facing problem."""

import dataclasses
from collections import OrderedDict

import numpy as np
import pytest

from repro.cmp import MB, ChipModel, cmp_8core, cmp_64core, utility_builder
from repro.cmp.spec_suite import app_by_name
from repro.cmp.utility_builder import build_true_utility
from repro.exceptions import MarketConfigurationError
from repro.workloads import BUNDLE_CATEGORIES, generate_bundles, paper_bbpc_bundle


class TestChipModel:
    def test_requires_one_app_per_core(self):
        with pytest.raises(MarketConfigurationError):
            ChipModel(cmp_8core(), [app_by_name("mcf")] * 3)

    def test_free_minimums(self, bbpc_chip):
        assert bbpc_chip.free.cache_bytes == 128 * 1024
        # Every core's free power runs it at 800 MHz.
        for core, watts in zip(bbpc_chip.cores, bbpc_chip.free.power_watts):
            assert core.frequency_for_power(watts) == pytest.approx(0.8)

    def test_extra_capacities(self, bbpc_chip):
        # 4 MB minus 8 free regions = 3 MB of market cache.
        assert bbpc_chip.extra_cache_capacity == 3 * MB
        assert 0.0 < bbpc_chip.extra_power_capacity < 80.0


class TestBuildProblem:
    def test_shapes_and_names(self, bbpc_problem):
        assert bbpc_problem.num_players == 8
        assert bbpc_problem.num_resources == 2
        assert list(bbpc_problem.resource_names) == ["cache_bytes", "power_watts"]
        assert bbpc_problem.player_names[4] == "mcf"

    def test_quanta_are_region_and_rapl(self, bbpc_problem):
        np.testing.assert_allclose(bbpc_problem.quanta, [128 * 1024, 0.125])

    def test_per_player_caps(self, bbpc_chip, bbpc_problem):
        caps = bbpc_problem.per_player_caps
        assert caps is bbpc_chip.per_core_caps
        # Cache cap: 2 MB monitorable minus the free region; power cap:
        # the 4 GHz draw minus the free 800 MHz one.
        assert np.all(caps[:, 0] == 15 * 128 * 1024)
        for i, core in enumerate(bbpc_chip.cores):
            assert caps[i, 1] == core.max_power_watts() - core.min_power_watts()
        with pytest.raises(ValueError):
            caps[0, 0] = 0.0

    def test_allocation_problem_takes_utilities_and_power_quantum(self, bbpc_chip, bbpc_problem):
        utilities = list(reversed(bbpc_problem.utilities))
        problem = bbpc_chip.allocation_problem(utilities, 0.5)
        assert problem.utilities == utilities
        assert problem.quanta.tolist() == [128 * 1024, 0.5]
        assert problem.capacities.tobytes() == bbpc_problem.capacities.tobytes()
        assert problem.player_names == bbpc_problem.player_names
        assert problem.per_player_caps is bbpc_problem.per_player_caps

    def test_rejects_power_budget_below_free_minimums(self):
        config = dataclasses.replace(cmp_8core(), power_budget_watts=1.0)
        chip = ChipModel(config, paper_bbpc_bundle().apps)
        with pytest.raises(MarketConfigurationError, match="free minimums"):
            chip.build_problem()


class TestContextSwitchAndTalus:
    def test_with_app_leaves_chip_unchanged(self, bbpc_chip):
        before = [app.name for app in bbpc_chip.apps]
        caps = bbpc_chip.per_core_caps.copy()
        switched = bbpc_chip.with_app(0, app_by_name("povray"))
        assert [app.name for app in bbpc_chip.apps] == before
        assert bbpc_chip.per_core_caps.tobytes() == caps.tobytes()
        assert [app.name for app in switched.apps] == ["povray"] + before[1:]
        assert switched.cores[0].app.name == "povray"
        fresh = ChipModel(bbpc_chip.config, switched.apps)
        assert switched.per_core_caps.tobytes() == fresh.per_core_caps.tobytes()
        assert switched.free.power_watts.tobytes() == fresh.free.power_watts.tobytes()

    def test_talus_hull_built_lazily_once_per_core(self, monkeypatch):
        from repro.cmp import chip as chip_module

        built = []

        class Counting(chip_module.TalusController):
            def __init__(self, sizes, hits):
                built.append(len(sizes))
                super().__init__(sizes, hits)

        monkeypatch.setattr(chip_module, "TalusController", Counting)
        chip = ChipModel(cmp_8core(), paper_bbpc_bundle().apps)
        chip.build_problem()
        assert built == []  # the analytic path never pays for a hull
        assert chip.talus(4) is chip.talus(4)
        assert built == [chip.config.umon_max_regions]
        # A context switch rebuilds only the switched core's controller.
        kept = chip.talus(3)
        switched = chip.with_app(4, app_by_name("povray"))
        assert switched.talus(3) is kept
        assert switched.talus(4) is not chip.talus(4)
        assert len(built) == 3

    def test_talus_hull_dominates_raw_hit_curve(self, bbpc_chip):
        config = bbpc_chip.config
        mcf = bbpc_chip.apps.index(app_by_name("mcf"))
        talus = bbpc_chip.talus(mcf)
        for regions in range(1, config.umon_max_regions + 1):
            size = regions * config.cache_region_bytes
            raw_hits = 1.0 - bbpc_chip.apps[mcf].mrc.miss_fraction(size)
            assert talus.value_at(size) >= raw_hits - 1e-12


def _grid_bits(grid):
    return grid.xs.tobytes() + grid.ys.tobytes() + grid.values.tobytes()


@pytest.mark.parametrize("category", BUNDLE_CATEGORIES)
@pytest.mark.parametrize("convexify", [True, False])
def test_64core_problem_has_one_true_grid_per_app(category, convexify):
    """Each core's grid equals its own build bitwise, and every core
    running an application shares that application's one grid."""
    config = cmp_64core()
    chip = ChipModel(config, generate_bundles(category, 64, count=1, seed=2016)[0].apps)
    problem = chip.build_problem(convexify=convexify)
    by_app = {}
    for core, grid in zip(chip.cores, problem.utilities):
        assert grid is by_app.setdefault(core.app, grid)
        own = build_true_utility(core, config, convexify=convexify)
        assert _grid_bits(grid) == _grid_bits(own)
    assert len({id(grid) for grid in problem.utilities}) == len(set(chip.apps)) < 64


class TestTrueGridMemo:
    """True grids are memoized per process by (config, application, convexify)."""

    def test_bundles_share_grids_of_common_apps(self):
        config = cmp_64core()
        first, second = generate_bundles("CPBN", 64, count=2, seed=7)
        a = ChipModel(config, first.apps).build_problem()
        b = ChipModel(config, second.apps).build_problem()
        grid_a = dict(zip(first.apps, a.utilities))
        grid_b = dict(zip(second.apps, b.utilities))
        common = set(grid_a) & set(grid_b)
        assert common
        for app in common:
            assert grid_a[app] is grid_b[app]

    def test_chips_and_convexify_never_share_an_entry(self):
        app = app_by_name("mcf")
        keys = [
            (config, app, convexify)
            for config in (cmp_8core(), cmp_64core())
            for convexify in (True, False)
        ]
        grids = [
            ChipModel(config, [app] * config.num_cores)
            .build_problem(convexify=convexify)
            .utilities[0]
            for config, _, convexify in keys
        ]
        assert len({id(grid) for grid in grids}) == 4
        for key, grid in zip(keys, grids):
            assert utility_builder._TRUE_GRIDS[key] is grid

    @pytest.mark.parametrize("convexify", [True, False])
    @pytest.mark.parametrize("field", ["values", "xs", "ys"])
    def test_memoized_arrays_are_read_only(self, bbpc_chip, field, convexify):
        grid = bbpc_chip.build_problem(convexify=convexify).utilities[0]
        with pytest.raises(ValueError):
            getattr(grid, field)[0] = 1.0

    @pytest.mark.parametrize("convexify", [True, False])
    def test_cold_build_equals_memo_hit_bitwise(self, monkeypatch, convexify):
        """Pool workers forked after a serial sweep start with a warm memo,
        so the sweep tests alone never compare a cold build with a hit."""
        chip = ChipModel(
            cmp_64core(), generate_bundles("BBCN", 64, count=1, seed=11)[0].apps
        )
        warm = chip.build_problem(convexify=convexify)
        warm_again = chip.build_problem(convexify=convexify)
        assert all(a is b for a, b in zip(warm.utilities, warm_again.utilities))
        monkeypatch.setattr(utility_builder, "_TRUE_GRIDS", OrderedDict())
        cold = chip.build_problem(convexify=convexify)
        for hit, built in zip(warm.utilities, cold.utilities):
            assert hit is not built
            assert _grid_bits(hit) == _grid_bits(built)
        assert cold.capacities.tobytes() == warm.capacities.tobytes()
        assert cold.per_player_caps.tobytes() == warm.per_player_caps.tobytes()

    def test_memo_is_bounded(self, monkeypatch):
        # 24 applications x two chips x both convexify values.
        assert utility_builder._TRUE_GRIDS_SIZE >= 96
        monkeypatch.setattr(utility_builder, "_TRUE_GRIDS", OrderedDict())
        monkeypatch.setattr(utility_builder, "_TRUE_GRIDS_SIZE", 3)
        config = cmp_8core()
        apps = [app_by_name(name) for name in ("mcf", "vpr", "swim", "apsi")]
        for app in apps:
            ChipModel(config, [app] * 8).build_problem()
        assert [key[1] for key in utility_builder._TRUE_GRIDS] == apps[1:]


class TestOperatingPoints:
    def test_roundtrip(self, bbpc_chip):
        n = bbpc_chip.config.num_cores
        extras = np.column_stack(
            [
                np.full(n, bbpc_chip.extra_cache_capacity / n),
                np.full(n, bbpc_chip.extra_power_capacity / n),
            ]
        )
        points = bbpc_chip.operating_points(extras)
        assert len(points) == n
        for p in points:
            assert 0.8 <= p.frequency_ghz <= 4.0
            assert 0.0 < p.utility <= 1.0

    def test_true_utilities_monotone_in_extras(self, bbpc_chip):
        n = bbpc_chip.config.num_cores
        small = np.tile([0.0, 0.0], (n, 1))
        big = np.column_stack(
            [
                np.full(n, bbpc_chip.extra_cache_capacity / n),
                np.full(n, bbpc_chip.extra_power_capacity / n),
            ]
        )
        utility_big = [p.utility for p in bbpc_chip.operating_points(big)]
        utility_small = [p.utility for p in bbpc_chip.operating_points(small)]
        assert np.all(np.array(utility_big) >= np.array(utility_small) - 1e-9)

    def test_total_power_within_budget_at_equal_share(self, bbpc_chip):
        n = bbpc_chip.config.num_cores
        extras = np.column_stack(
            [
                np.full(n, bbpc_chip.extra_cache_capacity / n),
                np.full(n, bbpc_chip.extra_power_capacity / n),
            ]
        )
        drawn = sum(p.power_watts for p in bbpc_chip.operating_points(extras))
        assert drawn <= bbpc_chip.config.power_budget_watts + 1e-6

    def test_rejects_bad_shape(self, bbpc_chip):
        with pytest.raises(MarketConfigurationError):
            bbpc_chip.operating_points(np.zeros((3, 2)))
