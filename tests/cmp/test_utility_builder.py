"""Market utility construction from the core models."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cmp import ChipModel, cmp_8core, CoreModel
from repro.cmp.spec_suite import app_by_name
from repro.cmp.utility_builder import (
    build_true_utility,
    build_utilities_from_miss_curves,
    convexify_grid,
)


@pytest.fixture(scope="module")
def cfg():
    return cmp_8core()


@pytest.fixture(scope="module")
def mcf_core(cfg):
    return CoreModel(app_by_name("mcf"), cfg)


@pytest.fixture(scope="module")
def mcf_caps(cfg):
    """mcf's caps on extra cache bytes and extra power watts."""
    return tuple(ChipModel(cfg, [app_by_name("mcf")] * cfg.num_cores).per_core_caps[0])


def _reference_hull(xs, ys):
    """The per-line monotone chain on numpy scalars, hulling every line."""
    stack = []
    for k in range(xs.size):
        while len(stack) >= 2:
            a, b = stack[-2], stack[-1]
            cross = (xs[b] - xs[a]) * (ys[k] - ys[a]) - (ys[b] - ys[a]) * (xs[k] - xs[a])
            if cross >= 0.0:
                stack.pop()
            else:
                break
        stack.append(k)
    return xs[stack], ys[stack]


def _reference_convexify(cache_axis, power_axis, values, max_passes=6):
    """convexify_grid without the concave-line skip (the oracle)."""
    out = values.copy()
    for _ in range(max_passes):
        before = out.copy()
        for j in range(power_axis.size):
            hx, hy = _reference_hull(cache_axis, out[:, j])
            out[:, j] = np.interp(cache_axis, hx, hy)
        for i in range(cache_axis.size):
            hx, hy = _reference_hull(power_axis, out[i, :])
            out[i, :] = np.interp(power_axis, hx, hy)
        if np.allclose(before, out, rtol=0.0, atol=1e-12):
            break
    return out


def _axis(size):
    """Strategy: a strictly increasing axis of ``size`` points."""
    return st.lists(
        st.floats(min_value=0.01, max_value=10.0), min_size=size, max_size=size
    ).map(lambda steps: np.cumsum(steps))


@st.composite
def _grids(draw):
    nx, ny = draw(st.integers(1, 7)), draw(st.integers(1, 7))
    cell = st.sampled_from([0.0, 1.0, 0.5, 2.0, np.nan]) | st.floats(-5.0, 5.0)
    values = draw(st.lists(cell, min_size=nx * ny, max_size=nx * ny))
    return draw(_axis(nx)), draw(_axis(ny)), np.array(values).reshape(nx, ny)


def _bits(array):
    return np.asarray(array, dtype=float).tobytes()


def _convexify_one(cache_axis, power_axis, values):
    """:func:`convexify_grid` on a stack of one grid."""
    return convexify_grid(cache_axis, power_axis[None, :], values[None])[0]


@given(_grids())
@settings(max_examples=200, deadline=None)
def test_convexify_equals_hull_every_line_oracle_bitwise(grid):
    xs, ys, values = grid
    assert _bits(_convexify_one(xs, ys, values)) == _bits(
        _reference_convexify(xs, ys, values)
    )


@pytest.mark.parametrize("app", ["mcf", "vpr", "libquantum", "gcc"])
def test_convexify_equals_oracle_on_raw_true_grids(cfg, app):
    raw = build_true_utility(CoreModel(app_by_name(app), cfg), cfg, convexify=False)
    assert _bits(_convexify_one(raw.xs, raw.ys, raw.values)) == _bits(
        _reference_convexify(raw.xs, raw.ys, raw.values)
    )


def _passes(cache_axis, power_axis, values):
    """How many hull passes the oracle runs on one grid."""
    out = values.copy()
    for passes in range(1, 7):
        before = out.copy()
        out = _reference_convexify(cache_axis, power_axis, out, max_passes=1)
        if np.allclose(before, out, rtol=0.0, atol=1e-12):
            return passes
    return 6


@st.composite
def _grid_stacks(draw):
    """G grids over one cache axis, each with its own power axis.

    Cells mix concave, cliffy, flat and NaN values, so the grids settle
    after different numbers of passes (NaN grids never settle and run
    all six).
    """
    count = draw(st.integers(1, 5))
    nx, ny = draw(st.integers(1, 7)), draw(st.integers(1, 7))
    cell = st.sampled_from([0.0, 1.0, 0.5, 2.0, np.nan]) | st.floats(-5.0, 5.0)
    cache_axis = draw(_axis(nx))
    power_axes = np.array([draw(_axis(ny)) for _ in range(count)])
    values = draw(
        st.lists(cell, min_size=count * nx * ny, max_size=count * nx * ny)
    )
    return cache_axis, power_axes, np.array(values).reshape(count, nx, ny)


@given(_grid_stacks())
@settings(max_examples=200, deadline=None)
def test_stack_equals_oracle_per_grid_bitwise(stack):
    cache_axis, power_axes, values = stack
    expected = [
        _reference_convexify(cache_axis, power, grid)
        for power, grid in zip(power_axes, values)
    ]
    assert _bits(convexify_grid(cache_axis, power_axes, values)) == _bits(expected)


def test_stack_grids_run_their_own_pass_counts():
    """A grid that settles early leaves the stack, so grids that need
    one, several or all six passes still each equal the oracle."""
    xs = np.arange(5.0)
    ys = np.array([0.0, 1.0, 2.5])
    concave = np.sqrt(xs[:, None] + 1.0) + np.sqrt(ys[None, :] + 1.0)
    cliff = np.where(xs[:, None] >= 3.0, 1.0, 0.1) * (1.0 + ys[None, :] ** 2)
    nan = cliff.copy()
    nan[2, 1] = np.nan
    values = np.array([concave, cliff, nan])
    power_axes = np.array([ys, ys * 2.0, ys + 1.0])
    counts = [_passes(xs, p, v) for p, v in zip(power_axes, values)]
    assert counts[0] == 1 and counts[1] > 1 and counts[2] == 6
    expected = [_reference_convexify(xs, p, v) for p, v in zip(power_axes, values)]
    assert _bits(convexify_grid(xs, power_axes, values)) == _bits(expected)


def _axis_concave(values, axis):
    """Second differences along one axis must be <= 0 (concave)."""
    d2 = np.diff(values, n=2, axis=axis)
    return np.all(d2 <= 1e-9)


class TestConvexifyGrid:
    def test_output_dominates_input(self, cfg, mcf_core):
        u_raw = build_true_utility(mcf_core, cfg, convexify=False)
        u_hull = build_true_utility(mcf_core, cfg, convexify=True)
        assert np.all(u_hull.values >= u_raw.values - 1e-12)

    def test_axis_concavity(self, cfg, mcf_core):
        u = build_true_utility(mcf_core, cfg)
        assert _axis_concave(u.values, 0)
        assert _axis_concave(u.values, 1)

    def test_idempotent(self):
        xs = np.arange(5.0)
        ys = np.arange(3.0)
        vals = np.sqrt(xs[:, None] + 1.0) + np.sqrt(ys[None, :] + 1.0)
        once = _convexify_one(xs, ys, vals)
        np.testing.assert_allclose(once, vals, atol=1e-9)


class TestExtraCapacity:
    def test_caps(self, cfg, mcf_core, mcf_caps):
        cache_cap, power_cap = mcf_caps
        assert cache_cap == cfg.umon_max_bytes - cfg.cache_region_bytes
        assert power_cap == pytest.approx(
            mcf_core.max_power_watts() - mcf_core.min_power_watts()
        )


class TestTrueUtility:
    def test_raw_mcf_has_cliff_hulled_does_not(self, cfg, mcf_core, mcf_caps):
        raw = build_true_utility(mcf_core, cfg, convexify=False)
        cache_cap, power_cap = mcf_caps
        mid = raw.value((cache_cap / 2.0, power_cap))
        hulled = build_true_utility(mcf_core, cfg).value((cache_cap / 2.0, power_cap))
        assert hulled > mid + 0.1  # the hull bridges the cliff

    def test_normalized_to_one_at_caps(self, cfg, mcf_core, mcf_caps):
        u = build_true_utility(mcf_core, cfg)
        cache_cap, power_cap = mcf_caps
        assert u.value((cache_cap, power_cap)) == pytest.approx(1.0, abs=1e-6)

    def test_nondecreasing_along_axes(self, cfg, mcf_core):
        u = build_true_utility(mcf_core, cfg)
        assert np.all(np.diff(u.values, axis=0) >= -1e-9)
        assert np.all(np.diff(u.values, axis=1) >= -1e-9)

    def test_matches_operating_points_at_grid(self, cfg):
        # Un-convexified grid values must equal the analytic model.
        core = CoreModel(app_by_name("vpr"), cfg)
        u = build_true_utility(core, cfg, convexify=False)
        min_cache = float(cfg.cache_region_bytes)
        for ci in (0, 5, 15):
            for pj in (0, 8, 16):
                extra_c = u.xs[ci]
                extra_p = u.ys[pj]
                point = core.operating_point(
                    min_cache + extra_c, core.min_power_watts() + extra_p
                )
                assert u.values[ci, pj] == pytest.approx(point.utility, rel=1e-6)


class TestMonitoredUtility:
    def test_exact_curve_matches_true_utility(self, cfg, mcf_core, mcf_caps):
        # Feeding the *true* miss curve through the monitored path must
        # reproduce the true utility (modulo interpolation grid).
        regions = np.arange(1, cfg.umon_max_regions + 1)
        true_curve = np.array(
            [
                mcf_core.app.mrc.miss_fraction(r * cfg.cache_region_bytes)
                for r in regions
            ]
        )
        (est,) = build_utilities_from_miss_curves([mcf_core], cfg, [true_curve], [None])
        true = build_true_utility(mcf_core, cfg)
        cache_cap, power_cap = mcf_caps
        for c in (0.0, cache_cap / 2, cache_cap):
            for p in (0.0, power_cap / 2, power_cap):
                assert est.value((c, p)) == pytest.approx(
                    true.value((c, p)), abs=0.02
                )

    def test_cpi_estimate_shifts_utility(self, cfg, mcf_core):
        curve = np.linspace(0.9, 0.1, cfg.umon_max_regions)
        a, b = build_utilities_from_miss_curves(
            [mcf_core, mcf_core], cfg, [curve, curve], [0.5, 1.5]
        )
        # Both normalized, but the balance between cache and power shifts.
        assert a.values.shape == b.values.shape
        assert not np.allclose(a.values, b.values)

