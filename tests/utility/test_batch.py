"""Batched utility evaluation: a utility's one body answers a batch and
its one-row ``value`` / ``gradient`` calls alike, so every
``value_batch`` / ``gradient_batch`` must equal its rows evaluated one
at a time, bitwise.  Also covers input-shape validation, the default
numeric gradient, the stacked-grid fast path, the compiled
:class:`BatchedUtilitySet`, and the exact evaluation-counter deltas of
every dispatch.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from numeric_oracle import numeric_gradient
from repro.cmp import CoreModel, cmp_8core
from repro.cmp.bandwidth import BandwidthAwareUtility, BandwidthModel
from repro.cmp.dram import DRAMModel
from repro.cmp.spec_suite import app_by_name
from repro.utility import tabular
from repro.utility import (
    EVAL_COUNTERS,
    AdditiveUtility,
    BatchedUtilitySet,
    CobbDouglasUtility,
    GridUtility2D,
    LinearUtility,
    LogUtility,
    PowerUtility,
    SaturatingUtility,
    ScaledUtility,
    StackedGrids,
    UtilityFunction,
    numeric_gradient_batch,
    upper_convex_hull,
)
from repro.core import marginal_utility_of_bids_batch
from repro.qa import sanitize
from repro.utility import batch as batch_module
from repro.utility.batch import player_classes


def looped_values(utility, points):
    return np.array([utility.value(p) for p in points], dtype=float)


def looped_gradients(utility, points):
    return np.stack(
        [np.asarray(utility.gradient(p), dtype=float) for p in points]
    )


def assert_batch_matches(utility, points):
    values = utility.value_batch(points)
    gradients = utility.gradient_batch(points)
    assert values.shape == (points.shape[0],)
    assert gradients.shape == points.shape
    assert np.array_equal(values, looped_values(utility, points))
    assert np.array_equal(gradients, looped_gradients(utility, points))


def make_grid(seed=0, nx=5, ny=4, x_span=4.0, y_span=2.0):
    rng = np.random.default_rng(seed)
    xs = np.linspace(0.0, x_span, nx)
    ys = np.linspace(0.0, y_span, ny) * (1.0 + 0.3 * seed)
    # Concave, non-decreasing surface with some per-seed texture.
    values = np.sqrt(1.0 + xs[:, None]) * np.log1p(1.0 + ys[None, :])
    values = values + 0.01 * rng.random((nx, ny))
    values = np.maximum.accumulate(np.maximum.accumulate(values, axis=0), axis=1)
    return GridUtility2D(xs, ys, values)


class Interp1D(UtilityFunction):
    """A one-resource tabulated utility: ``np.interp`` of its samples
    (clamped outside them) with the default numeric gradient."""

    num_resources = 1

    def __init__(self, xs, ys):
        self.xs = np.asarray(xs, dtype=float)
        self.ys = np.asarray(ys, dtype=float)

    def _value_batch(self, points):
        return np.interp(points[:, 0], self.xs, self.ys)


#: Points exercising the edge cases a clamping tabulated body must
#: handle identically: below the first sample, above the last, exactly
#: on bounds.
POINTS_1D = np.array([[-1.0], [0.0], [0.3], [1.0], [2.7], [3.0], [99.0]])
POINTS_2D = np.array(
    [
        [0.0, 0.0],
        [-1.0, -1.0],
        [0.5, 0.25],
        [4.0, 2.0],
        [1.7, 0.9],
        [99.0, 99.0],
        [0.0, 2.5],
    ]
)
#: Non-negative points for the closed-form families (utilities are only
#: defined over non-negative allocations; the market never goes below 0).
NONNEG_2D = np.array(
    [[0.0, 0.0], [0.5, 0.25], [4.0, 2.0], [1.7, 0.9], [99.0, 99.0], [0.0, 2.5]]
)
#: Strictly positive points for families whose gradients blow up at zero.
POSITIVE_2D = np.array([[0.5, 0.25], [1.0, 1.0], [4.0, 2.0], [1.7, 0.9], [9.0, 0.1]])


def bandwidth_utility():
    config = cmp_8core()
    core = CoreModel(app_by_name("swim"), config)
    bandwidth = BandwidthModel(DRAMModel(channels=config.memory_channels))
    return BandwidthAwareUtility(core, bandwidth, config, free_bandwidth_gbps=0.3)


#: (extra cache bytes, extra watts, extra GB/s), zero coordinates included.
BANDWIDTH_POINTS = np.array(
    [[0.0, 0.0, 0.0], [262144.0, 4.0, 1.0], [2e6, 0.0, 8.0], [0.0, 10.0, 0.5]]
)

CASES = [
    pytest.param(
        lambda: Interp1D([0.0, 1.0, 3.0], [0.0, 2.0, 3.0]), POINTS_1D, id="tabular1d"
    ),
    pytest.param(
        lambda: Interp1D(*upper_convex_hull([0.0, 1.0, 2.0, 3.0], [0.0, 0.5, 1.2, 1.3])),
        POINTS_1D,
        id="hull1d",
    ),
    pytest.param(lambda: make_grid(1), POINTS_2D, id="grid2d"),
    pytest.param(
        lambda: GridUtility2D([1.0], [0.0, 1.0], np.array([[0.0, 2.0]])),
        POINTS_2D,
        id="grid2d-degenerate-x",
    ),
    pytest.param(
        lambda: GridUtility2D([0.0, 1.0], [2.0], np.array([[0.0], [4.0]])),
        POINTS_2D,
        id="grid2d-degenerate-y",
    ),
    pytest.param(lambda: LinearUtility([1.0, 2.5]), NONNEG_2D, id="linear"),
    pytest.param(
        lambda: LogUtility([1.0, 0.5], [2.0, 1.0]), NONNEG_2D, id="log"
    ),
    pytest.param(
        lambda: PowerUtility([1.0, 0.7], [0.5, 0.9]), POSITIVE_2D, id="power"
    ),
    pytest.param(
        lambda: CobbDouglasUtility([0.3, 0.4], scale=2.0),
        POSITIVE_2D,
        id="cobb-douglas",
    ),
    pytest.param(
        lambda: SaturatingUtility([1.0, 2.0], [3.0, 1.5]),
        NONNEG_2D,
        id="saturating",
    ),
    pytest.param(
        lambda: AdditiveUtility(
            [
                Interp1D([0.0, 1.0, 3.0], [0.0, 2.0, 3.0]),
                LogUtility([1.0], [1.0]),
            ]
        ),
        NONNEG_2D,
        id="additive",
    ),
    pytest.param(
        lambda: ScaledUtility(LogUtility([1.0, 0.5], [2.0, 1.0]), 2.0, 0.1),
        NONNEG_2D,
        id="scaled",
    ),
    pytest.param(bandwidth_utility, BANDWIDTH_POINTS, id="bandwidth"),
]


class ValueBodyOnly(UtilityFunction):
    """A subclass with only a value body: its gradients are the default
    numeric differentiator."""

    num_resources = 2

    def _value_batch(self, points):
        return np.sqrt(1.0 + points[:, 0]) + np.log1p(points[:, 1])


#: ``EVAL_COUNTERS`` fields of one evaluator dispatch, as
#: (batch_value_calls, batch_gradient_calls, batch_points, scalar_calls).
COUNT_FIELDS = ("batch_value_calls", "batch_gradient_calls", "batch_points", "scalar_calls")


def evaluator_counts(utility, points, method):
    """Counter deltas of one ``values`` / ``gradients`` call over ``points``
    on a one-player evaluator."""
    evaluator = BatchedUtilitySet([utility])
    owners = np.zeros(points.shape[0], dtype=np.intp)
    before = EVAL_COUNTERS.snapshot()
    getattr(evaluator, method)(points, owners)
    return EVAL_COUNTERS.since(before)


FALLBACK_CASE = pytest.param(ValueBodyOnly, NONNEG_2D, id="fallback")


class TestBatchEqualsScalar:
    @pytest.mark.parametrize("factory, points", CASES)
    def test_batch_matches_looped_scalar(self, factory, points):
        assert_batch_matches(factory(), points)

    def test_empty_batch(self):
        u = LogUtility([1.0, 0.5])
        points = np.empty((0, 2))
        assert u.value_batch(points).shape == (0,)
        assert u.gradient_batch(points).shape == (0, 2)

    @pytest.mark.parametrize("method", ["value_batch", "gradient_batch", "value", "gradient"])
    @pytest.mark.parametrize("factory, points", CASES + [FALLBACK_CASE])
    def test_shape_validation(self, factory, points, method):
        # Every family goes through the base-class entry point, which
        # validates the (K, M) shape once; a one-row call of the wrong
        # length fails there too instead of dropping or ignoring a
        # coordinate.
        u = factory()
        m = u.num_resources
        if method in ("value", "gradient"):
            bads = (np.ones(m - 1), np.ones(m + 1))
        else:
            bads = (np.ones(m), np.ones((3, m - 1)), np.ones((3, m + 1)))
        for bad in bads:
            with pytest.raises(ValueError):
                getattr(u, method)(bad)


class TestGenericFallback:
    """The base class's default gradient body, and the counting of every
    family's evaluator dispatches."""

    def test_fallback_matches_scalar_bitwise(self):
        # The default gradient is the numeric oracle over the one-row
        # value, forward differences at zero coordinates included.
        u = ValueBodyOnly()
        assert_batch_matches(u, NONNEG_2D)
        expected = np.stack([numeric_gradient(u.value, p) for p in NONNEG_2D])
        assert np.array_equal(u.gradient_batch(NONNEG_2D), expected)

    def test_bandwidth_gradient_is_the_oracle_over_its_point_model(self):
        # The per-point model (a bisection plus a fixed point) the rows
        # of the value body loop over, differentiated one point at a time.
        u = bandwidth_utility()
        expected = np.stack(
            [numeric_gradient(lambda p: u._point_value(*p), p) for p in BANDWIDTH_POINTS]
        )
        assert np.array_equal(u.gradient_batch(BANDWIDTH_POINTS), expected)

    @pytest.mark.parametrize("factory, points", CASES + [FALLBACK_CASE])
    def test_fast_override_counts_batch_not_scalar(self, factory, points):
        # Every family is one vectorized dispatch covering its rows;
        # nested dispatches (a numeric gradient's probe values, the
        # components of Additive and Scaled) are not counted again, so
        # the wrappers count one dispatch, not two or three.
        k = points.shape[0]
        for method, want in (("values", (1, 0, k, 0)), ("gradients", (0, 1, k, 0))):
            delta = evaluator_counts(factory(), points, method)
            assert tuple(delta[name] for name in COUNT_FIELDS) == want, method

    @pytest.mark.parametrize("factory, points", CASES + [FALLBACK_CASE])
    def test_direct_batch_calls_count_nothing(self, factory, points):
        # The evaluator is the one place that counts.
        u = factory()
        before = EVAL_COUNTERS.snapshot()
        u.value_batch(points)
        u.gradient_batch(points)
        assert EVAL_COUNTERS.since(before)["total_calls"] == 0


class TestNumericGradientBatch:
    def test_matches_scalar_including_zero_boundary(self):
        # Rows with zero coordinates exercise the forward-difference
        # fallback; both paths must pick it for exactly the same rows.
        def f(p):
            p = np.asarray(p, dtype=float)
            return float(np.sqrt(1.0 + p[0]) * np.log1p(1.0 + p[1]))

        def f_batch(points):
            return np.sqrt(1.0 + points[:, 0]) * np.log1p(1.0 + points[:, 1])

        points = np.array([[0.0, 0.0], [0.0, 3.0], [2.0, 0.0], [1.5, 0.5]])
        expected = np.stack([numeric_gradient(f, p) for p in points])
        assert np.array_equal(numeric_gradient_batch(f_batch, points), expected)

    def test_empty(self):
        out = numeric_gradient_batch(lambda pts: pts[:, 0], np.empty((0, 2)))
        assert out.shape == (0, 2)


class TestStackedGrids:
    def test_matches_per_grid_scalar_bitwise(self):
        # Same sample counts, *different* axes per grid — the Fig-4 case
        # (shared cache axis, per-app power scaling).
        grids = [make_grid(seed) for seed in range(3)]
        stack = StackedGrids(grids)
        rng = np.random.default_rng(7)
        points = rng.uniform(-1.0, 5.0, size=(20, 2))
        owners = rng.integers(0, 3, size=20)
        values = stack.value_points(points, owners)
        gradients = stack.gradient_points(points, owners)
        for k in range(20):
            grid = grids[owners[k]]
            assert values[k] == grid.value(points[k])
            assert np.array_equal(gradients[k], grid.gradient(points[k]))

    def test_direct_grid_calls_compile_one_kernel(self, monkeypatch):
        # A grid compiles its one-grid stack on the first direct call and
        # reuses it; the answers equal a freshly compiled stack's bitwise.
        grid = make_grid(2)
        points = np.random.default_rng(5).uniform(-1.0, 5.0, size=(6, 2))
        owners = np.zeros(len(points), dtype=np.intp)
        fresh = StackedGrids([grid])
        compiled = []

        class CountingStack(StackedGrids):
            def __init__(self, grids):
                compiled.append(grids)
                super().__init__(grids)

        monkeypatch.setattr(tabular, "StackedGrids", CountingStack)
        rows = [grid.value(p) for p in points]
        batch = grid.value_batch(points)
        grid.gradient_batch(points)
        assert len(compiled) == 1
        assert _bits(batch) == _bits(fresh.value_points(points, owners))
        assert _bits(np.array(rows)) == _bits(batch)


@st.composite
def stacks_and_points(draw):
    """Same-shape grids whose x / y axes are shared or differ per owner,
    plus rows of points under random owners.

    Each coordinate is a knot of its owner's axis, an axis end, a point
    beyond either end, 0.0 or -0.0, a value inside the forward-difference
    band ``[0, 1e-6)`` or a uniform draw across the axis.
    """
    num_grids = draw(st.integers(1, 4))
    nx, ny = draw(st.integers(2, 5)), draw(st.integers(2, 5))

    def axes(n, shared):
        start = draw(st.sampled_from([0.0, -1.0, 0.25]))
        steps = draw(st.lists(st.floats(0.05, 4.0), min_size=n - 1, max_size=n - 1))
        base = start + np.concatenate([[0.0], np.cumsum(steps)])
        # Scaling by 1 + g keeps every owner's axis distinct.
        return [base if shared else base * (1.0 + g) for g in range(num_grids)]

    xs = axes(nx, draw(st.booleans()))
    ys = axes(ny, draw(st.booleans()))
    cell = st.sampled_from([0.0, -0.0, 1.0]) | st.floats(-5.0, 5.0)
    grids = [
        GridUtility2D(
            xs[g], ys[g],
            np.array(draw(st.lists(cell, min_size=nx * ny, max_size=nx * ny))).reshape(nx, ny),
        )
        for g in range(num_grids)
    ]
    rows = draw(st.integers(0, 12))
    owners = np.array(
        draw(st.lists(st.integers(0, num_grids - 1), min_size=rows, max_size=rows)),
        dtype=np.intp,
    )

    def coordinate(axis):
        special = [0.0, -0.0, 5e-7, axis[0], axis[-1], axis[0] - 1.0, axis[-1] + 1.0]
        return draw(
            st.sampled_from(special + list(axis))
            | st.floats(float(axis[0]) - 0.5, float(axis[-1]) + 0.5)
        )

    points = np.array(
        [[coordinate(xs[g]), coordinate(ys[g])] for g in owners], dtype=float
    ).reshape(rows, 2)
    return grids, points, owners


def _bits(values):
    return np.asarray(values, dtype=float).tobytes()


@given(stacks_and_points())
@settings(max_examples=300, deadline=None)
def test_stacked_kernel_is_bitwise_the_scalar_grid(case):
    """The one bilinear kernel — ``StackedGrids.value_points`` /
    ``gradient_points`` and ``GridUtility2D.value_batch`` — reproduces
    per-grid ``value`` / ``gradient`` bit for bit (signed zeros
    included), on shared and per-owner axes alike."""
    grids, points, owners = case
    stack = StackedGrids(grids)
    values = stack.value_points(points, owners)
    gradients = stack.gradient_points(points, owners)
    assert values.shape == (points.shape[0],)
    assert gradients.shape == points.shape
    assert _bits(values) == _bits([grids[g].value(p) for g, p in zip(owners, points)])
    assert _bits(gradients) == _bits(
        np.reshape([grids[g].gradient(p) for g, p in zip(owners, points)], points.shape)
    )
    for g, grid in enumerate(grids):
        assert _bits(grid.value_batch(points[owners == g])) == _bits(values[owners == g])


#: The usual capacity of a resource in :func:`grid_marginal_cases`:
#: with a total of 64, a bid of ``4 * a`` buys exactly ``a``.
_EXACT_CAPACITY = 16.0


@st.composite
def grid_marginal_cases(draw):
    """Same-shape grids on shared or per-grid axes, capacities, and bid
    rows under random owners.

    Axes are multiples of 0.25, so with a capacity of 16 and a total of
    64 a bid lands its allocation exactly on a knot, an axis end, one
    step beyond either end, ``0.0`` or ``-0.0``.  Other rows fall in the
    forward-difference band ``[0, 1e-6]`` (its edge included), bid
    where nobody bids (the first-bid rate), make ``y * C / (b + y)^2``
    overflow to +-inf (a capacity of 1e300) or ``(b + y)^2`` underflow
    to 0 (``0 / 0`` when nobody else bids, where Python would raise), or
    bid inf or 1e200 (whose square overflows).  A capacity may also be 0 or inf.  Cells are random with a
    few set to 0, -0, 1 or NaN, and random rows follow the drawn ones,
    so that a blend or a difference rounded in another order shows.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    num_grids = draw(st.integers(1, 3))
    nx, ny = draw(st.integers(2, 5)), draw(st.integers(2, 5))

    def axes(n, shared):
        start = draw(st.sampled_from([0.0, 0.25, -1.0]))
        steps = draw(st.lists(st.integers(1, 8), min_size=n - 1, max_size=n - 1))
        base = start + 0.25 * np.concatenate([[0], np.cumsum(steps)])
        return [base if shared else base * (1.0 + g) for g in range(num_grids)]

    xs = axes(nx, draw(st.booleans()))
    ys = axes(ny, draw(st.booleans()))
    grids = []
    for g in range(num_grids):
        values = rng.uniform(-5.0, 5.0, size=(nx, ny))
        for _ in range(draw(st.integers(0, 3))):
            cell = draw(st.integers(0, nx - 1)), draw(st.integers(0, ny - 1))
            values[cell] = draw(st.sampled_from([0.0, -0.0, 1.0, np.nan]))
        grids.append(GridUtility2D(xs[g], ys[g], values))
    capacity = st.sampled_from([_EXACT_CAPACITY] * 3 + [1e300, 0.0, np.inf])
    capacities = [draw(capacity), draw(capacity)]
    rows = draw(st.integers(1, 10))
    owners = draw(st.lists(st.integers(0, num_grids - 1), min_size=rows, max_size=rows))

    def bid(axis):
        """One resource's ``(bid, others)``."""
        kind = draw(st.sampled_from(
            ["knot", "signed-zero", "band", "nobody", "overflow", "underflow",
             "non-finite", "uniform"]
        ))
        if kind == "knot":
            allocation = draw(st.sampled_from(
                list(axis) + [axis[0] - 0.25, axis[-1] + 0.25, 0.0]
            ))
            return 4.0 * allocation, 64.0 - 4.0 * allocation
        if kind == "signed-zero":
            return -0.0, 64.0
        if kind == "band":
            # Allocations of 1e-9, 5e-7 and the band's edge 1e-6, where
            # r - 1e-6 * max(1, |r|) is exactly 0.
            bid = draw(st.sampled_from([4e-9, 2e-6, 4e-6]))
            return bid, 64.0 - bid
        if kind == "nobody":
            return draw(st.sampled_from([0.0, 5.0])), 0.0
        if kind == "overflow":
            return draw(st.sampled_from([(0.0, 1e-100), (0.0, 1e10), (2e-100, -1e-100)]))
        if kind == "underflow":
            return 1e-170, draw(st.sampled_from([1e-170, 0.0]))
        if kind == "non-finite":
            return draw(st.sampled_from(
                [(np.inf, 1.0), (1.0, np.inf), (np.nan, 1.0), (1e200, 1.0)]
            ))
        return draw(st.floats(0.0, 100.0)), draw(st.floats(0.0, 100.0))

    # Python floats, as the climb hands them over.
    pairs = [[bid(xs[g].tolist()), bid(ys[g].tolist())] for g in owners]
    bids = [[b for b, _ in row] for row in pairs]
    others = [[y for _, y in row] for row in pairs]
    extra = draw(st.integers(0, 16))
    owners += rng.integers(0, num_grids, size=extra).tolist()
    bids += rng.uniform(0.0, 100.0, size=(extra, 2)).tolist()
    others += rng.uniform(0.0, 100.0, size=(extra, 2)).tolist()
    return grids, owners, bids, others, capacities


@given(grid_marginal_cases())
@settings(max_examples=400, deadline=None)
def test_grid_marginal_kernel_is_bitwise_the_batched_marginals(case):
    """The compiled Python-float kernel behind ``bid_marginals`` —
    Equations 2 and 7, clamp, bisect, blend and central differences —
    equals row ``k`` of ``marginal_utility_of_bids_batch`` (the numpy
    path through ``StackedGrids.gradient_points``) bit for bit, signed
    zeros included, with NaN in the same entries.

    Only a NaN's payload is left free: where two NaNs meet in a product
    or a sum, CPython's compiled ``*`` and ``+`` keep the second
    operand's and numpy's loops the first's (IEEE 754 allows either),
    so a NaN cell times numpy's default ``0 / 0`` NaN differs in sign.
    """
    grids, owners, bids, others, capacities = case
    evaluator = BatchedUtilitySet(grids)
    assert [kind for kind, _ in evaluator._groups] == [batch_module._STACKED]
    # Out-of-domain rows on purpose: the sanitizer would stop them.
    with sanitize.enabled(False), np.errstate(all="ignore"):
        kernel = evaluator.bid_marginals(owners, bids, others, capacities)
        batched = marginal_utility_of_bids_batch(
            np.array(bids), np.array(others), np.array(capacities),
            evaluator, np.array(owners, dtype=np.intp),
        )
    assert _bits_or_nan(kernel) == _bits_or_nan(batched)


def _bits_or_nan(values):
    """The bits of ``values`` with every NaN as ``np.nan``."""
    values = np.asarray(values, dtype=float)
    return np.where(np.isnan(values), np.nan, values).tobytes()


def test_grid_marginal_kernel_counts_one_gradient_call_per_group():
    """A bid-marginal request counts as ``gradients`` does: one batched
    gradient call per group it reaches, covering that group's rows."""
    grids = [make_grid(0), make_grid(1)]
    evaluator = BatchedUtilitySet(grids + [LogUtility([1.0, 0.5], [2.0, 1.0])])
    bids = [[1.0, 2.0], [3.0, 1.0], [2.0, 2.0]]
    others = [[4.0, 4.0], [1.0, 5.0], [3.0, 0.0]]
    before = EVAL_COUNTERS.snapshot()
    got = evaluator.bid_marginals([2, 0, 1], bids, others, [5.0, 3.0])
    delta = EVAL_COUNTERS.since(before)
    assert delta["batch_gradient_calls"] == 2 and delta["batch_points"] == 3
    expected = marginal_utility_of_bids_batch(
        np.array(bids), np.array(others), np.array([5.0, 3.0]), evaluator, np.array([2, 0, 1])
    )
    assert _bits(got) == _bits(expected)


def test_stacked_axes_shared_only_when_bitwise_equal():
    """A shared lookup serves only axes that are the same bits; an axis
    equal up to the sign of a zero stays per-owner."""
    values = np.arange(6.0).reshape(2, 3)
    ys = np.array([0.0, 1.0, 2.0])
    shared = StackedGrids([GridUtility2D([0.0, 1.0], ys, values)] * 2)
    signed = StackedGrids(
        [GridUtility2D([0.0, 1.0], ys, values), GridUtility2D([-0.0, 1.0], ys, values)]
    )
    assert shared._x.shared and shared._y.shared
    assert not signed._x.shared and signed._y.shared


class TestBatchedUtilitySet:
    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            BatchedUtilitySet([])

    def test_player_classes_follow_utility_objects(self):
        # Classes are numbered by first player; equal but distinct
        # objects are different classes.
        a, b = make_grid(0), make_grid(0)
        log = LogUtility([1.0, 0.5])
        classes, representatives = player_classes([a, log, a, b, log, a])
        assert classes.tolist() == [0, 1, 0, 2, 1, 0]
        assert representatives.tolist() == [0, 1, 3]
        evaluator = BatchedUtilitySet([a, log, a, b, log, a])
        assert evaluator.classes.tolist() == classes.tolist()
        assert evaluator.representatives.tolist() == representatives.tolist()

    def test_classwise_constant_compares_bits(self):
        grid = make_grid(0)
        evaluator = BatchedUtilitySet([grid, make_grid(1), grid])
        assert evaluator.classwise_constant(np.array([1.0, 2.0, 1.0]))
        assert not evaluator.classwise_constant(np.array([1.0, 2.0, 1.5]))
        # A signed zero splits a class, although 0.0 == -0.0.
        assert not evaluator.classwise_constant(np.array([0.0, 2.0, -0.0]))
        rows = np.array([[1.0, 2.0], [5.0, 5.0], [1.0, 2.0]])
        assert evaluator.classwise_constant(rows)
        rows[2, 1] = np.nextafter(2.0, 3.0)
        assert not evaluator.classwise_constant(rows)

    def test_class_rows_equal_every_player_row(self):
        # One row per class, expanded, is every player's row bit for bit.
        grids = [make_grid(0), make_grid(1)]
        shared = LogUtility([1.0, 0.5], [2.0, 1.0])
        utilities = [grids[0], shared, grids[1], grids[0], shared, grids[0]]
        evaluator = BatchedUtilitySet(utilities)
        representatives = evaluator.representatives
        class_rows = np.random.default_rng(5).uniform(0.0, 3.0, size=(3, 2))
        expanded = class_rows.take(evaluator.classes, axis=0)
        for method in ("values", "gradients"):
            by_class = getattr(evaluator, method)(class_rows, representatives)
            by_player = getattr(evaluator, method)(expanded)
            assert by_class.take(evaluator.classes, axis=0).tobytes() == by_player.tobytes()

    def test_all_grids_compile_to_one_group(self):
        # 8 same-shape grids with distinct power axes must fuse into a
        # single stacked group: one gradients() call costs exactly one
        # batched gradient dispatch, its central-difference probes
        # included.
        utilities = [make_grid(seed) for seed in range(8)]
        evaluator = BatchedUtilitySet(utilities)
        allocations = np.tile([1.5, 0.8], (8, 1))
        before = EVAL_COUNTERS.snapshot()
        evaluator.gradients(allocations)
        delta = EVAL_COUNTERS.since(before)
        assert delta["batch_gradient_calls"] == 1
        assert delta["batch_value_calls"] == 0
        assert delta["batch_points"] == 8
        assert delta["scalar_calls"] == 0

    def test_mixed_groups_match_per_player_scalar(self):
        shared = LogUtility([1.0, 0.5], [2.0, 1.0])
        utilities = [
            make_grid(0),
            make_grid(1),
            shared,
            shared,  # same object twice: one shared-group dispatch
            LinearUtility([1.0, 2.0]),
            SaturatingUtility([1.0, 2.0], [3.0, 1.5]),
        ]
        evaluator = BatchedUtilitySet(utilities)
        rng = np.random.default_rng(3)
        allocations = rng.uniform(0.0, 3.0, size=(len(utilities), 2))
        out = evaluator.gradients(allocations)
        for i, utility in enumerate(utilities):
            assert np.array_equal(out[i], utility.gradient(allocations[i])), i

    def test_values_match_per_player_scalar(self):
        # Every (player, bundle) pair in one call, as envy scoring asks:
        # stacked grids, a shared object, single objects and a grid with
        # a degenerate axis (which stays out of the stack).
        shared = LogUtility([1.0, 0.5], [2.0, 1.0])
        utilities = [
            make_grid(0),
            shared,
            make_grid(1),
            shared,
            LinearUtility([1.0, 2.0]),
            GridUtility2D([0.0], [0.0, 1.0, 2.0], [[0.0, 1.0, 1.5]]),
        ]
        evaluator = BatchedUtilitySet(utilities)
        rng = np.random.default_rng(5)
        bundles = rng.uniform(-0.5, 4.0, size=(len(utilities), 2))
        bundles[0] = 0.0
        n = len(utilities)
        players = np.repeat(np.arange(n), n)
        out = evaluator.values(np.tile(bundles, (n, 1)), players)
        for k, i in enumerate(players):
            assert out[k] == utilities[i].value(bundles[k % n]), (i, k % n)

    def test_values_reject_mis_shaped_points(self):
        evaluator = BatchedUtilitySet([make_grid(0)])
        with pytest.raises(ValueError):
            evaluator.values(np.ones((1, 3)))

    def test_player_subset(self):
        utilities = [make_grid(seed) for seed in range(4)] + [
            LogUtility([1.0, 1.0])
        ]
        evaluator = BatchedUtilitySet(utilities)
        players = np.array([4, 1, 3])
        allocations = np.array([[1.0, 0.5], [2.0, 1.0], [0.0, 0.0]])
        out = evaluator.gradients(allocations, players=players)
        for k, i in enumerate(players):
            assert np.array_equal(out[k], utilities[i].gradient(allocations[k]))

    def test_duplicate_player_rows(self):
        # The same player may appear on several rows (probe batches).
        utilities = [make_grid(0), LogUtility([1.0, 1.0])]
        evaluator = BatchedUtilitySet(utilities)
        players = np.array([0, 0, 1, 0])
        allocations = np.array([[1.0, 0.5], [2.0, 1.0], [1.0, 1.0], [1.0, 0.5]])
        out = evaluator.gradients(allocations, players=players)
        for k, i in enumerate(players):
            assert np.array_equal(out[k], utilities[i].gradient(allocations[k]))
