"""The MaxEfficiency greedy + exchange welfare maximizer."""

from collections import OrderedDict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_scoring
from repro.cmp import ChipModel, cmp_8core, cmp_64core
from repro.cmp.bandwidth import BandwidthAwareUtility, build_bandwidth_problem
from repro.core import max_efficiency_allocation, optimum
from repro.exceptions import MarketConfigurationError
from repro.utility import (
    EVAL_COUNTERS,
    GridUtility2D,
    LinearUtility,
    LogUtility,
    PowerUtility,
    SaturatingUtility,
)
from repro.workloads import generate_bundles


class TestGreedyOptimum:
    def test_linear_utilities_winner_takes_all(self):
        # OPT for linear utilities: each resource goes wholly to the
        # player with the largest weight (see the proof of Theorem 1).
        utilities = [LinearUtility([3.0, 1.0]), LinearUtility([1.0, 2.0])]
        out = max_efficiency_allocation(utilities, [10.0, 10.0], [0.5, 0.5])
        np.testing.assert_allclose(out.allocations[0], [10.0, 0.0])
        np.testing.assert_allclose(out.allocations[1], [0.0, 10.0])
        assert out.efficiency == pytest.approx(50.0)

    def test_saturating_utilities_split_at_caps(self):
        # Each player only values the first 2 units of resource 0.
        utilities = [
            SaturatingUtility([1.0, 0.0], [2.0, 1.0]),
            SaturatingUtility([1.0, 0.0], [2.0, 1.0]),
        ]
        out = max_efficiency_allocation(utilities, [4.0, 1.0], [0.25, 0.25])
        assert out.allocations[0, 0] == pytest.approx(2.0)
        assert out.allocations[1, 0] == pytest.approx(2.0)
        assert out.efficiency == pytest.approx(2.0)

    def test_symmetric_log_split_evenly(self):
        utilities = [LogUtility([1.0], [1.0]) for _ in range(4)]
        out = max_efficiency_allocation(utilities, [8.0], [0.125])
        np.testing.assert_allclose(out.allocations[:, 0], 2.0, atol=0.2)

    def test_no_leftovers(self):
        # Even when nobody values a resource, everything is handed out.
        utilities = [LinearUtility([1.0, 0.0]), LinearUtility([1.0, 0.0])]
        out = max_efficiency_allocation(utilities, [4.0, 6.0], [1.0, 1.0])
        assert out.allocations[:, 1].sum() == pytest.approx(6.0)

    def test_per_player_caps_respected(self):
        utilities = [LinearUtility([5.0]), LinearUtility([1.0])]
        caps = np.array([[3.0], [100.0]])
        out = max_efficiency_allocation(utilities, [10.0], [1.0], per_player_caps=caps)
        assert out.allocations[0, 0] <= 3.0 + 1e-9
        # The remainder flows to the second-best player.
        assert out.allocations[1, 0] == pytest.approx(7.0)

    def test_complementary_resources_fixed_by_exchange(self):
        # Player 0's cache is worthless without power and vice versa
        # (bilinear-ish complement via a grid); the myopic greedy can
        # stall, the exchange pass must recover the joint optimum.
        grid = GridUtility2D(
            np.array([0.0, 1.0]),
            np.array([0.0, 1.0]),
            np.array([[0.0, 0.0], [0.0, 10.0]]),
        )
        utilities = [grid, LinearUtility([0.5, 0.5])]
        out = max_efficiency_allocation(utilities, [1.0, 1.0], [0.25, 0.25])
        # OPT = 10 (give player 0 both) vs 1.0 for giving player 1 all.
        assert out.efficiency == pytest.approx(10.0)

    def test_validation(self):
        with pytest.raises(MarketConfigurationError):
            max_efficiency_allocation([LinearUtility([1.0])], [1.0], [1.0, 1.0])
        with pytest.raises(MarketConfigurationError):
            max_efficiency_allocation([LinearUtility([1.0])], [1.0], [0.0])
        with pytest.raises(MarketConfigurationError):
            max_efficiency_allocation(
                [LinearUtility([1.0])], [1.0], [1.0], per_player_caps=np.zeros((2, 1))
            )
        one = [LinearUtility([1.0])]
        # Capacities: NaN and inf used to allocate nothing of the
        # resource (after a numpy cast warning), a negative one likewise.
        for capacity in (float("nan"), float("inf"), -1.0):
            with pytest.raises(MarketConfigurationError, match="capacities"):
                max_efficiency_allocation(one, [capacity], [1.0])
        # A NaN quantum slipped past the positivity check; a 2-D quanta
        # matrix raised a bare TypeError.
        for quanta in ([float("nan")], [float("inf")], [[1.0]]):
            with pytest.raises(MarketConfigurationError, match="quant"):
                max_efficiency_allocation(one, [1.0], quanta)
        # A NaN cap silently disabled the cap; no allocation meets a negative one.
        for cap in (float("nan"), -1.0):
            with pytest.raises(MarketConfigurationError, match="per_player_caps"):
                max_efficiency_allocation(one, [1.0], [1.0], per_player_caps=[[cap]])

    def test_matches_analytic_concave_optimum(self):
        # For U_i = w_i * log(1 + r), the water-filling optimum equalizes
        # w_i / (1 + r_i); with w = (1, 2) and C = 3 the solution is
        # r = (2/3, 7/3).
        utilities = [LogUtility([1.0], [1.0]), LogUtility([2.0], [1.0])]
        out = max_efficiency_allocation(utilities, [3.0], [0.01])
        assert out.allocations[0, 0] == pytest.approx(2.0 / 3.0, abs=0.05)
        assert out.allocations[1, 0] == pytest.approx(7.0 / 3.0, abs=0.05)

    def test_beats_market_on_bbpc(self, bbpc_problem):
        from repro.core import EqualBudget, MaxEfficiency

        opt = MaxEfficiency().allocate(bbpc_problem)
        market = EqualBudget().allocate(bbpc_problem)
        assert opt.efficiency >= market.efficiency - 1e-6


@st.composite
def concave_markets(draw):
    """Random concave markets on power-of-two or non-power-of-two quanta.

    Players are log, power, saturating or (with two resources) grid
    utilities, the grids complementary enough to trigger joint moves.
    Caps are absent, random, or below one quantum for some entries.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    num_players = draw(st.integers(1, 5))
    num_resources = draw(st.integers(1, 3))
    quanta = np.array(
        draw(
            st.lists(
                st.sampled_from([0.125, 0.25, 0.5, 0.01, 0.1, 0.3, 0.07]),
                min_size=num_resources,
                max_size=num_resources,
            )
        )
    )
    capacities = quanta * rng.integers(0, 40, size=num_resources) + rng.uniform(
        0.0, 0.5, size=num_resources
    ) * quanta
    kinds = ["log", "power", "saturating"] + (["grid"] * 3 if num_resources == 2 else [])
    utilities = []
    for _ in range(num_players):
        kind = draw(st.sampled_from(kinds))
        weights = rng.uniform(0.05, 5.0, size=num_resources)
        if kind == "log":
            utilities.append(LogUtility(weights, rng.uniform(0.5, 5.0, size=num_resources)))
        elif kind == "power":
            utilities.append(PowerUtility(weights, rng.uniform(0.2, 1.0, size=num_resources)))
        elif kind == "saturating":
            utilities.append(SaturatingUtility(weights, rng.uniform(0.5, 3.0, size=num_resources)))
        else:
            values = np.zeros((3, 3))
            values[1:, 1:] = rng.uniform(2.0, 20.0)
            values[2, 2] += rng.uniform(0.0, 5.0)
            utilities.append(GridUtility2D(
                np.array([0.0, 1.0, 2.0]) * capacities[0] / 2,
                np.array([0.0, 1.0, 2.0]) * capacities[1] / 2 + np.array([0.0, 1e-3, 2e-3]),
                values,
            ))
    caps = draw(st.sampled_from(["none", "random", "sub-quantum"]))
    per_player_caps = None
    if caps != "none":
        per_player_caps = rng.uniform(0.2, 1.0, size=(num_players, num_resources)) * capacities
        if caps == "sub-quantum":
            below = rng.random(per_player_caps.shape) < 0.5
            per_player_caps[below] = quanta[np.nonzero(below)[1]] * 0.5
    return utilities, capacities, quanta, per_player_caps


@given(market=concave_markets())
@settings(max_examples=150, deadline=None)
def test_equals_lattice_oracle_bitwise(market):
    assert_equals_lattice_oracle(*market)


def assert_equals_lattice_oracle(utilities, capacities, quanta, per_player_caps):
    out = max_efficiency_allocation(utilities, capacities, quanta, per_player_caps)
    expected = reference_scoring.max_efficiency_allocation(
        utilities, capacities, quanta, per_player_caps
    )
    assert out.allocations.tobytes() == expected.allocations.tobytes()
    assert out.allocations.shape == expected.allocations.shape
    assert out.utilities.tobytes() == expected.utilities.tobytes()
    assert out.steps == expected.steps


@st.composite
def tied_markets(draw):
    """Markets whose greedy runs end in every way the heap can decide.

    Players draw from a pool of one to three utility objects, so
    classmates tie exactly and the heap counter breaks the tie; linear
    utilities tie with themselves step after step.  Two-resource pools
    add complementary grids, whose gains rise once the other resource
    arrives, and peaked grids, whose gains turn negative, so runs end on
    non-positive gains.  Caps, shared by a class or drawn per player,
    stop runs, and capacities of a few quanta run out in mid-run.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    num_resources = draw(st.integers(1, 2))
    quanta = np.array(draw(st.lists(
        st.sampled_from([0.125, 0.25, 0.1, 0.3]),
        min_size=num_resources, max_size=num_resources,
    )))
    capacities = quanta * rng.integers(1, 30, size=num_resources)
    kinds = ["linear", "log"] + (["complement", "peaked"] * 2 if num_resources == 2 else [])
    pool = []
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(kinds))
        weights = rng.integers(1, 4, size=num_resources) * 0.5
        if kind == "linear":
            pool.append(LinearUtility(weights))
        elif kind == "log":
            pool.append(LogUtility(weights, rng.uniform(0.5, 5.0, size=num_resources)))
        else:
            values = np.zeros((3, 3))
            values[1:, 1:] = rng.uniform(2.0, 20.0)
            if kind == "peaked":
                values[1, 1] += rng.uniform(5.0, 10.0)
            pool.append(GridUtility2D(
                np.array([0.0, 0.5, 1.0]) * capacities[0],
                np.array([0.0, 0.5, 1.0]) * capacities[1],
                values,
            ))
    num_players = draw(st.integers(2, 6))
    members = draw(st.lists(
        st.integers(0, len(pool) - 1), min_size=num_players, max_size=num_players
    ))
    utilities = [pool[k] for k in members]
    caps = draw(st.sampled_from(["none", "class", "player"]))
    per_player_caps = None
    if caps == "class":
        per_class = rng.uniform(0.1, 0.8, size=(len(pool), num_resources)) * capacities
        per_player_caps = per_class[members]
    elif caps == "player":
        per_player_caps = rng.uniform(0.1, 0.8, size=(num_players, num_resources)) * capacities
    return utilities, capacities, quanta, per_player_caps


@given(market=tied_markets())
@settings(max_examples=150, deadline=None)
def test_greedy_runs_on_exact_ties_equal_lattice_oracle_bitwise(market):
    assert_equals_lattice_oracle(*market)


def test_fill_pushes_once_per_run_not_per_quantum(monkeypatch):
    # One heappush per quantum handed out made 4,125 pushes here for
    # 3,999 fill quanta; a run of one player's quanta of one resource
    # pushes once, when it ends on a gain that does not beat the heap
    # top.
    problem = _cpbn64_problem()
    pushes = []
    push = optimum.heapq.heappush

    class CountingHeapq:
        heappop = staticmethod(optimum.heapq.heappop)

        @staticmethod
        def heappush(heap, item):
            pushes.append(item)
            push(heap, item)

    monkeypatch.setattr(optimum, "heapq", CountingHeapq)
    max_efficiency_allocation(
        problem.utilities, problem.capacities, problem.quanta, problem.per_player_caps
    )
    assert len(pushes) < 2200


def _count_exchange_work(monkeypatch):
    """Count ``step_value`` calls made inside ``_exchange_refinement`` and its moves."""
    counts = {"calls": 0, "bound": 0, "moves": 0, "inside": False}
    step_value = optimum._Lattice.step_value
    refinement = optimum._exchange_refinement

    def counting_step_value(self, i, j, sign):
        counts["calls"] += counts["inside"]
        return step_value(self, i, j, sign)

    def counting_refinement(lattice, *args, **kwargs):
        counts["inside"] = True
        try:
            moves = refinement(lattice, *args, **kwargs)
        finally:
            counts["inside"] = False
        num_players, num_resources = len(lattice.coords), len(lattice.quanta)
        # One full scoring of every (player, resource, direction), then
        # one re-scoring of the recipient and donor of each move.
        counts["bound"] += 2 * num_resources * num_players + 4 * num_resources * moves
        counts["moves"] += moves
        return moves

    monkeypatch.setattr(optimum._Lattice, "step_value", counting_step_value)
    monkeypatch.setattr(optimum, "_exchange_refinement", counting_refinement)
    return counts


def test_exchange_refinement_rescores_only_moved_players(monkeypatch):
    # A full rescan per pass made 131,588 step_value calls here.
    bundle = generate_bundles("CPBN", 64, count=1, seed=2016)[0]
    problem = ChipModel(cmp_64core(), bundle.apps).build_problem()
    counts = _count_exchange_work(monkeypatch)
    max_efficiency_allocation(
        problem.utilities, problem.capacities, problem.quanta, problem.per_player_caps
    )
    assert counts["moves"] > 0
    assert 0 < counts["calls"] <= counts["bound"]


def _joint_move_market():
    """Eight players, half pure complements, non-power-of-two quanta, caps.

    The complementary grids defeat the single-resource exchanges, so the
    joint pass moves bundles (four moves in its first sweep over the
    donors) and the exchange pass that follows moves single quanta.
    """
    rng = np.random.default_rng(4)
    num_players = 8
    utilities = []
    for _ in range(num_players):
        if rng.random() < 0.5:
            values = np.zeros((3, 3))
            values[1:, 1:] = rng.uniform(2.0, 20.0)
            values[2, 2] += rng.uniform(0.0, 5.0)
            utilities.append(GridUtility2D(
                np.array([0.0, 1.0, 2.0]) * rng.uniform(0.5, 2.0),
                np.array([0.0, 1.0, 2.0]) * rng.uniform(0.5, 2.0),
                values,
            ))
        else:
            utilities.append(
                LogUtility(rng.uniform(0.05, 3.0, 2), rng.uniform(0.5, 5.0, 2))
            )
    capacities = np.array([8.0, 8.0])
    per_player_caps = np.tile(0.3 * capacities, (num_players, 1))
    return utilities, capacities, np.array([0.1, 0.3]), per_player_caps


def test_joint_moves_then_exchange_moves_equal_oracle_bitwise(monkeypatch):
    utilities, capacities, quanta, per_player_caps = _joint_move_market()
    counts = _count_exchange_work(monkeypatch)
    joint_pass = optimum._joint_exchange_pass
    joint_moves = []
    monkeypatch.setattr(
        optimum,
        "_joint_exchange_pass",
        lambda lattice: joint_moves.append(joint_pass(lattice)) or joint_moves[-1],
    )
    out = max_efficiency_allocation(utilities, capacities, quanta, per_player_caps)
    assert joint_moves and joint_moves[0] >= 2
    # The exchange pass after the joint moves moved something too.
    assert counts["moves"] > 0 and counts["calls"] <= counts["bound"]
    expected = reference_scoring.max_efficiency_allocation(
        utilities, capacities, quanta, per_player_caps
    )
    assert out.allocations.tobytes() == expected.allocations.tobytes()
    assert out.utilities.tobytes() == expected.utilities.tobytes()
    assert out.steps == expected.steps


def test_one_table_fill_per_distinct_grid(monkeypatch):
    # Every chip utility is a GridUtility2D, one object per application:
    # with the table memo empty, each object's table is filled by one
    # counted value dispatch over its box, and nothing calls the one-row
    # value.
    monkeypatch.setattr(optimum, "_TABLES", OrderedDict())
    problem = _cpbn64_problem()
    scalars = []
    value = GridUtility2D.value

    def counting_value(self, allocation):
        scalars.append(id(self))
        return value(self, allocation)

    monkeypatch.setattr(GridUtility2D, "value", counting_value)
    counts = _fill_counts(problem)
    distinct = {id(u) for u in problem.utilities}
    assert len(distinct) == 22
    assert counts["batch_value_calls"] == 22
    assert counts["batch_gradient_calls"] == 0
    assert sorted(id(grid) for grid, *_ in optimum._TABLES) == sorted(distinct)
    assert counts["batch_points"] == sum(len(t) for t in optimum._TABLES.values())
    assert scalars == []


def _cpbn64_problem():
    bundle = generate_bundles("CPBN", 64, count=1, seed=2016)[0]
    return ChipModel(cmp_64core(), bundle.apps).build_problem()


def _fill_counts(problem):
    """Utility work of one MaxEfficiency search on ``problem``."""
    before = EVAL_COUNTERS.snapshot()
    max_efficiency_allocation(
        problem.utilities, problem.capacities, problem.quanta, problem.per_player_caps
    )
    return EVAL_COUNTERS.since(before)


class TestTableMemo:
    def test_second_problem_on_the_same_grids_fills_no_table(self, monkeypatch):
        monkeypatch.setattr(optimum, "_TABLES", OrderedDict())
        first = _fill_counts(_cpbn64_problem())
        assert first["batch_value_calls"] == 22
        assert _fill_counts(_cpbn64_problem())["total_calls"] == 0

    def test_memoized_tables_give_the_fresh_optimum_bitwise(self, monkeypatch):
        problem = _cpbn64_problem()
        args = (problem.utilities, problem.capacities, problem.quanta, problem.per_player_caps)
        monkeypatch.setattr(optimum, "_TABLES", OrderedDict())
        fresh = max_efficiency_allocation(*args)
        memoized = max_efficiency_allocation(*args)
        assert memoized.allocations.tobytes() == fresh.allocations.tobytes()
        assert memoized.utilities.tobytes() == fresh.utilities.tobytes()
        assert memoized.steps == fresh.steps

    def test_writable_grids_are_never_memoized(self, monkeypatch):
        monkeypatch.setattr(optimum, "_TABLES", OrderedDict())
        xs, ys = np.linspace(0.0, 4.0, 5), np.linspace(0.0, 2.0, 4)
        grid = GridUtility2D(xs, ys, np.sqrt(1.0 + xs[:, None]) * np.log1p(1.0 + ys))
        grid.xs.flags.writeable = grid.ys.flags.writeable = False
        # Read-only axes, writable values: the values may still change.
        for _ in range(2):
            before = EVAL_COUNTERS.snapshot()
            max_efficiency_allocation([grid, grid], [4.0, 2.0], [0.25, 0.25])
            assert EVAL_COUNTERS.since(before)["batch_value_calls"] == 1
        assert len(optimum._TABLES) == 0

    def test_one_grid_keeps_one_table_per_box_and_quanta(self, monkeypatch):
        monkeypatch.setattr(optimum, "_TABLES", OrderedDict())
        xs, ys = np.linspace(0.0, 4.0, 5), np.linspace(0.0, 2.0, 4)
        grid = GridUtility2D(xs, ys, np.sqrt(1.0 + xs[:, None]) * np.log1p(1.0 + ys))
        for axis in (grid.xs, grid.ys, grid.values):
            axis.flags.writeable = False
        coarse, fine = np.array([0.5, 0.5]), np.array([0.25, 0.5])
        tables = [
            optimum._utility_table(grid, shape, quanta)
            for shape, quanta in (((9, 5), coarse), ((5, 5), coarse), ((5, 5), fine))
        ]
        assert [len(t) for t in tables] == [45, 25, 25]
        assert tables[1] != tables[2]
        assert len(optimum._TABLES) == 3

    def test_bound_evicts_the_oldest_entry_first(self, monkeypatch):
        monkeypatch.setattr(optimum, "_TABLES", OrderedDict())
        monkeypatch.setattr(optimum, "_TABLES_SIZE", 2)
        xs, ys = np.linspace(0.0, 4.0, 5), np.linspace(0.0, 2.0, 4)
        grids = []
        for scale in (1.0, 2.0, 3.0):
            grid = GridUtility2D(xs, ys, scale * np.sqrt(1.0 + xs[:, None]) * np.log1p(1.0 + ys))
            for axis in (grid.xs, grid.ys, grid.values):
                axis.flags.writeable = False
            grids.append(grid)
        quanta = np.array([0.5, 0.5])
        tables = [optimum._utility_table(grid, (9, 5), quanta) for grid in grids]
        assert [key[0] for key in optimum._TABLES] == grids[1:]
        assert optimum._utility_table(grids[2], (9, 5), quanta) is tables[2]
        assert optimum._utility_table(grids[0], (9, 5), quanta) is not tables[0]
        assert [key[0] for key in optimum._TABLES] == grids[2:] + grids[:1]


def test_scalar_only_tables_fill_on_first_read(monkeypatch):
    # BandwidthAwareUtility's body loops a per-point model, and its box
    # holds 160k-325k points per core on the uncapped bandwidth axis;
    # the search reads only the points it visits, each once, as one-row
    # value calls.  The per-player memo this table replaced evaluated
    # exactly these counts.
    bundle = generate_bundles("CPBN", 8, count=1, seed=9)[0]
    problem = build_bandwidth_problem(ChipModel(cmp_8core(), bundle.apps))
    calls = {}
    value = BandwidthAwareUtility.value

    def counting_value(self, allocation):
        calls[id(self)] = calls.get(id(self), 0) + 1
        return value(self, allocation)

    monkeypatch.setattr(BandwidthAwareUtility, "value", counting_value)
    max_efficiency_allocation(
        problem.utilities, problem.capacities, problem.quanta, problem.per_player_caps
    )
    counts = [calls[id(u)] for u in problem.utilities]
    assert all(
        n <= memo for n, memo in zip(counts, [216, 30, 133, 142, 150, 142, 223, 221])
    )


def test_allocations_are_lattice_points_bitwise():
    # 0.1 and 0.3 quanta: a running sum of quanta drifts off the lattice
    # point in the last bits, coords × quanta does not.
    utilities, capacities, quanta, per_player_caps = _joint_move_market()
    out = max_efficiency_allocation(utilities, capacities, quanta, per_player_caps)
    coords = np.rint(out.allocations / quanta)
    assert (coords * quanta).tobytes() == out.allocations.tobytes()
    np.testing.assert_array_equal(coords.sum(axis=0), np.floor(capacities / quanta + 1e-9))
    assert out.utilities.tobytes() == np.array(
        [u.value(a) for u, a in zip(utilities, out.allocations)]
    ).tobytes()


def test_oversized_vectorized_box_fills_on_first_read(monkeypatch):
    # A utility whose box exceeds the eager-fill bound (302 x 302 points
    # here; 258**3 at the default 1/256 quanta of a three-resource
    # market) is read one point at a time, never filled as a box.
    utilities = [LogUtility([1.0, 2.0], [1.0, 1.0]), LogUtility([2.0, 0.5], [1.0, 1.0])]
    batches = []
    value_batch = LogUtility.value_batch

    def counting_value_batch(self, points):
        batches.append(len(points))
        return value_batch(self, points)

    monkeypatch.setattr(LogUtility, "value_batch", counting_value_batch)
    capacities = np.array([3.0, 3.0])
    out = max_efficiency_allocation(utilities, capacities, [0.01, 0.01])
    assert batches and set(batches) == {1}
    assert out.allocations.sum(axis=0) == pytest.approx(capacities)


@pytest.mark.parametrize(
    "quantum, cap, limit",
    [(0.01, 4.969999999, 497), (1 / 3, 10.333333332333332, 31), (0.07, 26.389999999, 376)],
)
def test_cap_limit_is_the_last_lattice_point_within_the_cap(quantum, cap, limit):
    # The quotient (cap + 1e-9) / quantum rounds to just below an integer
    # whose lattice point is within the cap (the first two cases), or to
    # an integer whose lattice point is just past it (the third).
    utilities = [LinearUtility([2.0]), LinearUtility([1.0])]
    capacities, caps = [2.0 * cap], np.array([[cap], [2.0 * cap]])
    out = max_efficiency_allocation(utilities, capacities, [quantum], caps)
    assert out.allocations[0, 0] == limit * quantum
    expected = reference_scoring.max_efficiency_allocation(
        utilities, capacities, [quantum], caps
    )
    assert out.allocations.tobytes() == expected.allocations.tobytes()
    assert out.utilities.tobytes() == expected.utilities.tobytes()
