"""Building market utilities from the multicore performance models.

The market operates on *extra* resources beyond each core's free
minimum (one 128 kB cache region, and the power to run at 800 MHz).
This module turns a :class:`~repro.cmp.core_model.CoreModel` — or a
runtime-monitored estimate of one — into a concave, continuous
2-resource utility over ``(extra cache bytes, extra power watts)``:

1. sample normalized performance on a (cache x power) grid;
2. convexify along the cache axis (Talus) and, if the sampled power
   response ever dips from concavity, along the power axis as well;
3. wrap the result in bilinear interpolation.

The convexification passes are iterated until the grid is concave along
both axes, mirroring the paper's "derive the convex hull of cache and
power" step in Section 6.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..utility.convex_hull import hull_lines
from ..utility.tabular import GridUtility2D
from .config import CMPConfig
from .core_model import CoreModel

__all__ = [
    "POWER_GRID_POINTS",
    "convexify_grid",
    "build_true_utility",
    "build_true_utilities",
    "memoized_true_utilities",
    "build_utilities_from_miss_curves",
]

#: Grid resolution along the power axis (cache is sampled per region).
POWER_GRID_POINTS = 17

#: Upper bound on :func:`convexify_grid`'s hull passes.
_CONVEXIFY_MAX_PASSES = 6

#: :func:`memoized_true_utilities`' grids, oldest first, keyed by
#: ``(CMPConfig, AppProfile, convexify)``.  The bound holds the
#: 24 SPEC applications on both chips with and without convexification
#: (96 grids) with room to spare.
_TRUE_GRIDS: "OrderedDict[tuple, GridUtility2D]" = OrderedDict()
_TRUE_GRIDS_SIZE = 128


def convexify_grid(
    cache_axis: np.ndarray, power_axes: np.ndarray, values: np.ndarray
) -> np.ndarray:
    """Hull a stack of grids along both axes until each is concave along each.

    ``values`` is ``(G, C, P)``: ``G`` grids over the shared
    ``cache_axis`` (``C``) and their own power axes, ``power_axes``
    ``(G, P)``.  Each pass replaces every cache column (power fixed) and
    then every power row (cache fixed) of every grid with its upper
    convex hull evaluated back on the grid, all in one lockstep
    :func:`~repro.utility.convex_hull.hull_lines` call per axis.
    Hulling can only raise values, and values are bounded by the global
    maximum, so the iteration converges; a grid leaves the stack after
    the first pass that moves no value by more than 1e-12, and at most
    six passes run.
    """
    out = np.array(values, dtype=float)
    num, cache, power = out.shape
    power_axes = np.asarray(power_axes, dtype=float)
    live = np.arange(num)
    for _ in range(_CONVEXIFY_MAX_PASSES):
        before = out[live]
        columns = before.transpose(0, 2, 1).reshape(-1, cache)
        hulled = hull_lines(cache_axis, columns).reshape(live.size, power, cache)
        rows = hulled.transpose(0, 2, 1).reshape(-1, power)
        axes = np.repeat(power_axes[live], cache, axis=0)
        after = hull_lines(axes, rows).reshape(live.size, cache, power)
        out[live] = after
        settled = np.isclose(before, after, rtol=0.0, atol=1e-12).all(axis=(1, 2))
        live = live[~settled]
        if not live.size:
            break
    return out


def build_true_utility(
    core: CoreModel,
    config: CMPConfig,
    convexify: bool = True,
) -> GridUtility2D:
    """The "perfectly modeled" utility of phase-1 (Section 6).

    Evaluates the analytic core model exactly and (by default) applies
    the Talus-style convexification, producing the concave continuous
    utility over extras that the theory requires.
    """
    min_cache = float(config.cache_region_bytes)
    monitor_cap = float(config.umon_max_bytes)
    memory_ns = np.array(
        [
            core.app.misses_per_instruction(min(min_cache + c, monitor_cap))
            * core.memory_latency_ns
            for c in _cache_axis(config)
        ]
    )
    power_axis, values = _separable_grid(
        core, core.app.cpi_exe, memory_ns, core.alone_performance_gips
    )
    if convexify:
        return _convexified(config, [power_axis], [values])[0]
    return GridUtility2D(_cache_axis(config), power_axis, values)


def build_true_utilities(
    cores: Sequence[CoreModel],
    config: CMPConfig,
    convexify: bool = True,
) -> List[GridUtility2D]:
    """:func:`build_true_utility` of every core, all grids hulled in one batch."""
    grids = [build_true_utility(core, config, convexify=False) for core in cores]
    if not convexify:
        return grids
    return _convexified(config, [grid.ys for grid in grids], [grid.values for grid in grids])


def memoized_true_utilities(
    cores: Sequence[CoreModel],
    config: CMPConfig,
    convexify: bool = True,
) -> List[GridUtility2D]:
    """:func:`build_true_utilities` of every core, each grid built once per process.

    The cores must use the power and DRAM models a chip derives from
    ``config`` alone (as :class:`~repro.cmp.chip.ChipModel` and the
    simulator's switched-in cores do), so a true grid is a function of
    ``(config, app, convexify)``, and the memo is keyed by those values.
    A grid's hull does not depend on which grids share its batch, so a
    hit is bitwise the grid a miss would build.  Cores running the same
    application get the same object.  The misses are built in one
    batch, and every array of a stored grid is read-only.
    """
    first_core = {}
    for core in cores:
        first_core.setdefault(core.app, core)
    keys = {app: (config, app, convexify) for app in first_core}
    missing = [app for app, key in keys.items() if key not in _TRUE_GRIDS]
    grids = build_true_utilities([first_core[app] for app in missing], config, convexify)
    for app, grid in zip(missing, grids):
        grid.xs.flags.writeable = grid.ys.flags.writeable = False
        grid.values.flags.writeable = False
        _TRUE_GRIDS[keys[app]] = grid
    grid_of = {app: _TRUE_GRIDS[key] for app, key in keys.items()}
    while len(_TRUE_GRIDS) > _TRUE_GRIDS_SIZE:
        _TRUE_GRIDS.popitem(last=False)
    return [grid_of[core.app] for core in cores]


def build_utilities_from_miss_curves(
    cores: Sequence[CoreModel],
    config: CMPConfig,
    miss_curves: Sequence[np.ndarray],
    cpi_estimates: Sequence[Optional[float]],
) -> List[GridUtility2D]:
    """Phase-2 utilities from *monitored* miss curves (UMON output).

    ``miss_curves[n][k]`` is core ``n``'s estimated miss fraction with
    ``k+1`` regions.  The compute-phase CPI may also be an estimate
    (``None`` takes the application's own); the power model and DRAM
    latency are shared with the true model (the paper estimates them
    with Isci-style counters, whose error is small relative to MRC
    sampling noise).  Every grid is convexified, all in one batch.
    """
    grids = [
        _monitored_grid(core, config, miss_curve, cpi_estimate)
        for core, miss_curve, cpi_estimate in zip(cores, miss_curves, cpi_estimates)
    ]
    return _convexified(config, [power for power, _ in grids], [values for _, values in grids])


def _monitored_grid(
    core: CoreModel,
    config: CMPConfig,
    miss_curve: np.ndarray,
    cpi_estimate: Optional[float],
) -> Tuple[np.ndarray, np.ndarray]:
    """The raw grid :func:`build_utilities_from_miss_curves` convexifies."""
    cpi = core.app.cpi_exe if cpi_estimate is None else cpi_estimate
    apki = core.app.apki
    latency = core.memory_latency_ns
    region = config.cache_region_bytes
    max_regions = miss_curve.size
    cache_axis = _cache_axis(config)
    region_indices = np.clip((region + cache_axis) / region, 1.0, float(max_regions))
    miss = np.interp(region_indices, np.arange(1, max_regions + 1), miss_curve)
    # Normalize by the *estimated* standalone performance (the paper's
    # monitors never see the true one).
    alone = 1.0 / (
        cpi / config.core.max_frequency_ghz
        + apki / 1000.0 * miss_curve[-1] * latency
    )
    return _separable_grid(core, cpi, apki / 1000.0 * miss * latency, alone)


def _cache_axis(config: CMPConfig) -> np.ndarray:
    """One sample per region, from no extra cache up to UMON's limit."""
    return np.arange(config.umon_max_regions, dtype=float) * config.cache_region_bytes


def _separable_grid(
    core: CoreModel,
    cpi: float,
    memory_ns: np.ndarray,
    alone: float,
) -> Tuple[np.ndarray, np.ndarray]:
    """The raw (extra cache x extra power) grid both builders share.

    The power axis and its frequencies come from the power model's
    memoized :meth:`~repro.cmp.power.DVFSPowerModel.power_axis` (one
    elementwise bisection per activity).  Performance is separable into
    compute and memory time, ``perf[i, j] = 1 / (cpi / f_j +
    memory_ns[i])``, so the surface is an outer combination of two 1-D
    arrays; it is then normalized by the standalone performance
    ``alone``.  Returns the power axis and the values.
    """
    power_axis, frequencies = core.power_model.power_axis(
        core.app.activity, POWER_GRID_POINTS
    )
    compute_ns = cpi / frequencies
    values = 1.0 / (compute_ns[None, :] + memory_ns[:, None])
    values /= alone
    return power_axis, values


def _convexified(
    config: CMPConfig, power_axes: Sequence[np.ndarray], values: Sequence[np.ndarray]
) -> List[GridUtility2D]:
    """Raw grids over the chip's cache axis, hulled by one :func:`convexify_grid` call."""
    if not values:
        return []
    cache_axis = _cache_axis(config)
    hulled = convexify_grid(cache_axis, np.array(power_axes), np.array(values))
    return [
        GridUtility2D(cache_axis, power_axis, grid)
        for power_axis, grid in zip(power_axes, hulled)
    ]
