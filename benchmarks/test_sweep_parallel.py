"""Sweep executor: serial-vs-parallel wall-clock and determinism.

Two claims, checked on one serial and one 4-worker sweep:

* **Determinism** — the worker pool must be invisible in the results:
  every cell's efficiency, envy-freeness, iterations and full allocation
  matrix (compared as raw bytes) is identical between the serial and the
  parallel run, with zero isolated cell failures.  Asserted
  unconditionally — it holds on any host.
* **Speedup** — sharding the (bundle, mechanism) cells over 4 workers
  cuts wall-clock by at least 2x.  This one needs free CPUs: a pool
  time-sliced onto fewer cores than workers cannot beat serial, so the
  assertion only applies when the host exposes >= 4 usable CPUs; the
  measured speedup and the host context are reported either way.
"""

import os
import time

from conftest import FULL_SCALE
from repro.analysis import run_analytic_sweep
from repro.cmp import cmp_8core, cmp_64core
from repro.workloads import BUNDLE_CATEGORIES

WORKERS = 4


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def _timed_sweep(workers):
    start = time.perf_counter()
    sweep = run_analytic_sweep(
        config=cmp_64core() if FULL_SCALE else cmp_8core(),
        categories=BUNDLE_CATEGORIES if FULL_SCALE else ("CPBN", "BBPN"),
        bundles_per_category=3,
        workers=workers,
    )
    return sweep, time.perf_counter() - start


def _cells(sweep):
    """Every cell's scores; allocations as raw bytes, so the compare is bitwise."""
    return [
        (
            score.bundle,
            mechanism,
            result.efficiency,
            result.envy_freeness,
            result.iterations,
            result.allocations.tobytes(),
        )
        for score in sweep.scores
        for mechanism, result in score.results.items()
    ]


def test_sweep_parallel_speedup_and_determinism(benchmark, report):
    (serial, serial_s), (parallel, parallel_s) = benchmark.pedantic(
        lambda: (_timed_sweep(1), _timed_sweep(WORKERS)), rounds=1, iterations=1
    )
    assert serial.failures == [] and parallel.failures == []
    cells = _cells(serial)
    assert cells and cells == _cells(parallel), "parallel sweep diverged from serial"

    speedup = serial_s / parallel_s
    usable_cpus = _usable_cpus()
    if usable_cpus >= WORKERS:
        assert speedup >= 2.0, (
            f"expected >= 2x with {WORKERS} workers on {usable_cpus} CPUs, "
            f"got x{speedup:.2f}"
        )

    report(
        f"parallel sweep (serial vs {WORKERS}-worker pool), {len(cells)} cells: "
        f"serial {serial_s:.2f}s -> parallel {parallel_s:.2f}s "
        f"(x{speedup:.2f} on {usable_cpus}/{os.cpu_count() or 1} usable CPUs), "
        f"bitwise identical"
    )
