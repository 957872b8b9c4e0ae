"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload {fig4-sweep64,fig5-sim8,market64}
        [--seed N] [--seconds S] [--trace {0,1}]

Run from the root of a checkout; the ``repro`` package is imported from
``src/``.  With ``--trace 0`` the run measures the end-to-end metrics
with tracing off.  With ``--trace 1`` it runs whole cycles untraced for
half the time, replays the same units under the per-layer tracer, and
reports the per-layer metrics plus the tracing overhead.  Every timing
is host time, calibrated for the host's speed by an interleaved probe
kernel; simulated time is reported separately.  The last line of
standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCES = HERE / "references.json"
WORKLOADS = ("fig4-sweep64", "fig5-sim8", "market64")

#: Set-up is repeated this many times per run; setup_s is the median.
SETUP_REPEATS = 5
#: Host seconds of one probe kernel on an uncontended core of the host
#: the benchmark was defined on (2-CPU x86-64, Python 3.11, numpy 2.4).
#: Calibrated timings are host timings rescaled to that speed.
PROBE_REFERENCE_S = 0.0035
#: During a timed loop the probe runs at most this often.
PROBE_INTERVAL_S = 0.5

#: Workload-specific name of the throughput, its unit, and its value
#: per unit of ops_per_s.
RATES = {
    "fig4-sweep64": ("bundles_per_s", "1/s", 1.0 / 6.0),
    "fig5-sim8": ("sim_ms_per_s", "ms/s", 1.0),
    "market64": ("solves_per_s", "1/s", 1.0),
}

#: Per-layer statistics reported in traced runs, by span.  Shares are
#: of the traced wall time; seconds are share x trace.wall_s.
FULL = ("calls", "total_share", "self_share")
SPAN_STATS = {
    "workloads.generate_bundles": ("calls", "total_share"),
    "analysis.run_analytic_sweep": ("calls", "self_share"),
    "analysis.run_simulation_experiment": ("calls", "self_share"),
    "exec.run": ("calls", "self_share"),
    "cmp.build_problem": FULL,
    "cmp.build_true_utility": FULL,
    "cmp.convexify_grid": FULL,
    "cmp.frequency_for_power": FULL,
    "cmp.estimated_utility": FULL,
    "cmp.observe_epoch": FULL,
    "sim.run": FULL,
    "core.allocate.EqualShare": FULL,
    "core.allocate.EqualBudget": FULL,
    "core.allocate.Balanced": FULL,
    "core.allocate.ReBudget-20": FULL,
    "core.allocate.ReBudget-40": FULL,
    "core.allocate.MaxEfficiency": FULL,
    "core.max_efficiency_allocation": FULL,
    "core.envy_freeness": FULL,
    "core.find_equilibrium": FULL,
    "core.run_rebudget": FULL,
}
#: Counters summed from span results: metric -> (counter, divide by calls).
SPAN_COUNTERS = {
    "core.max_efficiency_allocation.steps": ("core.max_efficiency_allocation.steps", False),
    "core.find_equilibrium.iterations": ("core.find_equilibrium.iterations", False),
    "core.find_equilibrium.converged_ratio": ("core.find_equilibrium.converged", True),
    "core.find_equilibrium.warm_ratio": ("core.find_equilibrium.warm", True),
    "core.run_rebudget.rounds": ("core.run_rebudget.rounds", False),
}
#: repro.utility.EVAL_COUNTERS deltas over the traced region.
UTILITY_COUNTS = ("total_calls", "batch_points", "scalar_calls")


def per_layer_units() -> dict:
    """Every per-layer metric name with its unit, in report order."""
    units = {}
    for span, stats in SPAN_STATS.items():
        for stat in stats:
            units[f"{span}.{stat}"] = "count" if stat == "calls" else "ratio"
    for name in SPAN_COUNTERS:
        units[name] = "ratio" if name.endswith("_ratio") else "count"
    for name in UTILITY_COUNTS:
        units[f"utility.{name}"] = "count"
    units.update(
        {
            "trace.wall_s": "s",
            "trace.untraced_wall_s": "s",
            "trace.overhead_s": "s",
            "trace.remainder_share": "ratio",
            "trace.ops": "count",
        }
    )
    return units


END_TO_END_UNITS = {
    "ops_per_s": "1/s",
    "op_ms.p50": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def host_record(args) -> dict:
    usable = (
        len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    )
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": usable,
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def _probe_kernel() -> float:
    """A fixed mix of scalar bisection steps and small numpy calls."""
    acc = 0.0
    for _ in range(3000):
        lo, hi = 0.0, 4.0
        for _ in range(8):
            mid = 0.5 * (lo + hi)
            if mid * mid * 0.3 + mid <= 2.5:
                lo = mid
            else:
                hi = mid
        acc += lo
    for _ in range(300):
        acc += float(np.interp(0.37, _PROBE_X, _PROBE_Y)) + float(np.maximum(_PROBE_X, 0.5).sum())
    return acc


_PROBE_X = np.linspace(0.0, 1.0, 64)
_PROBE_Y = np.sqrt(_PROBE_X)


def probe_s() -> float:
    """Median host seconds of three probe kernels: the host's speed now."""
    times = []
    for _ in range(3):
        start = time.perf_counter()
        _probe_kernel()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def calibration(before: float, after: float) -> float:
    """Factor from host seconds to calibrated seconds over an interval."""
    return PROBE_REFERENCE_S / (0.5 * (before + after))


def run_loop(workload, inputs, seconds=None, units=None, calibrate=False):
    """Run exactly ``units``, or whole cycles of the planned units until
    ``seconds`` have passed.

    Returns the units run, their results, the loop's wall time and, with
    ``calibrate``, each unit's calibration factor from the probes taken
    before and after it (at most every ``PROBE_INTERVAL_S``).
    """
    cycle = len(inputs["units"])
    plan = iter(units) if units is not None else itertools.cycle(inputs["units"])
    done, results, before, after = [], [], [], []
    last = probe_s() if calibrate else 0.0
    last_at = time.perf_counter()
    start = time.perf_counter()
    for unit in plan:
        before.append(last)
        began = time.perf_counter()
        result = workload.run_unit(inputs, unit)
        result.seconds = time.perf_counter() - began
        results.append(result)
        done.append(unit)
        now = time.perf_counter()
        stop = seconds is not None and len(done) % cycle == 0 and now - start >= seconds
        if calibrate and (stop or now - last_at >= PROBE_INTERVAL_S):
            last, last_at = probe_s(), time.perf_counter()
            after.extend([last] * (len(before) - len(after)))
        if stop:
            break
    factors = [calibration(b, a) for b, a in zip(before, after)]
    return done, results, time.perf_counter() - start, factors


def percentile_ms(samples, q):
    return float(np.percentile(np.asarray(samples) * 1000.0, q))


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def forget_benchmark_modules() -> None:
    """Drop ``suite`` and every ``repro`` module, so the next import runs
    their bodies again; third-party packages stay loaded."""
    for name in list(sys.modules):
        if name in ("suite", "repro") or name.startswith("repro."):
            del sys.modules[name]


def set_up(args):
    """Import the benchmark's code and prepare the inputs ``SETUP_REPEATS``
    times, each part calibrated by the probes taken right around it.

    The first import, which may compile the sources, is not timed.
    Returns the last repeat's inputs (built by the modules that stay
    imported) and the per-repeat host seconds, calibrated and raw.
    """
    import suite

    parts = {"import_s": [], "inputs_s": [], "raw_import_s": [], "raw_inputs_s": []}
    for _ in range(SETUP_REPEATS):
        forget_benchmark_modules()
        probes, stamps = [probe_s()], [time.perf_counter()]
        import suite

        stamps.append(time.perf_counter())
        probes.append(probe_s())
        stamps.append(time.perf_counter())
        inputs = suite.WORKLOADS[args.workload].prepare(args.seed)
        stamps.append(time.perf_counter())
        probes.append(probe_s())
        for part, raw, before, after in (
            ("import_s", stamps[1] - stamps[0], probes[0], probes[1]),
            ("inputs_s", stamps[3] - stamps[2], probes[1], probes[2]),
        ):
            parts["raw_" + part].append(raw)
            parts[part].append(raw * calibration(before, after))
    return inputs, parts


def timed_run(args, workload, tally, inputs, setup):
    setup_s = statistics.median(map(sum, zip(setup["import_s"], setup["inputs_s"])))
    raw_setup_s = statistics.median(map(sum, zip(setup["raw_import_s"], setup["raw_inputs_s"])))

    _units, results, wall, factors = run_loop(
        workload, inputs, seconds=args.seconds, calibrate=True
    )
    for result in results:
        for check in result.checks:
            tally.add(*check)
    unit_s = [r.seconds * k for r, k in zip(results, factors)]
    op_s = [x * k for r, k in zip(results, factors) for x in r.op_seconds]
    raw_op_s = [x for r in results for x in r.op_seconds]
    ops_per_s = tally.attempted / sum(unit_s)
    raw_ops_per_s = tally.attempted / sum(r.seconds for r in results)
    rate_name, rate_unit, per_op = RATES[workload.name]
    metrics = {
        "ops_per_s": ops_per_s,
        "op_ms.p50": percentile_ms(op_s, 50),
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb(),
    }
    cycles = len(results) // len(inputs["units"])
    print(f"{rate_name:<20} {ops_per_s * per_op:14.6f} {rate_unit}")
    print(f"{'ops':<20} {tally.attempted:14d} in {cycles} cycles, {wall:.3f} s of wall")
    print(f"{'op samples':<20} {len(op_s):14d}")
    # Printed, not gated: its run-to-run spread reached 17% on a shared
    # 2-CPU x86-64 host.
    print(f"{'op_ms.p90':<20} {percentile_ms(op_s, 90):14.6f} ms")
    print(
        f"{'host speed':<20} {min(factors):14.6f} .. {max(factors):.6f} "
        "(calibration factors; 1 = reference speed)"
    )
    print(f"{'uncalibrated':<20} {raw_ops_per_s:14.6f} 1/s, p50 {percentile_ms(raw_op_s, 50):.6f} ms")
    for part in ("import_s", "inputs_s"):
        print(f"{'setup ' + part:<20} {statistics.median(setup[part]):14.6f} s (median of {SETUP_REPEATS})")
    detail = {
        "host_time": {
            "loop_wall_s": wall,
            "cycles": cycles,
            rate_name: ops_per_s * per_op,
            "op_ms.p90": percentile_ms(op_s, 90),
            "calibration_factors": factors,
            "uncalibrated": {
                "ops_per_s": raw_ops_per_s,
                "op_ms.p50": percentile_ms(raw_op_s, 50),
                "op_ms.p90": percentile_ms(raw_op_s, 90),
                "setup_s": raw_setup_s,
            },
            "setup": setup,
        },
        "simulated": {"sim_ms": sum(result.sim_ms for result in results)},
    }
    return metrics, detail


def traced_run(args, workload, tally):
    from repro.utility import EVAL_COUNTERS
    from tracer import Tracer

    probes = [probe_s()]
    start = time.perf_counter()
    inputs = workload.prepare(args.seed)
    units, results, _, _ = run_loop(workload, inputs, seconds=args.seconds / 2.0)
    untraced = time.perf_counter() - start
    probes.append(probe_s())

    tracer = Tracer()
    counts_at = EVAL_COUNTERS.snapshot()
    tracer.install()
    try:
        start = time.perf_counter()
        inputs = workload.prepare(args.seed)
        _, traced_results, _, _ = run_loop(workload, inputs, units=units)
        traced = time.perf_counter() - start
    finally:
        tracer.uninstall()
    counts = EVAL_COUNTERS.since(counts_at)
    probes.append(probe_s())
    calibrated_overhead = traced * calibration(probes[1], probes[2]) - untraced * calibration(
        probes[0], probes[1]
    )

    for result in results + traced_results:
        for check in result.checks:
            tally.add(*check)

    layers = tracer.layers()
    empty = {"calls": 0, "total_s": 0.0, "self_s": 0.0}
    metrics = {}
    for span, stats in SPAN_STATS.items():
        entry = layers.get(span, empty)
        for stat in stats:
            if stat == "calls":
                metrics[f"{span}.calls"] = entry["calls"]
            else:
                metrics[f"{span}.{stat}"] = entry[stat.replace("share", "s")] / traced
    for name, (counter, per_call) in SPAN_COUNTERS.items():
        value = tracer.counters.get(counter, 0.0)
        if per_call:
            calls = layers.get(counter.rsplit(".", 1)[0], empty)["calls"]
            value = value / calls if calls else 0.0
        metrics[name] = value
    for name in UTILITY_COUNTS:
        metrics[f"utility.{name}"] = counts[name]
    remainder = traced - tracer.top_level_s()
    metrics.update(
        {
            "trace.wall_s": traced,
            "trace.untraced_wall_s": untraced,
            "trace.overhead_s": calibrated_overhead,
            "trace.remainder_share": remainder / traced,
            "trace.ops": sum(check[1] for r in traced_results for check in r.checks),
        }
    )

    print(f"{'layer':<38} {'calls':>8} {'total_s':>10} {'self_s':>10} {'self share':>10}")
    for span in sorted(layers):
        entry = layers[span]
        print(
            f"{span:<38} {entry['calls']:8d} {entry['total_s']:10.4f} "
            f"{entry['self_s']:10.4f} {entry['self_s'] / traced:10.4f}"
        )
    print(f"{'(untraced remainder)':<38} {'':8} {'':10} {remainder:10.4f} {remainder / traced:10.4f}")
    print(
        f"traced wall {traced:.4f} s, untraced wall {untraced:.4f} s for the same units, "
        f"tracing overhead {traced - untraced:.4f} s ({calibrated_overhead:.4f} s calibrated)"
    )
    detail = {"host_time": {"layers": layers, "remainder_s": remainder, "probes_s": probes}}
    return metrics, detail


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file() or not REFERENCES.is_file():
        print(
            "perfbench: run from the root of a full checkout (needs src/repro "
            "and perfbench/references.json)",
            file=sys.stderr,
        )
        return 2
    sys.path.insert(0, str(SRC))
    setup = None if args.trace else set_up(args)
    import suite

    workload = suite.WORKLOADS[args.workload]
    references = json.loads(REFERENCES.read_text())[workload.name]
    tally = suite.CheckTally(references)

    print(f"perfbench {workload.name} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print("all timings are host time; simulated time is reported separately")
    if args.trace:
        metrics, detail = traced_run(args, workload, tally)
    else:
        metrics, detail = timed_run(args, workload, tally, *setup)
    units = per_layer_units() if args.trace else END_TO_END_UNITS

    failed_frac = tally.failed / tally.attempted
    print(f"{'failed_frac':<20} {failed_frac:14.6f} ({tally.failed}/{tally.attempted} ops)")
    for miss in tally.misses[:10]:
        print(f"  miss {miss}")
    for name, value in metrics.items():
        print(f"{name:<46} {value:18.6f} {units[name]}")
    detail.update(
        host=host_record(args),
        checks={
            "attempted": tally.attempted,
            "failed": tally.failed,
            "failed_frac": failed_frac,
            "tolerance": {"rtol": suite.RTOL, "atol": suite.ATOL},
            "misses": tally.misses,
        },
    )
    print("record " + json.dumps(detail, sort_keys=True))
    correct = tally.failed == 0
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": tally.attempted,
                "failed": tally.failed,
                "metrics": {
                    name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()
                },
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
