"""Per-layer spans recorded from outside ``repro``.

:class:`Tracer` wraps the public functions and methods of each layer
for the length of a traced run.  A module-level function is replaced in
*every* module of the checkout that holds it (``from x import f``
binds ``f`` into the importer), so no call escapes; methods are
replaced on their class.  Spans are kept in memory as ``(name, start,
end, parent)`` and reduced to per-layer calls, total and self time when
the run ends.  :meth:`Tracer.uninstall` puts every original back.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import defaultdict
from pathlib import Path
from typing import Callable, Dict, List, Tuple

ROOT = Path(__file__).resolve().parent.parent

#: Marks a wrapper, so tests can assert none is left behind.
MARK = "__perfbench_span__"


def _equilibrium_counts(result) -> Dict[str, float]:
    return {
        "iterations": result.iterations,
        "converged": float(result.converged),
        "warm": float(result.warm_started),
    }


def _rebudget_counts(result) -> Dict[str, float]:
    return {"rounds": len(result.rounds)}


def _optimum_counts(result) -> Dict[str, float]:
    return {"steps": result.steps}


#: (span, module, function, counter hook) for module-level functions.
FUNCTIONS = (
    ("workloads.generate_bundles", "repro.workloads.bundles", "generate_bundles", None),
    ("analysis.run_analytic_sweep", "repro.analysis.experiments", "run_analytic_sweep", None),
    (
        "analysis.run_simulation_experiment",
        "repro.analysis.experiments",
        "run_simulation_experiment",
        None,
    ),
    ("cmp.build_true_utility", "repro.cmp.utility_builder", "build_true_utility", None),
    ("cmp.convexify_grid", "repro.cmp.utility_builder", "convexify_grid", None),
    ("core.max_efficiency_allocation", "repro.core.optimum", "max_efficiency_allocation", _optimum_counts),
    ("core.envy_freeness", "repro.core.metrics", "envy_freeness", None),
    ("core.find_equilibrium", "repro.core.equilibrium", "find_equilibrium", _equilibrium_counts),
    ("core.run_rebudget", "repro.core.rebudget", "run_rebudget", _rebudget_counts),
)

#: (span, module, class, method) for methods.
METHODS = (
    ("exec.run", "repro.exec.executor", "SweepExecutor", "run"),
    ("cmp.build_problem", "repro.cmp.chip", "ChipModel", "build_problem"),
    ("cmp.frequency_for_power", "repro.cmp.power", "DVFSPowerModel", "frequency_for_power"),
    ("cmp.estimated_utility", "repro.cmp.monitor", "RuntimeMonitor", "estimated_utility"),
    ("cmp.observe_epoch", "repro.cmp.monitor", "RuntimeMonitor", "observe_epoch"),
    ("sim.run", "repro.sim.engine", "ExecutionDrivenSimulator", "run"),
)

#: ``allocate`` of every mechanism class in repro; the span is named
#: after the mechanism instance (``core.allocate.ReBudget-20``).
ALLOCATE_PREFIX = "core.allocate."


def _checkout_modules() -> List[object]:
    """Loaded modules whose source lies inside the checkout."""
    root = str(ROOT)
    found = []
    for module in list(sys.modules.values()):
        path = getattr(module, "__file__", None)
        if path and str(Path(path).resolve()).startswith(root):
            found.append(module)
    return found


def _mechanism_classes() -> List[type]:
    base = importlib.import_module("repro.core.mechanisms").AllocationMechanism
    seen, stack = [], [base]
    while stack:
        cls = stack.pop()
        for sub in cls.__subclasses__():
            if sub not in seen:
                seen.append(sub)
                stack.append(sub)
    return [
        cls
        for cls in seen
        if cls.__module__.startswith("repro.") and "allocate" in cls.__dict__
    ]


class Tracer:
    """Spans around calls into each layer, installed by patching."""

    def __init__(self) -> None:
        self.spans: List[list] = []  # [name, start, end, parent index]
        self.counters: Dict[str, float] = defaultdict(float)
        self._stack: List[int] = []
        self._restore: List[Tuple[object, str, object]] = []

    # -- wrapping ------------------------------------------------------

    def _wrap(self, fn: Callable, name, hook=None) -> Callable:
        spans, stack, counters = self.spans, self._stack, self.counters

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = name(args) if callable(name) else name
            index = len(spans)
            spans.append([span, time.perf_counter(), None, stack[-1] if stack else -1])
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[index][2] = time.perf_counter()
                stack.pop()
            if hook is not None:
                for key, value in hook(result).items():
                    counters[f"{span}.{key}"] += value
            return result

        setattr(wrapper, MARK, fn)
        return wrapper

    def install(self) -> None:
        """Patch every target; calls are traced until :meth:`uninstall`."""
        if self._restore:
            raise RuntimeError("tracer already installed")
        by_original = {}
        for span, module, attr, hook in FUNCTIONS:
            original = getattr(importlib.import_module(module), attr)
            by_original[id(original)] = (original, self._wrap(original, span, hook))
        for module in _checkout_modules():
            namespace = vars(module)
            for attr, value in list(namespace.items()):
                entry = by_original.get(id(value))
                if entry is not None and entry[0] is value:
                    self._patch(module, attr, entry[1])
        for span, module, cls_name, attr in METHODS:
            cls = getattr(importlib.import_module(module), cls_name)
            self._patch(cls, attr, self._wrap(cls.__dict__[attr], span))
        for cls in _mechanism_classes():
            self._patch(
                cls,
                "allocate",
                self._wrap(cls.__dict__["allocate"], lambda args: ALLOCATE_PREFIX + args[0].name),
            )

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._restore.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        """Restore every patched attribute, in reverse order."""
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    # -- reduction -----------------------------------------------------

    def layers(self) -> Dict[str, Dict[str, float]]:
        """Per span name: ``calls``, ``total_s`` and ``self_s``.

        Self time is a span's duration minus the durations of the spans
        it directly caused.
        """
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        stats: Dict[str, Dict[str, float]] = {}
        for i, (name, start, end, _parent) in enumerate(self.spans):
            entry = stats.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            entry["calls"] += 1
            entry["total_s"] += end - start
            entry["self_s"] += (end - start) - child[i]
        return stats

    def top_level_s(self) -> float:
        """Host time inside spans that no other span caused."""
        return sum(end - start for _n, start, end, parent in self.spans if parent < 0)


def leftover_wrappers() -> List[str]:
    """Attributes of checkout modules and repro classes still wrapped."""
    owners: List[object] = list(_checkout_modules())
    for _span, module, cls_name, _attr in METHODS:
        owners.append(getattr(importlib.import_module(module), cls_name))
    owners.extend(_mechanism_classes())
    left = []
    for owner in owners:
        for attr, value in list(vars(owner).items()):
            if hasattr(value, MARK) and callable(value):
                left.append(f"{getattr(owner, '__name__', owner)}.{attr}")
    return left


def originals() -> Dict[str, object]:
    """The functions :data:`FUNCTIONS` targets, by span name."""
    return {
        span: getattr(importlib.import_module(module), attr)
        for span, module, attr, _hook in FUNCTIONS
    }
