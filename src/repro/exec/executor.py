"""Process-parallel sweep execution.

The experiment harness behind Figures 4 and 5 scores hundreds of
independent (bundle, mechanism) cells; nothing is shared between them,
so they shard cleanly over a :mod:`multiprocessing` pool.  The
:class:`SweepExecutor` here is the one engine both sweeps (and any
future fan-out workload) run on.  Its contract:

* **Determinism** — a work item sees only its spec, never how items
  were sharded over workers, and results come back in submission order,
  so ``workers=1`` and ``workers=N`` produce identical results for
  deterministic cells.  A cell that needs randomness carries its seed
  in its spec.
* **Error isolation** — an exception inside one item is caught in the
  worker, recorded as a failed :class:`CellOutcome` carrying the
  formatted traceback, and the rest of the sweep continues.
* **Progress** — as each cell completes (in completion order, which
  under parallelism is not submission order), an optional callback
  receives a :class:`SweepProgress` beat with counts, elapsed time and
  a naive ETA.
* **Serial fallback** — ``workers=1`` runs every item in-process through
  the exact same envelope (same isolation, same progress), with no pool
  and no pickling of results.

Work functions must be module-level callables (pickled by reference)
and work specs must be picklable; both constraints only bite when
``workers > 1``.
"""

from __future__ import annotations

import multiprocessing
import time
import traceback
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator, List, Optional, Sequence

__all__ = ["CellOutcome", "SweepProgress", "SweepRun", "SweepExecutor"]

_START_METHOD = "fork" if "fork" in multiprocessing.get_all_start_methods() else "spawn"


@dataclass
class CellOutcome:
    """Envelope around one work item's result (success or failure)."""

    index: int
    label: str
    ok: bool
    value: Any = None
    #: Formatted traceback of the worker-side exception, when ``not ok``.
    error: Optional[str] = None
    elapsed_s: float = 0.0


@dataclass(frozen=True)
class SweepProgress:
    """One progress beat, emitted as a cell completes."""

    completed: int
    total: int
    label: str
    ok: bool
    #: Wall-clock seconds since the sweep started.
    elapsed_s: float
    #: Naive remaining-time estimate: mean pace times outstanding cells.
    eta_s: float

    def describe(self) -> str:
        status = "ok" if self.ok else "FAILED"
        return (
            f"[{self.completed}/{self.total}] {self.label}: {status} "
            f"({self.elapsed_s:.1f}s elapsed, ~{self.eta_s:.0f}s left)"
        )


@dataclass
class SweepRun:
    """All cell outcomes of one executor run, in submission order."""

    cells: List[CellOutcome] = field(default_factory=list)
    elapsed_s: float = 0.0
    workers: int = 1

    @property
    def failures(self) -> List[CellOutcome]:
        return [cell for cell in self.cells if not cell.ok]

    def values(self) -> List[Any]:
        """Successful cells' values, in submission order."""
        return [cell.value for cell in self.cells if cell.ok]

    def raise_failures(self) -> None:
        """Re-raise the first failure (for callers that want fail-fast)."""
        for cell in self.cells:
            if not cell.ok:
                raise RuntimeError(
                    f"sweep cell {cell.label!r} failed:\n{cell.error}"
                )


def _execute_cell(task) -> CellOutcome:
    """Run one work item inside its isolation envelope (worker side)."""
    index, label, fn, spec = task
    start = time.perf_counter()
    try:
        value = fn(spec)
        return CellOutcome(
            index=index,
            label=label,
            ok=True,
            value=value,
            elapsed_s=time.perf_counter() - start,
        )
    except Exception:
        return CellOutcome(
            index=index,
            label=label,
            ok=False,
            error=traceback.format_exc(),
            elapsed_s=time.perf_counter() - start,
        )


class SweepExecutor:
    """Shard independent work items over a process pool.

    Parameters
    ----------
    workers:
        Pool size.  ``1`` (the default) runs everything serially
        in-process — same isolation and progress reporting, no
        pickling.
    progress:
        Optional callback receiving a :class:`SweepProgress` per
        completed cell.

    The pool forks where the platform can (cheap, inherits imports) and
    spawns elsewhere, and hands each worker one task per dispatch: the
    best load balance for heterogeneous cell costs (a MaxEfficiency cell
    is ~40x an EqualShare cell).
    """

    def __init__(
        self,
        workers: int = 1,
        progress: Optional[Callable[[SweepProgress], None]] = None,
    ):
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.workers = workers
        self.progress = progress

    def run(
        self,
        fn: Callable[[Any], Any],
        specs: Sequence[Any],
        labels: Optional[Sequence[str]] = None,
    ) -> SweepRun:
        """Apply ``fn(spec)`` to every spec.

        ``fn`` must be a module-level callable when ``workers > 1`` (it
        is pickled by reference into the workers).  Returns a
        :class:`SweepRun` whose cells are in submission order whatever
        the completion order was.
        """
        specs = list(specs)
        n = len(specs)
        if labels is None:
            labels = [f"cell-{i}" for i in range(n)]
        elif len(labels) != n:
            raise ValueError(f"got {len(labels)} labels for {n} specs")

        tasks = [(i, str(labels[i]), fn, specs[i]) for i in range(n)]

        cells: List[Optional[CellOutcome]] = [None] * n
        start = time.perf_counter()
        workers = min(self.workers, max(n, 1))
        for completed, outcome in enumerate(
            self._outcomes(tasks, workers), start=1
        ):
            cells[outcome.index] = outcome
            if self.progress is not None:
                elapsed = time.perf_counter() - start
                self.progress(
                    SweepProgress(
                        completed=completed,
                        total=n,
                        label=outcome.label,
                        ok=outcome.ok,
                        elapsed_s=elapsed,
                        eta_s=elapsed / completed * (n - completed),
                    )
                )
        return SweepRun(
            cells=list(cells),
            elapsed_s=time.perf_counter() - start,
            workers=workers,
        )

    def _outcomes(self, tasks, workers: int) -> Iterator[CellOutcome]:
        if workers == 1 or len(tasks) <= 1:
            for task in tasks:
                yield _execute_cell(task)
            return
        ctx = multiprocessing.get_context(_START_METHOD)
        with ctx.Pool(workers) as pool:
            for outcome in pool.imap_unordered(_execute_cell, tasks, chunksize=1):
                yield outcome
