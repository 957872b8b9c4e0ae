"""Process-parallel sweep execution.

The experiment harness behind Figures 4 and 5 scores hundreds of
independent (bundle, mechanism) cells; nothing is shared between
bundles, so they shard cleanly over a :mod:`multiprocessing` pool.  The
:class:`SweepExecutor` here is the one engine both sweeps (and any
future fan-out workload) run on.  A work item is one spec; it produces
one cell, or several when its label is a tuple of cell labels (the
Fig-4 sweep runs a bundle's whole mechanism line-up as one item).  Its
contract:

* **Determinism** — a work item sees only its spec, never how items
  were sharded over workers, and cells come back in submission order,
  so ``workers=1`` and ``workers=N`` produce identical results for
  deterministic items.  An item that needs randomness carries its seed
  in its spec.
* **Error isolation** — an exception inside one item is caught in the
  worker and recorded as a failed :class:`CellOutcome` carrying the
  formatted traceback, for every cell the item had not finished; the
  rest of the sweep continues.  A multi-cell item fails one cell alone
  by yielding the exception as that cell's value.
* **Progress** — as each cell completes (in completion order, which
  under parallelism is not submission order), an optional callback
  receives a :class:`SweepProgress` beat with counts, elapsed time and
  a naive ETA.  In-process, a multi-cell item's cells beat one by one
  as they finish; a pool worker returns a finished item's cells
  together.
* **Accounting** — every cell carries the
  :data:`~repro.utility.base.EVAL_COUNTERS` delta of the work that
  produced it (for a multi-cell item, the work since its previous cell
  finished), counted in whichever process ran it;
  :attr:`SweepRun.eval_counts` sums them.
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
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence

from ..utility.base import EVAL_COUNTERS

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
    #: ``EVAL_COUNTERS`` delta of the work that produced this cell.
    eval_counts: Dict[str, int] = field(default_factory=dict)


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

    @property
    def eval_counts(self) -> Dict[str, int]:
        """Every cell's ``eval_counts``, summed: the sweep's utility work,
        whichever processes did it."""
        totals: Dict[str, int] = {}
        for cell in self.cells:
            for name, count in cell.eval_counts.items():
                totals[name] = totals.get(name, 0) + count
        return totals

    def raise_failures(self) -> None:
        """Re-raise the first failure (for callers that want fail-fast)."""
        for cell in self.cells:
            if not cell.ok:
                raise RuntimeError(
                    f"sweep cell {cell.label!r} failed:\n{cell.error}"
                )


def _item_outcomes(task) -> Iterator[CellOutcome]:
    """Run one work item inside its isolation envelope, yielding each
    cell's outcome as it completes (worker side)."""
    first, labels, several, fn, spec = task
    start = time.perf_counter()
    counts_at = EVAL_COUNTERS.snapshot()

    def outcome(k: int, value: Any = None, error: Optional[str] = None) -> CellOutcome:
        nonlocal start, counts_at
        now = time.perf_counter()
        cell = CellOutcome(
            index=first + k,
            label=labels[k],
            ok=error is None,
            value=value,
            error=error,
            elapsed_s=now - start,
            eval_counts=EVAL_COUNTERS.since(counts_at),
        )
        start, counts_at = now, EVAL_COUNTERS.snapshot()
        return cell

    pending = set(range(len(labels)))
    try:
        for k, value in fn(spec) if several else _one_cell(fn, spec):
            pending.remove(k)
            if isinstance(value, Exception):
                error = "".join(
                    traceback.format_exception(type(value), value, value.__traceback__)
                )
                yield outcome(k, error=error)
            else:
                yield outcome(k, value)
        if pending:
            raise RuntimeError(f"work item gave no outcome for cells {sorted(pending)}")
    except Exception:
        error = traceback.format_exc()
        for k in sorted(pending):
            yield outcome(k, error=error)


def _one_cell(fn: Callable[[Any], Any], spec: Any) -> Iterator[tuple]:
    """A one-cell item's ``(k, value)`` stream."""
    yield 0, fn(spec)


def _execute_item(task) -> List[CellOutcome]:
    """Every cell outcome of one work item (pool worker side)."""
    return list(_item_outcomes(task))


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
    spawns elsewhere, and hands each worker one work item per dispatch:
    the best load balance for heterogeneous item costs (a MaxEfficiency
    cell is ~40x an EqualShare cell).
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
        labels: Optional[Sequence[Any]] = None,
    ) -> SweepRun:
        """Apply ``fn(spec)`` to every spec.

        A spec whose label is a string (the default labels are) is one
        cell, and ``fn(spec)`` returns its value.  A spec whose label is
        a tuple of strings is one work item with a cell per string:
        ``fn(spec)`` returns an iterable of ``(k, value)`` pairs, one per
        cell ``k`` of the tuple, in any order.  A value that is an
        exception fails its cell alone.

        ``fn`` must be a module-level callable when ``workers > 1`` (it
        is pickled by reference into the workers).  Returns a
        :class:`SweepRun` whose cells are in submission order whatever
        the completion order was.
        """
        specs = list(specs)
        if labels is None:
            labels = [f"cell-{i}" for i in range(len(specs))]
        elif len(labels) != len(specs):
            raise ValueError(f"got {len(labels)} labels for {len(specs)} specs")

        tasks = []
        n = 0
        for spec, label in zip(specs, labels):
            several = isinstance(label, tuple)
            cell_labels = tuple(map(str, label)) if several else (str(label),)
            tasks.append((n, cell_labels, several, fn, spec))
            n += len(cell_labels)

        cells: List[Optional[CellOutcome]] = [None] * n
        start = time.perf_counter()
        workers = min(self.workers, max(len(tasks), 1))
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
                yield from _item_outcomes(task)
            return
        ctx = multiprocessing.get_context(_START_METHOD)
        with ctx.Pool(workers) as pool:
            for outcomes in pool.imap_unordered(_execute_item, tasks, chunksize=1):
                yield from outcomes
