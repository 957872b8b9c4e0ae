"""Parallel execution substrate for the experiment sweeps.

:class:`SweepExecutor` shards independent work items over a
``multiprocessing`` pool with results in submission order, per-item
error isolation, and progress/ETA reporting; ``workers=1`` falls back
to an identical serial in-process path.  See :mod:`repro.exec.executor`
for the full contract.
"""

from .executor import CellOutcome, SweepExecutor, SweepProgress, SweepRun

__all__ = ["CellOutcome", "SweepExecutor", "SweepProgress", "SweepRun"]
