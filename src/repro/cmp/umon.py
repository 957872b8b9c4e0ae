"""UMON shadow tags: runtime miss-rate-curve estimation.

UMON [Qureshi & Patt, MICRO'06] attaches an auxiliary LRU tag directory
("shadow tags") to a sample of cache sets and records, for every sampled
access, the LRU *stack distance* at which it hits.  The resulting
histogram gives the number of misses the application would suffer at
every possible partition size — the miss-rate curve — without disturbing
the real cache.

Following Section 5 of the paper, the monitor covers stack distances up
to 16 cache regions (2 MB) with a dynamic sampling rate of 32 (one in 32
accesses is recorded), which is what bounds its 3.6 kB/core overhead.

The shadow tags consume stack distances in bytes; the synthetic
application models produce them from their reuse-distance distributions
(`AppProfile.mrc.sample_stack_distances`), so the histogram the monitor
accumulates is exactly what hardware shadow tags would observe, sampling
noise included.
"""

from __future__ import annotations

import numpy as np

from .config import CACHE_REGION_BYTES

__all__ = ["UMONShadowTags"]


class UMONShadowTags:
    """Sampled stack-distance histogram with region-granularity read-out.

    Parameters
    ----------
    max_regions:
        Monitorable range in cache regions (paper: 16 -> 2 MB).
    region_bytes:
        Size of one region (paper: 128 kB).
    sampling_rate:
        Record one in ``sampling_rate`` accesses (paper: 32).
    """

    def __init__(
        self,
        max_regions: int = 16,
        region_bytes: int = CACHE_REGION_BYTES,
        sampling_rate: int = 32,
    ):
        if max_regions < 1 or region_bytes < 1 or sampling_rate < 1:
            raise ValueError("max_regions, region_bytes, sampling_rate must be >= 1")
        self.max_regions = max_regions
        self.region_bytes = region_bytes
        self.sampling_rate = sampling_rate
        # hit_histogram[k] counts sampled accesses whose stack distance
        # falls in region bucket k (i.e. hits once the partition has
        # >= k+1 regions).  Distances beyond the range land in overflow.
        self.hit_histogram = np.zeros(max_regions, dtype=np.int64)
        self.overflow = 0
        self.sampled_accesses = 0
        self.total_accesses = 0
        self._phase = 0  # deterministic 1-in-N sampling counter

    def reset(self) -> None:
        """Clear all counters (done at every allocation epoch)."""
        self.hit_histogram[:] = 0
        self.overflow = 0
        self.sampled_accesses = 0
        self.total_accesses = 0

    def observe(self, stack_distances_bytes: np.ndarray) -> None:
        """Feed a batch of access stack distances (bytes; inf = compulsory).

        Only every ``sampling_rate``-th access is recorded, mirroring the
        set-sampling hardware; the rest only bump the access counter.
        """
        distances = np.asarray(stack_distances_bytes, dtype=float)
        self.observe_sampled(distances[self.sampled_slice()], distances.size)

    def sampled_slice(self) -> slice:
        """The next batch's recorded accesses (the stride carries across calls)."""
        return slice((-self._phase) % self.sampling_rate, None, self.sampling_rate)

    def observe_sampled(self, sampled: np.ndarray, n: int) -> None:
        """:meth:`observe` for ``n`` accesses given only those at :meth:`sampled_slice`."""
        self._phase = (self._phase + n) % self.sampling_rate
        self.total_accesses += n
        self.sampled_accesses += sampled.size

        finite = sampled[np.isfinite(sampled)]
        self.overflow += sampled.size - finite.size
        if finite.size:
            buckets = (finite // self.region_bytes).astype(np.int64)
            in_range = buckets < self.max_regions
            self.overflow += int(np.count_nonzero(~in_range))
            self.hit_histogram += np.bincount(buckets[in_range], minlength=self.max_regions)

    def miss_curve(self) -> np.ndarray:
        """Estimated miss fraction at partition sizes of 1..max_regions regions.

        ``miss_curve()[k]`` estimates the miss fraction with ``k+1``
        regions: the fraction of sampled accesses whose stack distance
        exceeds ``(k+1) * region_bytes``.
        """
        if self.sampled_accesses == 0:
            return np.ones(self.max_regions)
        hits_cumulative = np.cumsum(self.hit_histogram)
        misses = self.sampled_accesses - hits_cumulative
        return misses / self.sampled_accesses

    @property
    def storage_overhead_bytes(self) -> int:
        """Rough shadow-tag storage cost, for the <1% overhead check.

        One in ``sampling_rate`` sets is shadowed across ``max_regions``
        regions of tag state; with ~29-bit tags plus LRU state per line
        (~4 bytes) and 64-byte lines this reproduces the paper's
        ~3.6 kB/core figure.
        """
        lines_covered = self.max_regions * self.region_bytes // 64
        sampled_lines = lines_covered // self.sampling_rate
        return sampled_lines * 4 // 1  # ~4 bytes of tag+LRU per sampled line
