"""UMON shadow tags."""

import numpy as np
import pytest

from repro.cmp import KB, MB, CliffMRC, FlatMRC, MixtureMRC, PowerLawMRC, UMONShadowTags
from repro.cmp.config import CACHE_REGION_BYTES


class TestObserve:
    def test_exact_curve_from_known_distances(self):
        umon = UMONShadowTags(max_regions=4, sampling_rate=1)
        region = CACHE_REGION_BYTES
        # Four accesses with distances in buckets 0, 1, 2 and overflow.
        umon.observe(np.array([0.5 * region, 1.5 * region, 2.5 * region, np.inf]))
        curve = umon.miss_curve()
        # With 1 region: only the first access hits -> 3/4 miss.
        np.testing.assert_allclose(curve, [0.75, 0.5, 0.25, 0.25])

    def test_sampling_rate_thins_observations(self):
        umon = UMONShadowTags(max_regions=2, sampling_rate=32)
        umon.observe(np.zeros(3200))
        assert umon.total_accesses == 3200
        assert umon.sampled_accesses == 100

    def test_sampling_rate_spans_batches(self):
        umon = UMONShadowTags(max_regions=2, sampling_rate=32)
        for _ in range(100):
            umon.observe(np.zeros(16))  # batches smaller than the rate
        assert umon.sampled_accesses == 50

    def test_overflow_accounting(self):
        umon = UMONShadowTags(max_regions=2, sampling_rate=1)
        umon.observe(np.array([np.inf, 10 * CACHE_REGION_BYTES, 0.0]))
        assert umon.overflow == 2
        np.testing.assert_allclose(umon.miss_curve(), [2 / 3, 2 / 3])

    def test_reset(self):
        umon = UMONShadowTags(sampling_rate=1)
        umon.observe(np.zeros(10))
        umon.reset()
        assert umon.sampled_accesses == 0
        np.testing.assert_allclose(umon.miss_curve(), 1.0)

    def test_empty_observation(self):
        umon = UMONShadowTags()
        umon.observe(np.array([]))
        assert umon.total_accesses == 0


_MRCS = {
    "power-law": PowerLawMRC(0.6, 0.05, 256 * KB, 1.3),
    "cliff": CliffMRC(0.9, 0.1, 1.5 * MB),
    "mixture": MixtureMRC(
        (PowerLawMRC(0.5, 0.02, 128 * KB), CliffMRC(0.8, 0.2, 1 * MB)), (0.4, 0.6)
    ),
    "always-hit": FlatMRC(0.0),  # ceiling <= 0: draws nothing
}
#: Epoch access counts; none but the last is a multiple of the rate.
_EPOCH_ACCESSES = (1, 31, 33, 1000, 95, 4097, 6401, 7, 3200)


def _counters(umon):
    return (
        umon.hit_histogram.tolist(),
        umon.overflow,
        umon.sampled_accesses,
        umon.total_accesses,
        umon._phase,
    )


class TestSampledPath:
    """Mapping only the recorded accesses equals a full-stream ``observe``."""

    @pytest.mark.parametrize("name", sorted(_MRCS))
    def test_matches_full_stream_every_epoch(self, name):
        mrc = _MRCS[name]
        table = mrc.survival_table(max_bytes=4 * MB)
        full_rng, sampled_rng = np.random.default_rng(3), np.random.default_rng(3)
        full, sampled = UMONShadowTags(), UMONShadowTags()
        for accesses in _EPOCH_ACCESSES:
            keep = sampled.sampled_slice()
            distances = mrc.sample_stack_distances(full_rng, accesses, table=table)
            recorded = mrc.sample_stack_distances(
                sampled_rng, accesses, table=table, keep=keep
            )
            assert recorded.tobytes() == distances[keep].tobytes()
            full.reset()
            full.observe(distances)
            sampled.reset()
            sampled.observe_sampled(recorded, accesses)
            assert _counters(sampled) == _counters(full)
            assert sampled_rng.bit_generator.state == full_rng.bit_generator.state
        assert full.hit_histogram.dtype == np.int64

    def test_records_every_rate_th_access_of_the_whole_stream(self):
        umon = UMONShadowTags(sampling_rate=32)
        kept, offset = [], 0
        for accesses in _EPOCH_ACCESSES:
            recorded = range(offset, offset + accesses)[umon.sampled_slice()]
            kept.extend(recorded)
            umon.observe_sampled(np.zeros(len(recorded)), accesses)
            offset += accesses
        assert kept == list(range(0, offset, 32))

    def test_always_hit_curve_draws_nothing(self):
        rng = np.random.default_rng(0)
        before = rng.bit_generator.state
        out = FlatMRC(0.0).sample_stack_distances(rng, 100, keep=slice(5, None, 32))
        assert rng.bit_generator.state == before
        np.testing.assert_array_equal(out, np.zeros(3))


class TestMissCurve:
    def test_monotone_non_increasing(self, rng):
        umon = UMONShadowTags(sampling_rate=1)
        umon.observe(rng.uniform(0, 4 * 1024 * 1024, size=5000))
        curve = umon.miss_curve()
        assert np.all(np.diff(curve) <= 1e-12)

    def test_no_observations_pessimistic(self):
        assert np.all(UMONShadowTags().miss_curve() == 1.0)

class TestOverheads:
    def test_storage_near_paper_figure(self):
        # Section 5: 3.6 kB per core with stack distance 16 and rate 32.
        umon = UMONShadowTags(max_regions=16, sampling_rate=32)
        assert umon.storage_overhead_bytes == pytest.approx(3.6 * 1024, rel=0.25)

    def test_validation(self):
        with pytest.raises(ValueError):
            UMONShadowTags(max_regions=0)
        with pytest.raises(ValueError):
            UMONShadowTags(sampling_rate=0)
