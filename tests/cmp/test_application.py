"""Miss-rate-curve families and application profiles."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cmp import KB, MB, AppProfile, CliffMRC, FlatMRC, MixtureMRC, Phase, PowerLawMRC

_sizes = st.floats(min_value=0.0, max_value=8.0 * MB)


def _mrcs():
    return st.sampled_from(
        [
            PowerLawMRC(0.8, 0.1, 256 * KB, 1.2),
            CliffMRC(0.9, 0.05, 1536 * KB, 15.0),
            FlatMRC(0.5),
            MixtureMRC(
                components=(PowerLawMRC(0.7, 0.1, 128 * KB), FlatMRC(0.4)),
                weights=(0.5, 0.5),
            ),
        ]
    )


class TestMRCShapes:
    @given(_mrcs(), _sizes, _sizes)
    @settings(max_examples=100, deadline=None)
    def test_non_increasing(self, mrc, a, b):
        lo, hi = sorted((a, b))
        assert mrc.miss_fraction(hi) <= mrc.miss_fraction(lo) + 1e-9

    @given(_mrcs(), _sizes)
    @settings(max_examples=100, deadline=None)
    def test_within_floor_and_ceiling(self, mrc, s):
        m = mrc.miss_fraction(s)
        assert mrc.floor - 1e-9 <= m <= mrc.ceiling + 1e-9

    def test_power_law_half_point(self):
        mrc = PowerLawMRC(0.9, 0.1, 512 * KB, 1.0)
        # At s_half the capacity-sensitive part is halved.
        assert mrc.miss_fraction(512 * KB) == pytest.approx(0.1 + 0.8 / 2.0)

    def test_cliff_location(self):
        mrc = CliffMRC(0.9, 0.05, 1536 * KB, 18.0)
        assert mrc.miss_fraction(1 * MB) > 0.8
        assert mrc.miss_fraction(2 * MB) < 0.1
        # At the working set the logistic is at its midpoint.
        mid = (0.9 + 0.05) / 2.0
        assert mrc.miss_fraction(1536 * KB) == pytest.approx(mid, abs=0.01)

    def test_flat_is_flat(self):
        mrc = FlatMRC(0.6)
        assert mrc.miss_fraction(0) == mrc.miss_fraction(8 * MB) == 0.6
        assert mrc.floor == mrc.ceiling == 0.6

    def test_mixture_weights(self):
        mix = MixtureMRC(
            components=(FlatMRC(1.0), FlatMRC(0.0)), weights=(0.25, 0.75)
        )
        assert mix.miss_fraction(0) == pytest.approx(0.25)

    def test_mixture_validation(self):
        with pytest.raises(ValueError):
            MixtureMRC(components=(FlatMRC(0.5),), weights=(0.5,))
        with pytest.raises(ValueError):
            MixtureMRC(components=(), weights=())


class TestSurvival:
    def test_endpoints(self):
        mrc = PowerLawMRC(0.9, 0.1, 256 * KB)
        assert mrc.survival(0.0) == pytest.approx(1.0)
        assert mrc.survival(64 * MB) < 0.05

    def test_flat_mrc_has_no_capacity_sensitive_accesses(self):
        assert FlatMRC(0.5).survival(1 * MB) == 0.0

    def test_survival_table_monotone(self):
        mrc = CliffMRC(0.9, 0.05, 1 * MB, 10.0)
        sizes, surv = mrc.survival_table()
        assert np.all(np.diff(surv) <= 1e-12)
        assert surv[0] == pytest.approx(1.0, abs=1e-6)

    def test_survival_table_memoized_read_only(self):
        mrc = PowerLawMRC(0.6, 0.05, 256 * KB)
        sizes, surv = mrc.survival_table(max_bytes=4 * MB)
        assert mrc.survival_table(max_bytes=4 * MB)[0] is sizes
        assert mrc.survival_table(max_bytes=4 * MB)[1] is surv
        assert mrc.survival_table(max_bytes=2 * MB)[0][-1] == 2 * MB
        expected = np.minimum.accumulate([mrc.survival(s) for s in sizes])
        assert surv.tobytes() == expected.tobytes()
        with pytest.raises(ValueError):
            surv[0] = 0.0
        # The memo is not part of the curve's value.
        assert mrc == PowerLawMRC(0.6, 0.05, 256 * KB)
        assert hash(mrc) == hash(PowerLawMRC(0.6, 0.05, 256 * KB))


class TestStackDistanceSampling:
    def test_sampler_reproduces_mrc(self, rng):
        # Empirical check: the fraction of sampled distances exceeding s
        # must match the absolute miss fraction at s.
        mrc = PowerLawMRC(0.8, 0.1, 256 * KB, 1.0)
        distances = mrc.sample_stack_distances(rng, 40000)
        for s in (128 * KB, 512 * KB, 1 * MB):
            expected = mrc.miss_fraction(s)
            observed = float(np.mean(~(distances <= s)))
            assert observed == pytest.approx(expected, abs=0.02)

    def test_compulsory_misses_are_infinite(self, rng):
        mrc = PowerLawMRC(0.8, 0.4, 256 * KB)
        distances = mrc.sample_stack_distances(rng, 20000)
        inf_fraction = float(np.mean(np.isinf(distances)))
        assert inf_fraction == pytest.approx(mrc.floor, abs=0.02)

    def test_flat_mrc_splits_always_hit_and_always_miss(self, rng):
        # A flat MRC of 0.5: half the accesses miss at any size (inf
        # distance), half hit at any size (zero distance).
        distances = FlatMRC(0.5).sample_stack_distances(rng, 4000)
        inf_fraction = float(np.mean(np.isinf(distances)))
        assert inf_fraction == pytest.approx(0.5, abs=0.03)
        assert np.all(np.isinf(distances) | (distances == 0.0))

    def test_precomputed_table_matches(self, rng):
        mrc = CliffMRC(0.9, 0.1, 512 * KB, 10.0)
        table = mrc.survival_table()
        d1 = mrc.sample_stack_distances(np.random.default_rng(7), 5000, table=table)
        d2 = mrc.sample_stack_distances(np.random.default_rng(7), 5000)
        np.testing.assert_allclose(d1, d2, rtol=1e-6)


class TestAppProfile:
    def test_misses_per_instruction(self):
        app = AppProfile(
            name="x", suite="test", cpi_exe=0.5, apki=20.0, mrc=FlatMRC(0.5)
        )
        assert app.misses_per_instruction(1 * MB) == pytest.approx(0.01)

    def test_phase_fields(self):
        phase = Phase(duration_ms=2.0, apki_scale=1.5)
        assert phase.duration_ms == 2.0
        assert phase.cpi_scale == 1.0
