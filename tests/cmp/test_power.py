"""The DVFS power model and its inverse."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cmp import DVFSPowerModel, RAPL_QUANTUM_WATTS
from repro.cmp.config import CoreConfig

_freqs = st.floats(min_value=0.8, max_value=4.0)


class TestVoltage:
    def test_envelope_endpoints(self):
        m = DVFSPowerModel()
        assert m.voltage(0.8) == pytest.approx(0.8)
        assert m.voltage(4.0) == pytest.approx(1.2)

    def test_clamped_outside_envelope(self):
        m = DVFSPowerModel()
        assert m.voltage(0.1) == pytest.approx(0.8)
        assert m.voltage(9.0) == pytest.approx(1.2)

    @given(_freqs, _freqs)
    @settings(max_examples=60, deadline=None)
    def test_monotone(self, a, b):
        m = DVFSPowerModel()
        lo, hi = sorted((a, b))
        assert m.voltage(lo) <= m.voltage(hi) + 1e-12


class TestPower:
    def test_dynamic_formula(self):
        m = DVFSPowerModel(effective_capacitance=2.0)
        # activity * C * V^2 * f at the top of the envelope.
        assert m.dynamic_power(4.0, activity=0.5) == pytest.approx(0.5 * 2.0 * 1.44 * 4.0)

    def test_peak_power_exceeds_tdp_share(self):
        # The 65 nm calibration: a fully active 4 GHz core draws well
        # over the 10 W TDP share, making power a contended resource.
        m = DVFSPowerModel()
        assert m.max_power(activity=1.0) > 15.0

    def test_activity_scales_dynamic_only(self):
        m = DVFSPowerModel()
        lo = m.total_power(2.0, activity=0.5)
        hi = m.total_power(2.0, activity=1.0)
        assert hi - lo == pytest.approx(m.dynamic_power(2.0, 0.5))

    @given(_freqs, _freqs)
    @settings(max_examples=60, deadline=None)
    def test_total_power_monotone_in_frequency(self, a, b):
        m = DVFSPowerModel()
        lo, hi = sorted((a, b))
        assert m.total_power(lo) <= m.total_power(hi) + 1e-12

    def test_static_power_grows_with_temperature(self):
        m = DVFSPowerModel()
        assert m.static_power(2.0, 100.0) > m.static_power(2.0, 60.0)

    def test_static_power_reference_point(self):
        m = DVFSPowerModel()
        assert m.static_power(4.0, m.reference_temperature_c) == pytest.approx(
            m.leakage_coefficient * 1.2
        )


class TestInverse:
    @given(_freqs)
    @settings(max_examples=80, deadline=None)
    def test_roundtrip(self, f):
        m = DVFSPowerModel()
        watts = m.total_power(f, activity=0.9)
        assert m.frequency_for_power(watts, activity=0.9) == pytest.approx(f, abs=1e-6)

    def test_underpowered_returns_min_frequency(self):
        m = DVFSPowerModel()
        assert m.frequency_for_power(0.0) == 0.8

    def test_overpowered_returns_max_frequency(self):
        m = DVFSPowerModel()
        assert m.frequency_for_power(1e6) == 4.0

    def test_more_watts_more_frequency(self):
        m = DVFSPowerModel()
        f1 = m.frequency_for_power(5.0)
        f2 = m.frequency_for_power(10.0)
        assert f2 > f1


def _bits(values):
    return [float(v).hex() for v in values]


def _reference_frequency(m, watts, activity, temperature):
    """The bisection spelled out on :meth:`DVFSPowerModel.total_power`."""
    lo, hi = m.core.min_frequency_ghz, m.core.max_frequency_ghz
    if watts <= m.total_power(lo, activity, temperature):
        return lo
    if watts >= m.total_power(hi, activity, temperature):
        return hi
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if m.total_power(mid, activity, temperature) <= watts:
            lo = mid
        else:
            hi = mid
    return lo


class TestArrayInverse:
    """``frequencies_for_power`` is ``frequency_for_power`` elementwise, bitwise."""

    @pytest.mark.parametrize("seed", range(8))
    def test_equals_scalar_bisection_bitwise(self, seed):
        rng = np.random.default_rng(seed)
        m = DVFSPowerModel()
        if seed % 2:
            # Envelopes where 60 halvings stop short of the top, so the
            # early returns decide the result.
            f_lo, v_lo = float(rng.uniform(0.3, 1.5)), float(rng.uniform(0.5, 0.9))
            m = DVFSPowerModel(
                core=CoreConfig(
                    min_frequency_ghz=f_lo,
                    max_frequency_ghz=f_lo + float(rng.uniform(0.5, 4.0)),
                    min_voltage=v_lo,
                    max_voltage=v_lo + float(rng.uniform(0.1, 0.6)),
                )
            )
        for _ in range(25):
            activity = float(rng.uniform(0.05, 1.5))
            temperature = None if rng.random() < 0.3 else float(rng.uniform(-40.0, 900.0))
            floor = m.min_power(activity, temperature)
            peak = m.max_power(activity, temperature)
            watts = np.concatenate(
                [
                    rng.uniform(floor, peak, 30),
                    rng.uniform(-10.0, 2.0 * peak, 10),
                    [floor, peak, np.nextafter(floor, np.inf), np.nextafter(peak, 0.0)],
                    [-1.0, -0.0, 0.0, 2.0 * peak, 1e6, np.inf, -np.inf, np.nan],
                ]
            )
            array = m.frequencies_for_power(watts, activity, temperature)
            scalar = [m.frequency_for_power(w, activity, temperature) for w in watts]
            reference = [_reference_frequency(m, w, activity, temperature) for w in watts]
            assert _bits(array) == _bits(scalar) == _bits(reference)

    def test_keeps_input_shape(self):
        m = DVFSPowerModel()
        watts = np.full((2, 3), 10.0)
        assert m.frequencies_for_power(watts).shape == (2, 3)
        assert m.frequencies_for_power(np.array([])).shape == (0,)


class TestPowerAxis:
    def test_axis_and_frequencies_match_scalar_model(self):
        m = DVFSPowerModel()
        extra, freqs = m.power_axis(0.7, 17)
        floor = m.min_power(0.7)
        np.testing.assert_array_equal(
            extra, np.linspace(0.0, m.max_power(0.7) - floor, 17)
        )
        assert _bits(freqs) == _bits(
            [m.frequency_for_power(floor + p, 0.7) for p in extra]
        )
        assert freqs[0] == 0.8 and freqs[-1] == 4.0

    def test_memoized_per_activity_and_points(self):
        m = DVFSPowerModel()
        first = m.power_axis(0.7, 17)
        assert m.power_axis(0.7, 17) is first
        assert m.power_axis(0.9, 17) is not first
        assert m.power_axis(0.7, 9)[0].size == 9

    def test_shared_arrays_are_read_only(self):
        extra, freqs = DVFSPowerModel().power_axis(1.0, 17)
        with pytest.raises(ValueError):
            extra[0] = 1.0
        with pytest.raises(ValueError):
            freqs[0] = 1.0

    def test_memo_does_not_affect_equality_or_hash(self):
        a, b = DVFSPowerModel(), DVFSPowerModel()
        a.power_axis(1.0, 17)
        assert a == b and hash(a) == hash(b)
        assert "_axes" not in repr(a)


def test_rapl_quantum_matches_intel():
    assert RAPL_QUANTUM_WATTS == 0.125
