"""The lumped RC thermal model."""

import pytest

from repro.cmp import ThermalModel, ThermalNode


class TestThermalNode:
    def test_steady_state(self):
        # T_amb + P * R_th: a 10 W core settles at 45 + 10 * 3.5 = 80 C.
        node = ThermalNode(resistance_k_per_w=3.5, ambient_c=45.0)
        assert node.step(10.0, 1e6) == pytest.approx(80.0)

    def test_converges_to_steady_state(self):
        node = ThermalNode(temperature_c=45.0)
        for _ in range(1000):
            node.step(10.0, 0.01)
        assert node.temperature_c == pytest.approx(80.0, abs=0.1)

    def test_monotone_approach(self):
        node = ThermalNode(temperature_c=45.0)
        temps = [node.step(10.0, 0.001) for _ in range(20)]
        assert all(a <= b + 1e-9 for a, b in zip(temps, temps[1:]))

    def test_cooling(self):
        node = ThermalNode(temperature_c=95.0)
        node.step(0.0, 10.0)
        assert node.temperature_c == pytest.approx(node.ambient_c, abs=0.5)

    def test_unconditionally_stable_with_huge_dt(self):
        # The exponential integrator never overshoots, however large dt.
        node = ThermalNode(temperature_c=45.0)
        node.step(10.0, 1e6)
        assert node.temperature_c == pytest.approx(80.0)


class TestThermalModel:
    def test_per_core_nodes(self):
        model = ThermalModel(4)
        temps = model.step([5.0, 10.0, 15.0, 20.0], 1.0)
        assert len(temps) == 4
        assert temps[3] > temps[0]

    def test_rejects_wrong_power_length(self):
        model = ThermalModel(2)
        with pytest.raises(ValueError):
            model.step([1.0], 0.1)

    def test_rejects_zero_cores(self):
        with pytest.raises(ValueError):
            ThermalModel(0)
