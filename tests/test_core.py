"""Constants, gyromagnetic ratio, sample bookkeeping, coil calibration."""

import math

import pytest
from hypothesis import given, strategies as st

from echosense import core
from echosense import (HBAR, MU_B, CoilCalibration, ConfigError, SampleSpec,
                       SpinSystem, gyromagnetic_ratio, volts_to_field)


class TestGyromagneticRatio:
    def test_free_electron_value(self):
        # g = 2.0023: gamma = g*mu_B/hbar = 1.7608e11 rad/s/T
        assert gyromagnetic_ratio(2.0023) == pytest.approx(1.7608e11, rel=1e-4)

    def test_g2_value(self):
        assert gyromagnetic_ratio(2.0) == pytest.approx(1.75882e11, rel=1e-4)

    def test_formula(self):
        g = 1.37
        assert gyromagnetic_ratio(g) == pytest.approx(g * MU_B / HBAR, rel=0)

    @pytest.mark.parametrize("g", [0.0, -1.0, -2.0023])
    def test_nonpositive_g_rejected(self, g):
        with pytest.raises(ConfigError):
            gyromagnetic_ratio(g)

    @given(st.floats(min_value=0.1, max_value=10.0))
    def test_positive_and_linear_in_g(self, g):
        assert gyromagnetic_ratio(g) > 0
        assert gyromagnetic_ratio(2 * g) == pytest.approx(
            2 * gyromagnetic_ratio(g), rel=1e-12)


class TestSpinSystem:
    def test_gamma_property(self):
        sys_ = SpinSystem(g=2.0)
        assert sys_.gamma == gyromagnetic_ratio(2.0)

    def test_gamma_fixed_at_construction(self, monkeypatch):
        sys_ = SpinSystem(g=2.0)

        def forbidden(g):
            raise AssertionError("gamma recomputed after construction")

        monkeypatch.setattr(core, "gyromagnetic_ratio", forbidden)
        assert sys_.gamma == 2.0 * MU_B / HBAR

    def test_defaults_valid(self):
        sys_ = SpinSystem()
        assert sys_.t_m > 0
        assert sys_.stretch_beta == 1.0

    @pytest.mark.parametrize("kwargs", [
        {"g": -1.0},
        {"t_m": 0.0},
        {"t_m": -1e-6},
        {"stretch_beta": 0.5},
        {"stretch_beta": 3.5},
        {"inhomogeneous_sigma": -1.0},
    ])
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ConfigError):
            SpinSystem(**kwargs)

    def test_stretch_beta_bounds_inclusive(self):
        SpinSystem(stretch_beta=1.0)
        SpinSystem(stretch_beta=3.0)


class TestSampleSpec:
    DENSITY = 2.3e19 * 1e6   # spins/m^3 (2.3e19 cm^-3)
    VOLUME = 1.75e-3 * 1e-9  # m^3 (1.75e-3 mm^3)

    def test_derives_count_from_density_and_volume(self):
        s = SampleSpec(spin_density=self.DENSITY, sensing_volume=self.VOLUME)
        assert s.active_spin_count == pytest.approx(
            self.DENSITY * self.VOLUME, rel=1e-12)
        # 2.3e19 cm^-3 * 1.75e-3 mm^3 ~ 4e13 spins
        assert s.active_spin_count == pytest.approx(4.0e13, rel=0.02)

    def test_derives_density(self):
        n = 4.025e13
        s = SampleSpec(active_spin_count=n, sensing_volume=self.VOLUME)
        assert s.spin_density == pytest.approx(n / self.VOLUME, rel=1e-12)

    def test_derives_volume(self):
        n = 4.025e13
        s = SampleSpec(spin_density=self.DENSITY, active_spin_count=n)
        assert s.sensing_volume == pytest.approx(n / self.DENSITY, rel=1e-12)

    def test_consistent_triple_accepted(self):
        SampleSpec(spin_density=self.DENSITY, sensing_volume=self.VOLUME,
                   active_spin_count=self.DENSITY * self.VOLUME * 1.01)

    def test_inconsistent_triple_rejected(self):
        with pytest.raises(ConfigError):
            SampleSpec(spin_density=self.DENSITY, sensing_volume=self.VOLUME,
                       active_spin_count=self.DENSITY * self.VOLUME * 1.5)

    def test_single_field_rejected(self):
        with pytest.raises(ConfigError):
            SampleSpec(spin_density=self.DENSITY)

    @pytest.mark.parametrize("kwargs", [
        {"spin_density": -1.0, "sensing_volume": 1e-12},
        {"spin_density": 1e25, "sensing_volume": 0.0},
    ])
    def test_nonpositive_rejected(self, kwargs):
        with pytest.raises(ConfigError):
            SampleSpec(**kwargs)

    @given(st.floats(min_value=1e20, max_value=1e28),
           st.floats(min_value=1e-15, max_value=1e-9))
    def test_round_trip_consistency(self, rho, v):
        s = SampleSpec(spin_density=rho, sensing_volume=v)
        assert math.isclose(s.active_spin_count, rho * v, rel_tol=1e-12)


class TestCoilCalibration:
    def test_default_full_scale_field(self):
        cal = CoilCalibration()
        assert volts_to_field(cal, 2.5) == pytest.approx(1.8e-3, rel=1e-12)

    def test_linearity(self):
        cal = CoilCalibration()
        assert volts_to_field(cal, 1.25) == pytest.approx(0.9e-3, rel=1e-12)
        assert volts_to_field(cal, 0.0) == 0.0

    @pytest.mark.parametrize("v", [-0.1, 2.6, 1e3])
    def test_out_of_range_voltage_rejected(self, v):
        with pytest.raises(ConfigError):
            volts_to_field(CoilCalibration(), v)

    @pytest.mark.parametrize("kwargs", [
        {"field_per_volt": 0.0},
        {"field_per_volt": -1.0},
        {"max_voltage": 0.0},
        {"coupling_eta": 0.0},
        {"coupling_eta": -0.5},
        {"coupling_eta": 1.5},
    ])
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ConfigError):
            CoilCalibration(**kwargs)

    def test_with_eta(self):
        cal = CoilCalibration().with_eta(6.682e-3)
        assert cal.coupling_eta == 6.682e-3
        assert cal.field_per_volt == CoilCalibration().field_per_volt

    @given(st.floats(min_value=0.0, max_value=2.5))
    def test_field_nonnegative_and_bounded(self, v):
        cal = CoilCalibration()
        b = volts_to_field(cal, v)
        assert 0.0 <= b <= cal.max_voltage * cal.field_per_volt + 1e-18
