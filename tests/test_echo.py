"""Echo observable extraction, phase wrapping, measurement noise."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from echosense import ConfigError, wrap_phase
from echosense.echo import noisy_echo


class TestWrapPhase:
    @pytest.mark.parametrize("phi,expected", [
        (0.0, 0.0),
        (45.0, 45.0),
        (90.0, 90.0),
        (91.0, -89.0),
        (180.0, 0.0),
        (185.0, 5.0),
        (-90.0, 90.0),   # -90 maps to the +90 end of (-90, +90]
        (-91.0, 89.0),
        (270.0, 90.0),
        (359.0, -1.0),
    ])
    def test_values(self, phi, expected):
        assert wrap_phase(phi) == pytest.approx(expected)

    @given(st.floats(min_value=-1e4, max_value=1e4))
    def test_range_and_congruence(self, phi):
        w = wrap_phase(phi)
        assert -90.0 < w <= 90.0
        assert (phi - w) % 180.0 == pytest.approx(0.0, abs=1e-9) or \
               (phi - w) % 180.0 == pytest.approx(180.0, abs=1e-9)

    @given(st.floats(min_value=-360.0, max_value=360.0),
           st.integers(min_value=-5, max_value=5))
    def test_invariant_under_half_turns(self, phi, k):
        assert wrap_phase(phi + 180.0 * k) == pytest.approx(wrap_phase(phi),
                                                            abs=1e-9)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(ConfigError):
            wrap_phase(bad)


class TestMeasurementNoise:
    @staticmethod
    def phase(clean, sigma, n_averages, seed):
        """Phase (rad) of the noisy echo."""
        return float(np.angle(noisy_echo(clean, sigma, n_averages, seed)))

    def test_zero_sigma_is_clean(self):
        z = 0.5 + 0.2j
        assert noisy_echo(z, 0.0, 4) == z

    def test_deterministic_in_seed(self):
        a = noisy_echo(1.0, 0.05, 1, seed=7)
        b = noisy_echo(1.0, 0.05, 1, seed=7)
        assert a == b
        assert a != 1.0

    def test_invalid_inputs_rejected(self):
        with pytest.raises(ConfigError):
            noisy_echo(1.0, -0.1, 1)
        with pytest.raises(ConfigError):
            noisy_echo(1.0, 0.1, 0)

    def test_phase_std_scales_inverse_sqrt_averages(self):
        # quadrupling n_averages halves the phase std (within 10% over
        # 1e4 Monte-Carlo draws)
        clean, sigma = 1.0 + 0.0j, 0.05
        n_draws = 10_000

        def phase_std(n_avg):
            phases = [self.phase(clean, sigma, n_avg, s)
                      for s in range(n_draws)]
            return float(np.std(phases))

        s1, s4 = phase_std(1), phase_std(4)
        assert s1 / s4 == pytest.approx(2.0, rel=0.10)

    def test_phase_std_matches_small_angle_prediction(self):
        # for SNR >> 1 the phase std approaches sigma/(|z| sqrt(n)) rad
        clean, sigma = 1.0 + 0.0j, 0.02
        phases = [self.phase(clean, sigma, 1, s) for s in range(10_000)]
        assert float(np.std(phases)) == pytest.approx(sigma, rel=0.10)
