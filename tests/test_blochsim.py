"""Bloch ensemble simulator against the closed-form phase module."""

import math

import numpy as np
import pytest

from echosense import (CoilCalibration, ConfigError, EnsembleConfig,
                       PulseMode, ResetMode, SpinSystem, accumulate_phase,
                       build_cp, build_hahn, build_pdd, build_synchronized,
                       echo_observable, evolve, filter_function, zero_field)
from echosense.blochsim import _evolve_ideal, _rk4, _trace_window

T_PI2 = 80e-9
T_PI = 160e-9
SYS = SpinSystem(g=2.0, t_m=1e-4)
CAL = CoilCalibration(coupling_eta=1.0)
DELTA = EnsembleConfig(n_packets=1)  # single packet, zero detuning


def simulated_phase(seq, wave, ens, mode=PulseMode.IDEAL, sys=SYS, cal=CAL):
    ref = evolve(sys, seq, None, ens, mode, cal)
    tr = evolve(sys, seq, wave, ens, mode, cal)
    return echo_observable(tr, ref)


class TestUnperturbedEcho:
    def test_no_rf_gives_zero_phase_unit_amplitude(self):
        seq = build_hahn(1.2e-6, T_PI2, T_PI)
        z = simulated_phase(seq, None, DELTA)
        assert abs(z) == pytest.approx(1.0, abs=1e-12)
        assert np.angle(z) == pytest.approx(0.0, abs=1e-12)

    def test_detuned_ensemble_still_refocuses(self):
        seq = build_hahn(1.2e-6, T_PI2, T_PI)
        ens = EnsembleConfig(n_packets=300, detuning_sigma=2e6, seed=11)
        z = simulated_phase(seq, None, ens)
        assert abs(z) == pytest.approx(1.0, abs=1e-9)


class TestIdealEquivalence:
    @pytest.mark.parametrize("builder,n_pi,mode", [
        (build_hahn, None, ResetMode.CONTINUOUS),
        (build_pdd, 2, ResetMode.CONTINUOUS),
        (build_pdd, 5, ResetMode.PER_WINDOW_RESET),
        (build_cp, 3, ResetMode.CONTINUOUS),
        (build_cp, 4, ResetMode.PER_WINDOW_RESET),
    ])
    def test_matches_analytic(self, builder, n_pi, mode):
        tau, b1 = 1.2e-6, 1e-6
        seq = (builder(tau, T_PI2, T_PI) if n_pi is None
               else builder(n_pi, tau, T_PI2, T_PI))
        wave = build_synchronized(seq, b1, 1, 0.35, mode)
        phi = accumulate_phase(SYS, CAL, filter_function(seq), wave).phi
        z = simulated_phase(seq, wave, DELTA)
        assert np.angle(z) == pytest.approx(phi, abs=1e-9)

    def test_detuning_cancels_in_reference_normalization(self):
        seq = build_hahn(1.2e-6, T_PI2, T_PI)
        wave = build_synchronized(seq, 1e-6, 1, 0.0)
        phi = accumulate_phase(SYS, CAL, filter_function(seq), wave).phi
        ens = EnsembleConfig(n_packets=400, detuning_sigma=3e6, seed=5)
        z = simulated_phase(seq, wave, ens)
        assert np.angle(z) == pytest.approx(phi, abs=1e-9)


def _rotate(mx, my, mz, angle, axis_phase):
    """Rodrigues rotation by `angle` about the transverse axis at azimuth
    `axis_phase` (generator Omega x M), on real components."""
    ux, uy = math.cos(axis_phase), math.sin(axis_phase)
    c, s = math.cos(angle), math.sin(angle)
    dot = ux * mx + uy * my
    cx = uy * mz
    cy = -ux * mz
    cz = ux * my - uy * mx
    return (mx * c + cx * s + ux * dot * (1 - c),
            my * c + cy * s + uy * dot * (1 - c),
            mz * c + cz * s)


def _ideal_loop(seq, wave, geff, det, fac, w, times):
    """Reference ideal-pulse trace: real-component rotations and one
    complex exponential per trace sample (works on any time grid)."""
    m = np.zeros(len(det), dtype=complex)
    mz = np.ones(len(det))
    amp = wave.amplitude
    t_prev = 0.0
    for k, p in enumerate(seq.pulses):
        c = p.center - seq.origin
        if k > 0:
            alpha = det * (c - t_prev) + geff * fac * amp * wave.unit_integral(
                t_prev, c)
            m = m * np.exp(1j * alpha)
        mx, my, mz = _rotate(m.real, m.imag, mz, p.nominal_angle, p.axis_phase)
        m = mx + 1j * my
        t_prev = c
    rf_tail = geff * fac * amp * wave.unit_integral(t_prev, seq.echo_time)
    out = np.empty(len(times), dtype=complex)
    for j, t in enumerate(times):
        mj = m * np.exp(1j * (det * (t - t_prev) + rf_tail))
        if seq.n_pi % 2 == 1:
            mj = np.conj(mj)
        out[j] = np.sum(w * mj)
    return out


class TestIdealAgainstLoop:
    """The vectorised ideal path against the per-sample reference loop."""

    @pytest.mark.parametrize("seq", [
        build_hahn(1.2e-6, T_PI2, T_PI),
        build_pdd(2, 1.2e-6, T_PI2, T_PI),
        build_pdd(3, 1.2e-6, T_PI2, T_PI),
        build_cp(4, 1.7e-6, T_PI2, T_PI),
        build_cp(5, 1.7e-6, T_PI2, T_PI),
    ], ids=["hahn", "pdd2", "pdd3", "cp4", "cp5"])
    @pytest.mark.parametrize("b1", [0.0, 0.3e-3])
    @pytest.mark.parametrize("ens", [
        EnsembleConfig(n_packets=1),
        EnsembleConfig(n_packets=1, detuning_sigma=2e6,
                       rf_amplitude_spread=0.2, seed=4),
        EnsembleConfig(n_packets=300, detuning_sigma=2e6,
                       rf_amplitude_spread=0.2, seed=8),
    ], ids=["delta", "p1-spread", "p300-spread"])
    def test_matches_loop(self, seq, b1, ens):
        wave = (build_synchronized(seq, b1, 1, 0.35,
                                   ResetMode.PER_WINDOW_RESET)
                if b1 else zero_field())
        geff = SYS.gamma * 6.682e-3
        det, fac, w = ens.draw()
        a, b = _trace_window(seq, None)
        for n_t in (1, 2, 61):
            times = np.linspace(a, b, n_t)
            got = _evolve_ideal(seq, wave, geff, det, fac, w, times)
            want = _ideal_loop(seq, wave, geff, det, fac, w, times)
            assert got.shape == want.shape
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


class TestEnsembleDephasing:
    def test_amplitude_spread_reduces_echo_with_mean_phase(self):
        # brute-force oracle: |echo| = |<exp(i phi_k)>| over the drawn
        # per-packet amplitude factors, phase ~ weighted mean
        tau, b1 = 1.2e-6, 0.3e-3
        seq = build_hahn(tau, T_PI2, T_PI)
        wave = build_synchronized(seq, b1, 1, 0.0)
        phi_unit = accumulate_phase(SYS, CAL, filter_function(seq), wave).phi
        ens = EnsembleConfig(n_packets=500, rf_amplitude_spread=0.3, seed=42)
        _, fac, w = ens.draw()
        expected = np.sum(w * np.exp(1j * phi_unit * fac))
        z = simulated_phase(seq, wave, ens)
        assert abs(z) < 1.0
        assert abs(z) == pytest.approx(abs(expected), rel=1e-9)
        assert np.angle(z) == pytest.approx(np.angle(expected), abs=1e-9)


class TestFinitePulse:
    def test_matches_analytic_with_short_pulses(self):
        tau, b1 = 1.2e-6, 1.8e-3
        seq = build_hahn(tau, 10e-9, 20e-9)
        cal = CoilCalibration(coupling_eta=6.682e-3)
        wave = build_synchronized(seq, b1, 1, 0.0)
        phi = accumulate_phase(SYS, cal, filter_function(seq), wave).phi
        ref = evolve(SYS, seq, None, DELTA, PulseMode.FINITE, cal)
        tr = evolve(SYS, seq, wave, DELTA, PulseMode.FINITE, cal)
        z = echo_observable(tr, ref)
        # phi exceeds pi here, so compare modulo 2*pi
        assert abs(math.remainder(np.angle(z) - phi, 2 * math.pi)) < 1e-3

    def test_norm_conserved(self):
        seq = build_hahn(1.2e-6, 40e-9, 80e-9)
        wave = build_synchronized(seq, 1e-4, 1, 0.0)
        ens = EnsembleConfig(n_packets=5, detuning_sigma=1e6, seed=2)
        tr = evolve(SYS, seq, wave, ens, PulseMode.FINITE, CAL,
                    trace_points=5)
        # envelope-normalized ensemble amplitude cannot exceed 1
        env = math.exp(-(seq.echo_time / SYS.t_m) ** SYS.stretch_beta)
        assert np.all(np.abs(tr.ensemble_mxy) / env <= 1 + 1e-9)

    def test_rk4_is_fourth_order(self):
        # halving the step shrinks the error by >= 8x (order test on a
        # constant-rate precession with known solution)
        omega = 2 * math.pi * 1.0
        om = np.array([[0.0, 0.0, omega]])

        def err(h):
            state = np.array([[1.0, 0.0, 0.0]])
            out = _rk4(state, 0.0, 1.0, h, lambda t: om)
            exact = np.array([math.cos(omega), math.sin(omega), 0.0])
            return float(np.max(np.abs(out[0] - exact)))

        e1, e2 = err(1e-2), err(5e-3)
        assert e1 / e2 >= 8.0

    def test_step_blowup_raises(self):
        seq = build_hahn(1.2e-6, T_PI2, T_PI)
        wave = build_synchronized(seq, 1.8e-3, 1, 0.0)
        huge = EnsembleConfig(n_packets=1, detuning_sigma=0.0, seed=0)
        sys_hot = SpinSystem(g=2.0, t_m=1e-4)
        # absurd detuning makes the stability step criterion explode
        ens = EnsembleConfig(n_packets=1, detuning_sigma=1e15, seed=0)
        with pytest.raises(ConfigError):
            evolve(sys_hot, seq, wave, ens, PulseMode.FINITE, CAL)
        del huge


class TestIdealVsFinite:
    def test_modes_agree(self):
        tau = 1.0e-6
        seq = build_cp(2, tau, 10e-9, 20e-9)
        cal = CoilCalibration(coupling_eta=6.682e-3)
        # gate the RF during pulse spans so both models see the same field
        from echosense import pulse_gated
        wave = pulse_gated(build_synchronized(seq, 0.5e-3, 1, 0.4,
                                              ResetMode.PER_WINDOW_RESET),
                           seq)
        zi = simulated_phase(seq, wave, DELTA, PulseMode.IDEAL, cal=cal)
        zf = simulated_phase(seq, wave, DELTA, PulseMode.FINITE, cal=cal)
        assert np.angle(zf) == pytest.approx(np.angle(zi), abs=1e-3)


class TestDecoherenceEnvelope:
    def test_stretched_exponential_at_echo(self):
        tau = 1.2e-6
        sys_ = SpinSystem(g=2.0, t_m=5e-6, stretch_beta=1.4)
        seq = build_hahn(tau, T_PI2, T_PI)
        tr = evolve(sys_, seq, None, DELTA, PulseMode.IDEAL, CAL)
        z = echo_observable(tr)
        expected = math.exp(-(seq.echo_time / sys_.t_m) ** sys_.stretch_beta)
        assert abs(z) == pytest.approx(expected, rel=1e-9)

    def test_envelope_cancels_in_normalization(self):
        tau = 1.2e-6
        sys_ = SpinSystem(g=2.0, t_m=3e-6)
        seq = build_hahn(tau, T_PI2, T_PI)
        wave = build_synchronized(seq, 1e-6, 1, 0.0)
        ref = evolve(sys_, seq, None, DELTA, PulseMode.IDEAL, CAL)
        tr = evolve(sys_, seq, wave, DELTA, PulseMode.IDEAL, CAL)
        assert abs(echo_observable(tr, ref)) == pytest.approx(1.0, abs=1e-9)


class TestAmplitudeVsPulseCount:
    def test_normalized_echo_non_increasing_in_n_pi(self):
        # more refocusing windows -> longer synchronized accumulation ->
        # stronger ensemble dephasing at fixed field (fixed seed)
        tau, b1 = 1.7e-6, 0.3e-3
        cal = CoilCalibration(coupling_eta=6.682e-3)
        ens = EnsembleConfig(n_packets=300, rf_amplitude_spread=0.25, seed=9)
        amps = []
        for n_pi in (1, 2, 3, 4, 5):
            seq = build_cp(n_pi, tau, T_PI2, T_PI)
            wave = build_synchronized(seq, b1, 1, 0.0,
                                      ResetMode.PER_WINDOW_RESET)
            amps.append(abs(simulated_phase(seq, wave, ens, cal=cal)))
        assert all(b <= a + 1e-9 for a, b in zip(amps, amps[1:]))


class TestTraceValidation:
    def test_trace_window_straddles_echo(self):
        seq = build_hahn(1.2e-6, T_PI2, T_PI)
        tr = evolve(SYS, seq, None, DELTA)
        a, b = tr.echo_window
        assert a < seq.echo_time < b
        assert np.all(np.diff(tr.times) > 0)

    def test_oversized_halfwidth_rejected(self):
        seq = build_hahn(1.2e-6, T_PI2, T_PI)
        with pytest.raises(ConfigError):
            evolve(SYS, seq, None, DELTA, trace_halfwidth=1e-5)

    def test_too_few_samples_rejected(self):
        seq = build_hahn(1.2e-6, T_PI2, T_PI)
        tr = evolve(SYS, seq, None, DELTA, trace_points=2)
        echo_observable(tr)  # two points is the minimum
        with pytest.raises(Exception):
            evolve(SYS, seq, None, DELTA, trace_points=1)


class TestEnsembleConfig:
    def test_draw_deterministic_in_seed(self):
        e = EnsembleConfig(n_packets=50, detuning_sigma=1e6,
                           rf_amplitude_spread=0.2, seed=123)
        d1, f1, w1 = e.draw()
        d2, f2, w2 = e.draw()
        assert np.array_equal(d1, d2) and np.array_equal(f1, f2)
        assert np.sum(w1) == pytest.approx(1.0)

    def test_amplitude_factors_clipped_nonnegative(self):
        e = EnsembleConfig(n_packets=2000, rf_amplitude_spread=1.0, seed=1)
        _, fac, _ = e.draw()
        assert np.all(fac >= 0)

    @pytest.mark.parametrize("kwargs", [
        {"n_packets": 0},
        {"detuning_sigma": -1.0},
        {"rf_amplitude_spread": -0.1},
    ])
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ConfigError):
            EnsembleConfig(**kwargs)
