"""Bloch ensemble simulator against the closed-form phase module."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from echosense import (CoilCalibration, ConfigError, EnsembleConfig,
                       NumericalError, Pulse, PulseMode, ResetMode,
                       RFWaveform, SpinSystem, accumulate_phase,
                       build_cp, build_hahn, build_pdd, build_synchronized,
                       echo_observable, evolve, filter_function, zero_field)
from echosense import blochsim
from echosense.blochsim import (_BLOCK_PACKET_POINTS, _evolve_trace,
                                _trace_window, echo_points, point_seed)

from bloch_oracle import _rk4, finite_echo

T_PI2 = 80e-9
T_PI = 160e-9
SYS = SpinSystem(g=2.0, t_m=1e-4)
CAL = CoilCalibration(coupling_eta=1.0)
DELTA = EnsembleConfig(n_packets=1)  # single packet, zero detuning


def simulated_phase(seq, wave, ens, mode=PulseMode.IDEAL, sys=SYS, cal=CAL,
                    trace_points=61):
    """Echo of one point: signal and zero-RF reference traces evolved
    separately, each reduced with the trapezoid of `echo_observable`;
    also the reference that `echo_points` is checked against."""
    ref = evolve(sys, seq, None, ens, mode, cal, trace_points=trace_points)
    tr = evolve(sys, seq, wave, ens, mode, cal, trace_points=trace_points)
    return echo_observable(tr, ref)


class TestPulseModeValues:
    CAL = CoilCalibration(coupling_eta=6.682e-3)

    def test_mode_value_equals_member(self):
        seq = build_hahn(1.2e-6, 40e-9, 80e-9)
        wave = build_synchronized(seq, 2e-4, 1, 0.3)
        ens = EnsembleConfig(n_packets=3, detuning_sigma=1e6, seed=3)
        for mode in PulseMode:
            got = evolve(SYS, seq, wave, ens, mode.value, self.CAL, trace_points=5)
            want = evolve(SYS, seq, wave, ens, mode, self.CAL, trace_points=5)
            assert np.array_equal(got.ensemble_mxy, want.ensemble_mxy)
            assert (echo_points(SYS, seq, [wave], ens, [3], mode.value,
                                self.CAL, 5)
                    == echo_points(SYS, seq, [wave], ens, [3], mode, self.CAL,
                                   5))

    def test_unknown_mode_rejected(self):
        seq = build_hahn(1.2e-6, T_PI2, T_PI)
        with pytest.raises(ConfigError):
            evolve(SYS, seq, None, DELTA, "exact", CAL)
        with pytest.raises(ConfigError):
            echo_points(SYS, seq, [zero_field()], DELTA, [0], "exact", CAL, 5)


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


def _unit_integral(wave, a, b):
    """Integral of `wave` over [a, b] at unit amplitude."""
    unit = RFWaveform(1.0, wave.frequency, wave.phase, wave.windows,
                      wave.reset_mode, wave.window_phases)
    return unit.integrals((a, b))[0]


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
            alpha = det * (c - t_prev) + geff * fac * amp * _unit_integral(
                wave, t_prev, c)
            m = m * np.exp(1j * alpha)
        mx, my, mz = _rotate(m.real, m.imag, mz, p.nominal_angle, p.axis_phase)
        m = mx + 1j * my
        t_prev = c
    rf_tail = geff * fac * amp * _unit_integral(wave, t_prev, seq.echo_time)
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
        det, fac = ens.draw(ens.seed)
        w = np.full(ens.n_packets, 1.0 / ens.n_packets)
        a, b = _trace_window(seq, 2)
        for n_t in (1, 2, 61):
            times = np.linspace(a, b, n_t)
            got = _evolve_trace(seq, PulseMode.IDEAL, wave, geff, det, fac,
                                times)
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
        _, fac = ens.draw(ens.seed)
        expected = np.mean(np.exp(1j * phi_unit * fac))
        z = simulated_phase(seq, wave, ens)
        assert abs(z) < 1.0
        assert abs(z) == pytest.approx(abs(expected), rel=1e-9)
        assert np.angle(z) == pytest.approx(np.angle(expected), abs=1e-9)


class TestGaussianSpreadClosedForm:
    """The ensemble average against its closed form: with no detuning,
    each packet's RF phase is f*phi with f ~ N(1, s**2), so the echo is
    E[exp(i f phi)] = exp(i phi - s**2 phi**2 / 2), the Gaussian average
    of Cywinski et al., PRB 77, 174509 (2008).  The mean of P draws
    scatters about it by about s*|phi|/sqrt(P).  phi is the closed-form
    phase, pulse-gated for finite pulses, which hold the state with the
    RF off during each drive."""

    SPREAD, PACKETS = 0.2, 20_000
    CAL = CoilCalibration(coupling_eta=6.682e-3)

    @pytest.mark.parametrize("seq", [
        build_hahn(1.2e-6, T_PI2, T_PI),
        build_cp(3, 1.7e-6, T_PI2, T_PI),
        build_pdd(2, 1.2e-6, T_PI2, T_PI),
    ], ids=["hahn", "cp3", "pdd2"])
    @pytest.mark.parametrize("mode", list(PulseMode))
    def test_echo_is_the_gaussian_average(self, seq, mode):
        from echosense import pulse_gated

        filt = filter_function(seq)

        def phase(wave):
            if mode is PulseMode.FINITE:
                wave = pulse_gated(wave, seq)
            return accumulate_phase(SYS, self.CAL, filt, wave).phi

        # the field that turns the closed-form phase to about 1 rad
        b1 = 1e-4 / phase(build_synchronized(seq, 1e-4, 1, 0.35,
                                             ResetMode.PER_WINDOW_RESET))
        wave = build_synchronized(seq, b1, 1, 0.35,
                                  ResetMode.PER_WINDOW_RESET)
        phi = phase(wave)
        assert 0.9 < abs(phi) < 1.1
        ens = EnsembleConfig(n_packets=self.PACKETS,
                             rf_amplitude_spread=self.SPREAD, seed=2008)
        [z] = echo_points(SYS, seq, [wave], ens, [point_seed(ens.seed, 0)],
                          mode, self.CAL, 61)
        want = np.exp(1j * phi - (self.SPREAD * phi) ** 2 / 2)
        assert abs(z - want) <= 4 * self.SPREAD * abs(phi) / math.sqrt(
            self.PACKETS)


class TestSeeds:
    """A seed is an integer >= 0: any other is a ConfigError from
    `EnsembleConfig.draw` and from `echo_points`, never numpy's own
    ValueError or TypeError, and no numpy warning escapes (an error under
    this suite's filterwarnings).  A seed list that is not one seed per
    wave is `TestEchoPoints.test_one_seed_per_wave`."""

    BAD = pytest.mark.parametrize("seed", [-1, 1.5, 2.0, np.float64(3.0),
                                           None, "7"],
                                  ids=["negative", "float", "integral-float",
                                       "numpy-float", "none", "str"])
    ENS = EnsembleConfig(n_packets=4, detuning_sigma=1e6,
                         rf_amplitude_spread=0.2, seed=5)

    @BAD
    def test_draw_rejects(self, seed):
        with pytest.raises(ConfigError, match="seed"):
            self.ENS.draw(seed)

    @BAD
    @pytest.mark.parametrize("mode", list(PulseMode))
    def test_echo_points_rejects(self, seed, mode):
        seq = build_hahn(1.2e-6, T_PI2, T_PI)
        waves = [build_synchronized(seq, b1, 1, 0.0)
                 for b1 in (0.1e-3, 0.2e-3)]
        for seeds in ([seed, 1], [1, seed]):
            with pytest.raises(ConfigError, match="seed"):
                echo_points(SYS, seq, waves, self.ENS, seeds, mode, CAL, 5)


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

    @pytest.mark.parametrize("axis_phase", [0.0, 1.1])
    def test_drive_applies_the_rk4_step_matrix(self, axis_phase):
        # `_drive` steps each point by RK4's step matrix, the degree-4
        # Taylor polynomial sum_k (hA)^k / k! of the drive's 3x3 generator,
        # to rounding, at the step count that the point's own largest
        # |detuning| sets.  Two points: the bundled 0.02 MHz spread (64
        # steps) and a 5 MHz one (153 steps).
        pulse = Pulse(0.0, T_PI, math.pi, axis_phase)
        det = np.stack([EnsembleConfig(4, sigma * 2e6 * math.pi).draw(7)[0]
                        for sigma in (0.02, 5.0)])
        v = np.random.default_rng(1).standard_normal((3, *det.shape))
        v /= np.linalg.norm(v, axis=0)
        m, mz = blochsim._drive(v[0] + 1j * v[1], v[2].copy(), det, 0, pulse)
        rabi = math.pi / T_PI
        ox, oy = rabi * math.cos(axis_phase), rabi * math.sin(axis_phase)
        for i, row in enumerate(det):
            steps = T_PI * (rabi + np.max(np.abs(row))) / blochsim._ANGLE_CAP
            n = max(50, math.ceil(steps))
            for j, d in enumerate(row):
                ha = T_PI / n * np.array([[0, -d, oy], [d, 0, -ox],
                                          [-oy, ox, 0]])
                step = sum(np.linalg.matrix_power(ha, k) / math.factorial(k)
                           for k in range(5))
                x = v[:, i, j]
                for _ in range(n):
                    x = step @ x
                got = (m[i, j].real, m[i, j].imag, mz[i, j])
                assert np.max(np.abs(np.subtract(got, x))) <= 1e-12

    def test_step_blowup_raises(self):
        seq = build_hahn(1.2e-6, T_PI2, T_PI)
        wave = build_synchronized(seq, 1.8e-3, 1, 0.0)
        # absurd detuning makes the pulse RK4 step criterion explode
        ens = EnsembleConfig(n_packets=1, detuning_sigma=1e15, seed=0)
        blowup = r"finite pulse 0 .* max \|detuning\| 1\.\d+e\+14 rad/s"
        with pytest.raises(ConfigError, match=blowup):
            evolve(SYS, seq, wave, ens, PulseMode.FINITE, CAL)
        with pytest.raises(ConfigError, match=blowup):
            echo_points(SYS, seq, [wave], ens, [0], PulseMode.FINITE, CAL, 61)

    def test_non_finite_echo_raises(self):
        seq = build_hahn(1.2e-6, T_PI2, T_PI)
        # the RF phase overflows to inf, so the signal state turns NaN
        wave = build_synchronized(seq, 1e300, 1, 0.0)
        with pytest.raises(NumericalError, match="non-finite"):
            echo_points(SYS, seq, [wave], DELTA, [0], PulseMode.FINITE, CAL,
                        61)


class TestFloatingPointErrors:
    """A floating-point overflow ends `evolve` in NumericalError; numpy's
    warning about it is an error under this suite's filterwarnings."""

    @pytest.mark.parametrize("mode", list(PulseMode))
    def test_evolve_overflow_is_numerical_error(self, mode):
        seq = build_hahn(1.2e-6, T_PI2, T_PI)
        wave = build_synchronized(seq, 1e300, 1, 0.0)
        with pytest.raises(NumericalError, match="non-finite.*overflow"):
            evolve(SYS, seq, wave, DELTA, mode, CAL)


class TestRfAfterEcho:
    """Trace samples after the echo carry the echo's RF phase, also when
    the RF window reaches past the echo: the readout refers the RF phase
    to the echo time in both pulse models."""

    @pytest.mark.parametrize("mode", list(PulseMode))
    def test_no_field_after_the_echo(self, mode):
        seq = build_hahn(1.2e-6, T_PI2, T_PI)
        wave = RFWaveform(0.3e-3, 0.4e6, 0.2,
                          ((0.0, 2 * seq.echo_time),), ResetMode.CONTINUOUS)
        cal = CoilCalibration(coupling_eta=6.682e-3)
        ref = evolve(SYS, seq, None, DELTA, mode, cal)
        tr = evolve(SYS, seq, wave, DELTA, mode, cal)
        mid = len(tr.times) // 2
        assert tr.times[mid] == pytest.approx(seq.echo_time, rel=1e-12)
        rf = np.angle(tr.ensemble_mxy / ref.ensemble_mxy)
        assert abs(rf[mid]) > 0.05
        np.testing.assert_allclose(rf[mid:], rf[mid], rtol=0, atol=1e-12)


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
        assert tr.times[0] < seq.echo_time < tr.times[-1]
        assert np.all(np.diff(tr.times) > 0)

    def test_too_few_samples_rejected(self):
        seq = build_hahn(1.2e-6, T_PI2, T_PI)
        tr = evolve(SYS, seq, None, DELTA, trace_points=2)
        echo_observable(tr)  # two points is the minimum
        for trace_points in (0, 1):
            with pytest.raises(ConfigError, match="two samples"):
                evolve(SYS, seq, None, DELTA, trace_points=trace_points)


SEQS = pytest.mark.parametrize("seq", [
    build_hahn(1.2e-6, T_PI2, T_PI),
    build_pdd(2, 1.2e-6, T_PI2, T_PI),
    build_pdd(3, 1.2e-6, T_PI2, T_PI),
    build_cp(4, 1.7e-6, T_PI2, T_PI),
    build_cp(5, 1.7e-6, T_PI2, T_PI),
], ids=["hahn", "pdd2", "pdd3", "cp4", "cp5"])
BASES = pytest.mark.parametrize("base", [
    EnsembleConfig(n_packets=1),
    EnsembleConfig(n_packets=1, detuning_sigma=2e6,
                   rf_amplitude_spread=0.2, seed=4),
    EnsembleConfig(n_packets=300),
    EnsembleConfig(n_packets=300, detuning_sigma=2e6,
                   rf_amplitude_spread=0.2, seed=8),
], ids=["p1-delta", "p1-spread", "p300-delta", "p300-spread"])
TRACE_POINTS = pytest.mark.parametrize("trace_points", [2, 61])


class TestEchoPoints:
    """The batched sweep primitive against the per-point reference, in
    both pulse models; the finite legs are separate tests, so that the
    ideal ones keep their ids."""

    CAL = CoilCalibration(coupling_eta=6.682e-3)

    @staticmethod
    def sweep(seq, base, amps):
        waves = [build_synchronized(seq, b1, 1, 0.35,
                                    ResetMode.PER_WINDOW_RESET)
                 for b1 in amps]
        seeds = [point_seed(base.seed, i) for i in range(len(amps))]
        return waves, seeds

    def alone(self, seq, waves, base, seeds, mode, trace_points=61):
        """Each point of the sweep run through `echo_points` by itself."""
        return [echo_points(SYS, seq, [wave], base, [seed], mode, self.CAL,
                            trace_points)[0]
                for wave, seed in zip(waves, seeds)]

    def check_two_evolve_point(self, mode, seq, base, trace_points):
        # zero and non-zero amplitude in one sweep; the delta ensembles
        # have zero detuning, the q = 1 limit of the closed-form readout
        waves, seeds = self.sweep(seq, base, [0.0, 0.1e-3, 0.3e-3])
        got = echo_points(SYS, seq, waves, base, seeds, mode, self.CAL,
                          trace_points)
        want = [simulated_phase(seq, wave, replace(base, seed=seed), mode,
                                cal=self.CAL, trace_points=trace_points)
                for wave, seed in zip(waves, seeds)]
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)

    @SEQS
    @BASES
    @TRACE_POINTS
    def test_matches_two_evolve_point(self, seq, base, trace_points):
        self.check_two_evolve_point(PulseMode.IDEAL, seq, base, trace_points)

    @SEQS
    @BASES
    @TRACE_POINTS
    def test_finite_matches_two_evolve_point(self, seq, base, trace_points):
        self.check_two_evolve_point(PulseMode.FINITE, seq, base, trace_points)

    def test_is_signal_over_reference(self):
        seq = build_cp(3, 1.7e-6, T_PI2, T_PI)
        wave = build_synchronized(seq, 0.2e-3, 1, 0.0,
                                  ResetMode.PER_WINDOW_RESET)
        ens = EnsembleConfig(n_packets=40, detuning_sigma=1e5,
                             rf_amplitude_spread=0.2, seed=3)
        ref = evolve(SYS, seq, None, ens, PulseMode.IDEAL, self.CAL,
                     trace_points=21)
        tr = evolve(SYS, seq, wave, ens, PulseMode.IDEAL, self.CAL,
                    trace_points=21)
        [z] = echo_points(SYS, seq, [wave], ens, [ens.seed], PulseMode.IDEAL,
                          self.CAL, 21)
        assert z == pytest.approx(echo_observable(tr, ref), rel=0, abs=1e-12)

    def check_straddling_blocks(self, mode):
        seq = build_cp(3, 1.7e-6, T_PI2, T_PI)
        base = EnsembleConfig(n_packets=300, detuning_sigma=1e6,
                              rf_amplitude_spread=0.2, seed=3)
        # one full block and a tail block of three points
        amps = np.linspace(0.0, 0.5e-3,
                           _BLOCK_PACKET_POINTS // base.n_packets + 3)
        assert len(amps) * base.n_packets > _BLOCK_PACKET_POINTS
        waves, seeds = self.sweep(seq, base, amps)
        got = echo_points(SYS, seq, waves, base, seeds, mode, self.CAL, 61)
        want = [simulated_phase(seq, wave, replace(base, seed=seed), mode,
                                cal=self.CAL)
                for wave, seed in zip(waves, seeds)]
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
        # each point is independent of the block it shares
        assert echo_points(SYS, seq, waves[5:], base, seeds[5:], mode,
                           self.CAL, 61) == got[5:]

    def test_sweep_straddling_blocks(self):
        self.check_straddling_blocks(PulseMode.IDEAL)

    def test_finite_sweep_straddling_blocks(self):
        self.check_straddling_blocks(PulseMode.FINITE)

    @pytest.mark.parametrize("mode", list(PulseMode))
    def test_whole_sweep_block_matches_points(self, mode, monkeypatch):
        # one block whose stacked state is over numpy's 256 KiB threshold
        # for temporary elision, which may swap a product's operands:
        # each point must still come out exactly as when run alone
        seq = build_cp(3, 1.7e-6, T_PI2, T_PI)
        base = EnsembleConfig(n_packets=300, detuning_sigma=1e6,
                              rf_amplitude_spread=0.2, seed=3)
        waves, seeds = self.sweep(seq, base, np.linspace(0.0, 0.5e-3, 30))
        assert 2 * 30 * 300 * 16 > 256 * 1024  # bytes of the complex state
        monkeypatch.setattr(blochsim, "_BLOCK_PACKET_POINTS", 30 * 300)
        got = echo_points(SYS, seq, waves, base, seeds, mode, self.CAL, 61)
        assert got == self.alone(seq, waves, base, seeds, mode)

    def test_finite_points_independent_of_block_step_counts(self):
        # one block of single-packet points whose drawn detunings set the
        # pi/2 pulse's RK4 step count from the 50-step floor to over 150:
        # each point must come out exactly as when it is simulated alone
        seq = build_hahn(1.2e-6, T_PI2, T_PI)
        base = EnsembleConfig(n_packets=1, detuning_sigma=1e8,
                              rf_amplitude_spread=0.2, seed=3)
        waves, seeds = self.sweep(seq, base, np.linspace(0.0, 0.5e-3, 12))
        assert len(seeds) * base.n_packets <= _BLOCK_PACKET_POINTS
        p = seq.pulses[0]
        steps = {max(50, math.ceil(p.duration * (
                     p.nominal_angle / p.duration
                     + np.max(np.abs(base.draw(seed)[0])))
                     / blochsim._ANGLE_CAP))
                 for seed in seeds}
        assert min(steps) == 50 and max(steps) > 150 and len(steps) >= 8
        got = echo_points(SYS, seq, waves, base, seeds, PulseMode.FINITE,
                          self.CAL, 61)
        assert got == self.alone(seq, waves, base, seeds, PulseMode.FINITE)

    @pytest.mark.parametrize("mode", list(PulseMode))
    def test_one_trace_point_rejected(self, mode):
        seq = build_hahn(1.2e-6, T_PI2, T_PI)
        waves, seeds = self.sweep(seq, DELTA, [0.1e-3])
        with pytest.raises(ConfigError, match="two samples"):
            echo_points(SYS, seq, waves, DELTA, seeds, mode, self.CAL, 1)

    @pytest.mark.parametrize("mode", list(PulseMode))
    def test_one_seed_per_wave(self, mode):
        seq = build_hahn(1.2e-6, T_PI2, T_PI)
        waves, seeds = self.sweep(seq, DELTA, [0.1e-3, 0.2e-3, 0.3e-3])
        for w, s in ((waves, seeds[:2]), (waves[:2], seeds), (waves, [])):
            with pytest.raises(ConfigError, match="one seed per wave"):
                echo_points(SYS, seq, w, DELTA, s, mode, self.CAL, 5)


class TestTimeScaleInvariance:
    """The Bloch equations' time-scale identity, which needs no second
    implementation: scaling tau, the pulse lengths and T_m by k, and the
    RF amplitude and the detuning spread by 1/k, leaves every phase and
    rotation angle as it was (the RF frequency follows tau, and a finite
    pulse's RK4 step count does not depend on the scale).  So every
    normalised echo must stay the same, to rounding.  The detuning spread
    is narrow enough that an even PDD train, whose free intervals do not
    cancel, keeps a reference echo near 1 that does not magnify rounding.
    """

    CAL = CoilCalibration(coupling_eta=6.682e-3)
    BUILDERS = {"hahn": lambda n_pi, *times: build_hahn(*times),
                "pdd": build_pdd, "cp": build_cp}

    def echoes(self, builder, n_pi, mode, seed, k):
        seq = self.BUILDERS[builder](n_pi, k * 1.7e-6, k * T_PI2, k * T_PI)
        waves = [build_synchronized(seq, b1 / k, 1, 0.35,
                                    ResetMode.PER_WINDOW_RESET)
                 for b1 in (0.0, 0.2e-3, 0.5e-3)]
        ens = EnsembleConfig(n_packets=50, detuning_sigma=2e5 / k,
                             rf_amplitude_spread=0.2, seed=seed)
        seeds = [point_seed(seed, i) for i in range(len(waves))]
        return np.array(echo_points(SpinSystem(g=2.0, t_m=k * 1e-4), seq,
                                    waves, ens, seeds, mode, self.CAL, 61))

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(builder=st.sampled_from(sorted(BUILDERS)), n_pi=st.integers(1, 5),
           mode=st.sampled_from(list(PulseMode)),
           seed=st.integers(0, 2 ** 32 - 1), k=st.floats(0.5, 3.0))
    def test_normalised_echo_invariant(self, builder, n_pi, mode, seed, k):
        want = self.echoes(builder, n_pi, mode, seed, 1.0)
        got = self.echoes(builder, n_pi, mode, seed, k)
        assert np.max(np.abs(got - want)) <= 4e-15


class TestRefocusingIdentity:
    """With ideal pulses, no RF and the T2 envelope divided out, the echo
    at the echo time is the pi/2 pulse's -i times sum_k w_k exp(i Delta_k
    t_net), whatever the detunings: t_net is the filter's signed sum of
    the free intervals.  It is 0 for Hahn, CP and odd PDD, whose echo is
    refocused, and tau for even PDD, whose pi pulses at tau, 2 tau, ...,
    N tau leave one tau unrefocused before the echo at (N + 1) tau.  Both
    values are pinned, so a change to either is deliberate."""

    BUILDERS = {"hahn": lambda n_pi, *times: build_hahn(*times),
                "pdd": build_pdd, "cp": build_cp}

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(builder=st.sampled_from(sorted(BUILDERS)), n_pi=st.integers(1, 5),
           tau=st.floats(0.5e-6, 3e-6), sigma=st.floats(0.0, 2e7),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_middle_sample_is_the_net_free_precession(self, builder, n_pi,
                                                       tau, sigma, seed):
        seq = self.BUILDERS[builder](n_pi, tau, T_PI2, T_PI)
        unrefocused = builder == "pdd" and n_pi % 2 == 0
        t_net = tau if unrefocused else 0.0
        edges = filter_function(seq).edges
        signed = sum((-1) ** k * (b - a)
                     for k, (a, b) in enumerate(zip(edges, edges[1:])))
        assert abs(signed - t_net) <= 1e-14 * seq.echo_time
        ens = EnsembleConfig(n_packets=40, detuning_sigma=sigma,
                             rf_amplitude_spread=0.2, seed=seed)
        tr = evolve(SYS, seq, None, ens, PulseMode.IDEAL, None,
                    trace_points=61)
        assert tr.times[30] == seq.echo_time
        envelope = math.exp(-((seq.echo_time / SYS.t_m)
                              ** SYS.stretch_beta))
        det, _ = ens.draw(ens.seed)
        want = -1j * np.sum(np.exp(1j * det * t_net) * (1.0 / len(det)))
        # each free interval's phase rounds at about eps * |Delta| * its
        # length, and the pulses' cos(pi) and sin(pi) at eps
        scale = 1.0 + np.max(np.abs(det), initial=0.0) * seq.echo_time
        assert abs(tr.ensemble_mxy[30] / envelope - want) <= 1e-15 * scale


class TestFiniteAgainstOracle:
    """Finite `echo_points` (exact free evolution, RK4 across the drive)
    against the Cartesian RK4 of the whole timeline in `bloch_oracle`."""

    CAL = CoilCalibration(coupling_eta=6.682e-3)

    @pytest.mark.parametrize("seq", [
        build_hahn(1.2e-6, T_PI2, T_PI),
        build_pdd(3, 1.2e-6, T_PI2, T_PI),
        build_cp(3, 1.7e-6, T_PI2, T_PI),
    ], ids=["hahn", "pdd3", "cp3"])
    @pytest.mark.parametrize("b1", [0.1e-3, 1e-3])
    def test_phase_matches_rk4(self, seq, b1):
        ens = EnsembleConfig(n_packets=20, detuning_sigma=2e6,
                             rf_amplitude_spread=0.2, seed=6)
        wave = build_synchronized(seq, b1, 1, 0.35, ResetMode.PER_WINDOW_RESET)
        [z] = echo_points(SYS, seq, [wave], ens, [ens.seed],
                          PulseMode.FINITE, self.CAL, 61)
        want = finite_echo(SYS, seq, wave, ens, self.CAL)
        assert abs(np.angle(z / want)) <= 1e-6
        assert abs(z) == pytest.approx(abs(want), abs=1e-6)


class TestEnsembleConfig:
    def test_draw_deterministic_in_seed(self):
        e = EnsembleConfig(n_packets=50, detuning_sigma=1e6,
                           rf_amplitude_spread=0.2, seed=123)
        d1, f1 = e.draw(123)
        d2, f2 = e.draw(123)
        assert np.array_equal(d1, d2) and np.array_equal(f1, f2)
        d3, f3 = e.draw(124)
        assert not (np.array_equal(d1, d3) or np.array_equal(f1, f3))

    def test_amplitude_factors_clipped_nonnegative(self):
        e = EnsembleConfig(n_packets=2000, rf_amplitude_spread=1.0, seed=1)
        _, fac = e.draw(1)
        assert np.all(fac >= 0)

    @pytest.mark.parametrize("kwargs", [
        {"n_packets": 0},
        {"detuning_sigma": -1.0},
        {"rf_amplitude_spread": -0.1},
    ])
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ConfigError):
            EnsembleConfig(**kwargs)
