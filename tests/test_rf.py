"""Gated sinusoidal RF waveforms, synchronization, phase resets."""

import copy
import dataclasses
import importlib
import math
import pickle
import pkgutil
import warnings

import numpy as np
import pytest
from scipy.integrate import quad
from hypothesis import example, given, settings, strategies as st

from echosense import (CoilCalibration, ConfigError, FilterFunction,
                       ResetMode, RFWaveform, SpinSystem, accumulate_phase,
                       build_hahn, build_cp, build_pdd, build_split_interval,
                       build_synchronized, exclude_intervals,
                       filter_function, pulse_gated,
                       synchronized_frequency, zero_field)
import echosense
from echosense import analytic, rf

from rf_oracle import build_synchronized_count, integral_loop

T_PI2 = 80e-9
T_PI = 160e-9


class TestSynchronizedFrequency:
    def test_reference_values(self):
        assert synchronized_frequency(1200e-9, 1) == pytest.approx(0.4167e6,
                                                                   rel=1e-3)
        assert synchronized_frequency(1200e-9, 2) == pytest.approx(0.8333e6,
                                                                   rel=1e-3)
        assert synchronized_frequency(1200e-9, 3) == pytest.approx(1.25e6,
                                                                   rel=1e-3)
        assert synchronized_frequency(1190e-9, 1) == pytest.approx(0.42e6,
                                                                   rel=1e-2)
        assert synchronized_frequency(1e-6, 2) == pytest.approx(1.0e6)

    def test_degenerate_rejected(self):
        with pytest.raises(ConfigError):
            synchronized_frequency(1e-6, 0)
        with pytest.raises(ConfigError):
            synchronized_frequency(0.0, 1)

    @pytest.mark.parametrize("n", [1.5, 0.5, math.nan, math.inf])
    def test_fractional_harmonic_rejected(self, n):
        seq = build_hahn(1.2e-6, T_PI2, T_PI)
        build_synchronized(seq, 1e-3, 1)  # the last-call record holds n = 1
        with pytest.raises(ConfigError, match="whole number"):
            synchronized_frequency(seq.tau, n)
        with pytest.raises(ConfigError, match="whole number"):
            build_synchronized(seq, 1e-3, n=n)

    def test_whole_float_harmonic_is_that_harmonic(self):
        # 2 and 2.0 set one frequency, and share the last-call record
        seq = build_hahn(1.2e-6, T_PI2, T_PI)
        assert synchronized_frequency(seq.tau, 2.0) == synchronized_frequency(
            seq.tau, 2)
        assert (build_synchronized(seq, 1e-3, 2.0).frequency
                == build_synchronized(seq, 1e-3, 2).frequency)


class TestSample:
    def test_zero_outside_windows(self):
        w = RFWaveform(1.8e-3, 1e6, 0.0, ((1e-6, 2e-6),))
        for t in (0.0, 0.5e-6, 2.5e-6, 1e-3):
            assert w.sample(t) == 0.0

    def test_phase_quarter_at_window_start(self):
        a = 1.3e-3
        w = RFWaveform(a, 1e6, math.pi / 2, ((0.0, 1e-6),))
        assert w.sample(0.0) == pytest.approx(a)

    def test_half_open_convention(self):
        w = RFWaveform(1e-3, 1e6, math.pi / 2, ((1e-6, 2e-6),),
                       ResetMode.PER_WINDOW_RESET)
        assert w.sample(1e-6) == pytest.approx(1e-3)   # t_on inclusive
        assert w.sample(2e-6) == 0.0                   # t_off exclusive
        assert w.sample(np.nextafter(2e-6, 0.0)) != 0.0

    def test_continuous_equals_reset_when_window_at_zero(self):
        kw = dict(amplitude=1e-3, frequency=0.7e6, phase=0.4,
                  windows=((0.0, 3e-6),))
        wc = RFWaveform(**kw, reset_mode=ResetMode.CONTINUOUS)
        wr = RFWaveform(**kw, reset_mode=ResetMode.PER_WINDOW_RESET)
        t = np.linspace(0, 3e-6, 57)
        assert np.allclose(wc.sample(t), wr.sample(t), atol=0)

    @given(st.floats(min_value=0.0, max_value=0.9e-6),
           st.integers(min_value=1, max_value=9))
    def test_periodicity_in_continuous_window(self, t, k):
        nu = 2e6
        w = RFWaveform(1e-3, nu, 0.3, ((0.0, 10e-6),))
        assert w.sample(t + k / nu) == pytest.approx(w.sample(t), abs=1e-12)

    @given(st.floats(min_value=0.0, max_value=3e-6))
    def test_linearity_in_amplitude(self, t):
        base = dict(frequency=0.9e6, phase=1.1, windows=((0.5e-6, 2.5e-6),))
        w1 = RFWaveform(amplitude=0.7e-3, **base)
        w2 = RFWaveform(amplitude=1.4e-3, **base)
        assert w2.sample(t) == pytest.approx(2 * w1.sample(t), abs=1e-15)

    def test_vectorized_matches_scalar(self):
        w = build_split_interval(1e-6, 1e-3, 0.2, 1.3)
        t = np.linspace(0, 2e-6, 41)
        assert np.allclose(w.sample(t), [w.sample(float(x)) for x in t])


class TestIntegral:
    @settings(max_examples=30, deadline=None)
    @given(st.floats(min_value=0.0, max_value=2e-6),
           st.floats(min_value=0.0, max_value=2e-6),
           st.floats(min_value=0.0, max_value=2 * math.pi),
           st.sampled_from([ResetMode.CONTINUOUS, ResetMode.PER_WINDOW_RESET]))
    def test_closed_form_matches_quadrature(self, a, b, phase, mode):
        if b < a:
            a, b = b, a
        w = RFWaveform(1.2e-3, 0.8e6, phase,
                       ((0.2e-6, 0.9e-6), (1.1e-6, 1.9e-6)), mode)
        val, _ = quad(lambda t: w.sample(t), a, b,
                      points=[0.2e-6, 0.9e-6, 1.1e-6, 1.9e-6],
                      epsabs=1e-16, limit=200)
        assert w.integrals((a, b))[0] == pytest.approx(val, abs=1e-13)

    def test_half_sine_lobe_area(self):
        # integral of A sin(pi t / tau) over [0, tau] = 2 A tau / pi
        tau, a = 1.2e-6, 1e-3
        w = RFWaveform(a, 1 / (2 * tau), 0.0, ((0.0, tau),))
        assert w.integrals((0.0, tau))[0] == pytest.approx(
            2 * a * tau / math.pi, rel=1e-12)

    def test_integrals_scale_with_amplitude(self):
        w = RFWaveform(1.8e-3, 1e6, 0.5, ((0.0, 2e-6),))
        unit = RFWaveform(1.0, 1e6, 0.5, ((0.0, 2e-6),))
        edges = (0.0, 0.4e-6, 1.5e-6)
        assert w.integrals(edges) == pytest.approx(
            [1.8e-3 * v for v in unit.integrals(edges)], rel=1e-12)

    def test_inverted_bounds_rejected(self):
        w = RFWaveform(1e-3, 1e6, 0.0, ((0.0, 1e-6),))
        with pytest.raises(ConfigError):
            w.integrals((1e-6, 0.0))


def _walk_waves():
    """Waves of every shape the library builds, with their span end."""
    hahn = build_hahn(1.2e-6, T_PI2, T_PI)
    cp3 = build_cp(3, 1.3e-6, T_PI2, T_PI)
    pdd4 = build_pdd(4, 0.9e-6, T_PI2, T_PI)
    reset = ResetMode.PER_WINDOW_RESET
    return {
        "continuous": build_synchronized(hahn, 1.1e-3, 1, 0.4),
        "continuous-cp3": build_synchronized(cp3, 0.7e-3, 3, 1.2),
        "reset-cp3": build_synchronized(cp3, 0.7e-3, 1, 0.3, reset),
        "reset-pdd4": build_synchronized(pdd4, 1.4e-3, 2, 2.5, reset),
        "split": build_split_interval(1.2e-6, 1e-3, 0.2, 1.3),
        "split-second": build_split_interval(1.2e-6, 1e-3, 0.2, 1.3,
                                             enable_first=False),
        "gated": pulse_gated(build_synchronized(cp3, 0.7e-3, 1, 0.3, reset),
                             cp3),
        "gaps": RFWaveform(0.9e-3, 0.8e6, 0.6,
                           ((0.2e-6, 0.9e-6), (1.1e-6, 1.9e-6),
                            (1.9e-6, 2.4e-6)), reset),
        "no-windows": zero_field(),
    }


class TestIntegralsWalk:
    """`integrals` against the per-interval loop over every window."""

    @staticmethod
    def check(wave, edges):
        want = [integral_loop(wave, a, b) for a, b in zip(edges, edges[1:])]
        assert wave.integrals(edges) == want  # exact, not approx
        for (a, b), v in zip(zip(edges, edges[1:]), want):
            assert wave.integrals((a, b))[0] == v

    @pytest.mark.parametrize("name", list(_walk_waves()))
    def test_filter_edges(self, name):
        wave = _walk_waves()[name]
        for seq in (build_hahn(1.2e-6, T_PI2, T_PI),
                    build_cp(3, 1.3e-6, T_PI2, T_PI),
                    build_pdd(4, 0.9e-6, T_PI2, T_PI)):
            self.check(wave, (0.0, *seq.pi_centers, seq.echo_time))

    @pytest.mark.parametrize("name", list(_walk_waves()))
    def test_random_edges_cut_through_windows(self, name):
        wave = _walk_waves()[name]
        end = max([1e-6, *(b for _, b in wave.windows)])
        rng = np.random.default_rng(11)
        for n in (2, 3, 7, 25):
            edges = tuple(np.sort(rng.uniform(-0.3 * end, 1.3 * end, n)))
            self.check(wave, tuple(float(e) for e in edges))

    @pytest.mark.parametrize("name", list(_walk_waves()))
    def test_edges_outside_and_on_window_bounds(self, name):
        wave = _walk_waves()[name]
        end = max([1e-6, *(b for _, b in wave.windows)])
        bounds = sorted({x for win in wave.windows for x in win})
        self.check(wave, (-2 * end, -end, 0.0))          # wholly before
        self.check(wave, (2 * end, 3 * end, 4 * end))    # wholly after
        self.check(wave, (-end, *bounds, 2 * end))       # on every bound
        self.check(wave, (0.0, 0.0, 0.5 * end, 0.5 * end, end))  # a == b

    def test_equal_bounds_give_zero(self):
        wave = _walk_waves()["reset-cp3"]
        assert wave.integrals((1e-6, 1e-6)) == [0.0]

    def test_fewer_than_two_edges_give_nothing(self):
        assert _walk_waves()["continuous"].integrals((1e-6,)) == []

    def test_decreasing_edges_rejected(self):
        wave = _walk_waves()["gaps"]
        with pytest.raises(ConfigError):
            wave.integrals((0.0, 2e-6, 1e-6))
        with pytest.raises(ConfigError):
            wave.integrals((1e-6, 0.0))


class TestValidation:
    def test_negative_amplitude_rejected(self):
        with pytest.raises(ConfigError):
            RFWaveform(-1e-3, 1e6)

    def test_nonpositive_frequency_rejected(self):
        with pytest.raises(ConfigError):
            RFWaveform(1e-3, 0.0)

    def test_overlapping_windows_rejected(self):
        with pytest.raises(ConfigError):
            RFWaveform(1e-3, 1e6, 0.0, ((0.0, 1e-6), (0.5e-6, 2e-6)))

    def test_empty_window_rejected(self):
        with pytest.raises(ConfigError):
            RFWaveform(1e-3, 1e6, 0.0, ((1e-6, 1e-6),))

    def test_window_phases_length_checked(self):
        with pytest.raises(ConfigError):
            RFWaveform(1e-3, 1e6, 0.0, ((0.0, 1e-6),), window_phases=(0.0, 1.0))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_scalars_rejected(self, bad):
        win = ((0.0, 1e-6),)
        for args in ((bad, 1e6, 0.0, win), (1e-3, bad, 0.0, win),
                     (1e-3, 1e6, bad, win)):
            with pytest.raises(ConfigError):
                RFWaveform(*args)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_windows_rejected(self, bad):
        for win in (((bad, 1.0),), ((0.0, bad),), ((0.0, 1.0), (2.0, bad))):
            with pytest.raises(ConfigError):
                RFWaveform(1e-3, 1e6, 0.0, win)
        with pytest.raises(ConfigError):
            RFWaveform(1e-3, 1e6, 0.0, ((0.0, 1.0), (1.0, 2.0)),
                       ResetMode.PER_WINDOW_RESET, (0.0, bad))

    def test_non_finite_synchronized_inputs_rejected(self):
        seq = build_pdd(3, 1e-6, T_PI2, T_PI)
        for mode in ResetMode:
            with pytest.raises(ConfigError):
                build_synchronized(seq, math.nan, 1, 0.0, mode)
            with pytest.raises(ConfigError):
                build_synchronized(seq, 1e-3, 1, math.nan, mode)

    def test_nan_edges_rejected(self):
        w = RFWaveform(1e-3, 1e6, 0.0, ((0.0, 1e-6),))
        for edges in ((math.nan, 1e-6), (0.0, math.nan), (0.0, math.nan, 1.0)):
            with pytest.raises(ConfigError):
                w.integrals(edges)

    def test_list_windows_accepted_as_tuples(self):
        w = RFWaveform(1e-3, 1e6, 0.0, [[0, 1e-6], [2e-6, 3e-6]],
                       ResetMode.PER_WINDOW_RESET, [0.5, 1])
        assert w.windows == ((0.0, 1e-6), (2e-6, 3e-6))
        assert w.window_phases == (0.5, 1.0)

    def test_zero_field(self):
        w = zero_field()
        assert w.amplitude == 0.0
        assert w.sample(0.5) == 0.0


class TestWithPhase:
    def test_global_phase_set(self):
        w = RFWaveform(1e-3, 1e6, 0.2, ((0.0, 1e-6),))
        assert w.with_phase(1.5).phase == 1.5

    def test_window_phases_shift_rigidly(self):
        w = build_split_interval(1e-6, 1e-3, 0.1, 0.4)
        w2 = w.with_phase(0.1 + 0.7)
        assert w2.window_phases == pytest.approx((0.8, 1.1))


class TestBuildSplitInterval:
    def test_windows_per_flags(self):
        tau = 1e-6
        both = build_split_interval(tau, 1e-3, 0.0, 0.0)
        assert both.windows == ((0.0, tau), (tau, 2 * tau))
        first = build_split_interval(tau, 1e-3, 0.0, 0.0, enable_second=False)
        assert first.windows == ((0.0, tau),)
        second = build_split_interval(tau, 1e-3, 0.0, 0.0, enable_first=False)
        assert second.windows == ((tau, 2 * tau),)

    def test_frequency_is_half_period(self):
        tau = 1.3e-6
        w = build_split_interval(tau, 1e-3, 0.0, 0.0)
        assert w.frequency == pytest.approx(1 / (2 * tau))

    def test_both_disabled_warns(self):
        with pytest.warns(UserWarning):
            w = build_split_interval(1e-6, 1e-3, 0.0, 0.0,
                                     enable_first=False, enable_second=False)
        assert w.sample(0.5e-6) == 0.0

    def test_equal_phase_lobes_mirror_full_waveform(self):
        # Per-window restart flips the second lobe's sign relative to the
        # continuous n=1 sinusoid.
        tau = 1e-6
        seq = build_hahn(tau, T_PI2, T_PI)
        split = build_split_interval(tau, 1e-3, 0.0, 0.0)
        full = build_synchronized(seq, 1e-3, 1, 0.0, ResetMode.CONTINUOUS)
        t1 = np.linspace(0, tau, 31, endpoint=False)
        t2 = np.linspace(tau, 2 * tau, 31, endpoint=False)
        assert np.allclose(split.sample(t1), full.sample(t1), atol=1e-18)
        assert np.allclose(split.sample(t2), -full.sample(t2), atol=1e-18)


class TestExcludeIntervals:
    def test_zero_inside_blocked_unchanged_outside(self):
        from echosense import exclude_intervals

        w = RFWaveform(1e-3, 0.6e6, 0.8, ((0.0, 3e-6),))
        g = exclude_intervals(w, [(1e-6, 1.2e-6), (2e-6, 2.1e-6)])
        inside = np.array([1.05e-6, 1.1e-6, 2.05e-6])
        outside = np.array([0.5e-6, 1.5e-6, 1.9e-6, 2.5e-6])
        assert np.all(g.sample(inside) == 0.0)
        assert np.allclose(g.sample(outside), w.sample(outside), atol=1e-18)

    def test_phase_continuity_for_reset_windows(self):
        from echosense import exclude_intervals

        w = build_split_interval(1e-6, 1e-3, 0.3, 1.1)
        g = exclude_intervals(w, [(0.4e-6, 0.6e-6)])
        t = np.array([0.1e-6, 0.7e-6, 1.5e-6])
        assert np.allclose(g.sample(t), w.sample(t), atol=1e-18)

    def test_pulse_gated_matches_sequence_spans(self):
        from echosense import pulse_gated

        seq = build_hahn(1.2e-6, T_PI2, T_PI)
        w = build_synchronized(seq, 1e-3, 1, 0.9)
        g = pulse_gated(w, seq)
        # centered pi pulse at tau: field off in its span
        assert g.sample(1.2e-6) == 0.0
        assert g.sample(1.2e-6 + T_PI / 2 + 1e-12) != 0.0
        # identical elsewhere
        t = np.array([0.5e-6, 1.0e-6, 2.0e-6])
        assert np.allclose(g.sample(t), w.sample(t), atol=1e-18)

    def test_empty_blocked_span_rejected(self):
        from echosense import exclude_intervals

        w = RFWaveform(1e-3, 1e6, 0.0, ((0.0, 1e-6),))
        with pytest.raises(ConfigError):
            exclude_intervals(w, [(0.5e-6, 0.5e-6)])
        for span in ((math.nan, 0.5e-6), (0.5e-6, math.nan)):
            with pytest.raises(ConfigError, match="blocked span"):
                exclude_intervals(w, [span])


class TestBuildSynchronized:
    def test_continuous_single_window(self):
        seq = build_hahn(1.2e-6, T_PI2, T_PI)
        w = build_synchronized(seq, 1e-3, 1, 0.3)
        assert w.windows == ((0.0, seq.echo_time),)
        assert w.frequency == pytest.approx(1 / (2 * seq.tau))
        assert w.reset_mode is ResetMode.CONTINUOUS

    def test_reset_tiles_free_evolution(self):
        seq = build_pdd(3, 1e-6, T_PI2, T_PI)
        w = build_synchronized(seq, 1e-3, 1, 0.0,
                               ResetMode.PER_WINDOW_RESET)
        assert len(w.windows) == 4
        assert w.windows[-1][1] == pytest.approx(seq.echo_time)

    def test_reset_phases_advance_by_pi_at_each_refocusing(self):
        seq = build_pdd(3, 1e-6, T_PI2, T_PI)
        w = build_synchronized(seq, 1e-3, 1, 0.2,
                               ResetMode.PER_WINDOW_RESET)
        assert w.window_phases == pytest.approx(
            tuple(0.2 + k * math.pi for k in range(4)))

    def test_cp_reset_phase_pattern(self):
        # CP windows: [0,tau] then pairs straddling each pi pulse; phase
        # flips once per pulse passed.
        seq = build_cp(2, 1e-6, T_PI2, T_PI)
        w = build_synchronized(seq, 1e-3, 1, 0.0,
                               ResetMode.PER_WINDOW_RESET)
        flips = [round((p - 0.0) / math.pi) for p in w.window_phases]
        assert flips == [0, 1, 1, 2]

    @pytest.mark.parametrize("build", [build_pdd, build_cp])
    @pytest.mark.parametrize("n_pi", range(1, 9))
    def test_reset_matches_counting_builder(self, build, n_pi):
        for tau, n, phase in ((1.2e-6, 1, 0.0), (0.7e-6, 3, 2.1),
                              (1.7e-6, 2, -0.4)):
            seq = build(n_pi, tau, T_PI2, T_PI)
            got = build_synchronized(seq, 0.8e-3, n, phase,
                                     ResetMode.PER_WINDOW_RESET)
            want = build_synchronized_count(seq, 0.8e-3, n, phase)
            assert got == want
            assert got.windows == want.windows
            assert got.window_phases == want.window_phases

    def test_reset_hahn_matches_counting_builder(self):
        seq = build_hahn(1.2e-6, T_PI2, T_PI)
        assert build_synchronized(seq, 1e-3, 1, 0.5,
                                  ResetMode.PER_WINDOW_RESET) == \
            build_synchronized_count(seq, 1e-3, 1, 0.5)

    def test_pdd_reset_equals_continuous_for_n1(self):
        # phase-flipped restarts re-assemble the continuous sinusoid on
        # the PDD grid
        seq = build_pdd(4, 1e-6, T_PI2, T_PI)
        wr = build_synchronized(seq, 1e-3, 1, 0.0, ResetMode.PER_WINDOW_RESET)
        wc = build_synchronized(seq, 1e-3, 1, 0.0, ResetMode.CONTINUOUS)
        t = np.linspace(0, seq.echo_time, 200, endpoint=False)
        # atol at the rounding floor of amplitude * sin(k*pi) flips
        assert np.allclose(wr.sample(t), wc.sample(t), atol=1e-13 * wr.amplitude)


def _bits(values) -> list[str]:
    return [float(v).hex() for v in values]


def _random_designs(seed: int, n: int):
    """(seq, reset_mode, harmonic, phase) of n random Hahn/PDD/CP designs,
    N 1-8."""
    rng = np.random.default_rng(seed)
    for _ in range(n):
        kind = int(rng.integers(3))
        n_pi = int(rng.integers(1, 9))
        tau = float(rng.uniform(0.9e-6, 1.7e-6))
        seq = (build_hahn(tau, T_PI2, T_PI) if kind == 0
               else (build_pdd, build_cp)[kind - 1](n_pi, tau, T_PI2, T_PI))
        mode = list(ResetMode)[int(rng.integers(2))]
        phase = (0.0, -0.0, float(rng.uniform(-math.pi, math.pi)))[
            int(rng.integers(3))]
        yield seq, mode, int(rng.integers(1, 4)), phase


class TestGeometryCaches:
    """The shape paths against the per-call oracles, bit for bit, whether
    `build_synchronized`'s last-call record serves a call or misses."""

    AMPS = (0.0, 0.13e-3, 0.5e-3, 1.7e-3)

    @staticmethod
    def check(seq, mode, n, phase, amp):
        wave = build_synchronized(seq, amp, n, phase, mode)
        if mode is ResetMode.PER_WINDOW_RESET:
            want = build_synchronized_count(seq, amp, n, phase)
            assert wave == want
            assert _bits(x for win in wave.windows for x in win) == \
                _bits(x for win in want.windows for x in win)
            assert _bits(wave.window_phases) == _bits(want.window_phases)
        else:
            assert wave.windows == ((0.0, seq.echo_time),)
        edges = (0.0, *seq.pi_centers, seq.echo_time)
        assert _bits(wave.integrals(edges)) == _bits(
            integral_loop(wave, a, b) for a, b in zip(edges, edges[1:]))

    def test_amplitude_loop_inner_warm(self):
        for seq, mode, n, phase in _random_designs(5, 300):
            for amp in self.AMPS:
                # same windows, other phases and harmonics
                self.check(seq, mode, n, phase, amp)
                self.check(seq, mode, n, phase + 1.0, amp)
                self.check(seq, mode, n + 1, phase, amp)

    def test_amplitude_loop_outer_cold(self):
        designs = list(_random_designs(6, 512))
        for amp in self.AMPS:  # every call misses the last-call record
            for design in designs:
                self.check(*design, amp)

    @pytest.mark.parametrize("first", [0.0, -0.0])
    def test_signed_zero_phase_shares_an_entry(self, first):
        # the second signed zero reuses the record that the first built
        seqs = [build_hahn(1.1e-6, T_PI2, T_PI),
                build_pdd(3, 1.3e-6, T_PI2, T_PI),
                build_cp(4, 0.95e-6, T_PI2, T_PI)]
        for seq in seqs:
            for mode in ResetMode:
                shapes = set()
                for phase in (first, -first):
                    self.check(seq, mode, 1, phase, 0.7e-3)
                    shapes.add(rf._last_synchronized[4])
                assert len(shapes) == 1

    @pytest.mark.parametrize("first", [int, float])
    def test_integer_and_float_edges_match_the_loop(self, first):
        wave = RFWaveform(0.8, 0.3, 0.4, ((0, 2), (3, 5), (5, 7)),
                          ResetMode.PER_WINDOW_RESET, (0.1, 1.3, -0.2))
        edges = (-1, 0, 1, 3, 4, 5, 9)
        for kind in (first, float if first is int else int):
            got = wave.integrals(tuple(map(kind, edges)))
            assert _bits(got) == _bits(integral_loop(wave, kind(a), kind(b))
                                       for a, b in zip(edges, edges[1:]))

    def test_invalid_inputs_raise_on_every_call(self):
        wave = RFWaveform(1e-3, 1e6, 0.0, ((0.0, 1e-6),))
        for _ in range(3):
            with pytest.raises(ConfigError):
                RFWaveform(1e-3, 1e6, 0.0, ((1e-6, 0.5e-6),))
            with pytest.raises(ConfigError):
                wave.integrals((0.0, 2e-6, 1e-6))

    def test_every_cache_is_bounded(self):
        # rf keeps no functools cache; its memos hold one entry each:
        # build_synchronized's last result, and one (edges, signed walk)
        # pair per live shape record
        assert [f for f in vars(rf).values() if hasattr(f, "cache_info")] == []
        seq = build_cp(4, 1.3e-6, T_PI2, T_PI)
        wave = build_synchronized(seq, 1e-3, 1, 0.0,
                                  ResetMode.PER_WINDOW_RESET)
        last = rf._last_synchronized
        assert len(last) == 5 and last[0] is seq and last[4] is wave._shape
        for k in range(1, 5):
            filt = FilterFunction(seq.pi_centers[:k], seq.echo_time)
            accumulate_phase(SpinSystem(), CoilCalibration(), filt, wave)
            assert wave._shape.walk[0] is filt.edges
            assert len(wave._shape.walk[1]) == k + 1

    def test_every_package_cache_is_bounded(self):
        # the functools caches: module-level functions and class
        # attributes of every module
        caches = {}
        for info in pkgutil.iter_modules(echosense.__path__):
            module = importlib.import_module(f"echosense.{info.name}")
            scopes = [vars(module)] + [vars(c) for c in vars(module).values()
                                       if isinstance(c, type)]
            for scope in scopes:
                for name, obj in scope.items():
                    obj = getattr(obj, "__func__", obj)  # static/class methods
                    if hasattr(obj, "cache_info"):
                        caches[f"{info.name}.{name}"] = obj.cache_info().maxsize
        # one cache of one entry: the two Gauss-Legendre rules of the
        # quadrature oracle
        assert caches == {"analytic._gauss_pair": 1}

    @pytest.mark.parametrize("build", [build_hahn, build_pdd, build_cp])
    @pytest.mark.parametrize("mode", list(ResetMode))
    def test_one_design_checks_builds_and_walks_once(self, build, mode,
                                                     monkeypatch):
        seq = (build(1.3e-6, T_PI2, T_PI) if build is build_hahn
               else build(5, 1.3e-6, T_PI2, T_PI))
        filt = filter_function(seq)
        builds = []

        def synchronized(*args):
            builds.append(args)
            return real(*args)

        real = rf._synchronized
        monkeypatch.setattr(rf, "_synchronized", synchronized)
        walks = []

        def unit_walk(*args):
            walks.append(args)
            return real_walk(*args)

        # the walks of accumulate_phase, through the name analytic imported
        real_walk = analytic._unit_walk
        monkeypatch.setattr(analytic, "_unit_walk", unit_walk)
        shapes = []
        for amp in np.linspace(0.0, 0.5e-3, 21):
            wave = build_synchronized(seq, float(amp), 1, 0.0, mode)
            accumulate_phase(SpinSystem(), CoilCalibration(), filt, wave)
            shapes.append(wave._shape)
        assert len(builds) == 1
        assert all(shape is shapes[0] for shape in shapes)
        assert len(walks) == 1

    def test_copies_share_the_shape_and_pickle(self):
        seq = build_cp(3, 1.3e-6, T_PI2, T_PI)
        a, b = (build_synchronized(seq, amp, 2, -0.0,
                                   ResetMode.PER_WINDOW_RESET)
                for amp in (0.2e-3, 0.4e-3))
        assert a._shape is b._shape
        assert (a.amplitude, b.amplitude) == (0.2e-3, 0.4e-3)
        assert math.copysign(1.0, b.phase) == -1.0
        c = pickle.loads(pickle.dumps(b))
        assert c == b
        edges = (0.0, *seq.pi_centers, seq.echo_time)
        assert _bits(c.integrals(edges)) == _bits(b.integrals(edges))


class TestResetModeValues:
    """A reset mode given by its string value is the member: the stored
    field, the shape record and every integral are the member's, in
    either call order."""

    WINDOWS = ((0.0, 1e-6), (1e-6, 2e-6))
    EDGES = (0.0, 1e-6, 2e-6)

    def direct(self, mode):
        wave = RFWaveform(1e-3, 2.5e5, 0.3, self.WINDOWS, mode)
        return wave.reset_mode, _bits(wave.integrals(self.EDGES))

    def synchronized(self, mode):
        seq = build_pdd(3, 1.1e-6, T_PI2, T_PI)
        wave = build_synchronized(seq, 1e-3, 1, 0.3, mode)
        return (wave.reset_mode, wave.windows, _bits(wave.window_phases or ()),
                _bits(wave.integrals((0.0, *seq.pi_centers, seq.echo_time))))

    @pytest.mark.parametrize("mode", list(ResetMode))
    @pytest.mark.parametrize("value_first", [True, False])
    @pytest.mark.parametrize("make", ["direct", "synchronized"])
    def test_value_and_member_agree_in_either_order(self, mode, value_first,
                                                    make):
        order = (mode.value, mode) if value_first else (mode, mode.value)
        got = [getattr(self, make)(m) for m in order]
        assert got[0] == got[1]
        assert got[0][0] is mode
        assert getattr(self, make)(mode) == got[0]  # a repeated member call

    def test_continuous_and_reset_differ(self):
        # the values above are not vacuous: the modes integrate differently
        assert self.direct("continuous") != self.direct("per-window-reset")

    def test_unknown_value_rejected(self):
        seq = build_hahn(1.1e-6, T_PI2, T_PI)
        for _ in range(2):
            with pytest.raises(ConfigError):
                RFWaveform(1e-3, 2.5e5, 0.3, self.WINDOWS, "bogus")
            with pytest.raises(ConfigError):
                build_synchronized(seq, 1e-3, 1, 0.0, "bogus")


#: the waveform as a frozen dataclass of its six constructor fields: the
#: reference for the slotted class's eq, hash and repr
_DataclassWaveform = dataclasses.make_dataclass(
    "RFWaveform", ["amplitude", "frequency", "phase", "windows", "reset_mode",
                   "window_phases"], frozen=True)

_FIELDS = ("amplitude", "frequency", "phase", "windows", "reset_mode",
           "window_phases")


def _surface_waves():
    seq = build_cp(3, 1.3e-6, T_PI2, T_PI)
    return [
        RFWaveform(1e-3, 1e6, 0.2, ((0.0, 1e-6),)),
        RFWaveform(1e-3, 1e6, 0.2, ((0.0, 1e-6),), "per-window-reset"),
        RFWaveform(0.8, 0.3, -0.0, [[0, 2], [3, 5]],
                   ResetMode.PER_WINDOW_RESET, [0.1, 1]),
        zero_field(),
        build_split_interval(1e-6, 0.4e-3, 0.3, 1.1),
        build_synchronized(seq, 0.6e-3, 2, -0.0, ResetMode.PER_WINDOW_RESET),
        build_synchronized(seq, 0.0, 1, 0.4, ResetMode.CONTINUOUS),
    ]


class TestWaveformSurface:
    """The slotted waveform keeps the dataclass surface it replaced."""

    @staticmethod
    def fields(wave):
        return tuple(getattr(wave, name) for name in _FIELDS)

    @pytest.mark.parametrize("k", range(7))
    def test_eq_hash_repr_match_the_dataclass(self, k):
        wave = _surface_waves()[k]
        ref = _DataclassWaveform(*self.fields(wave))
        assert repr(wave) == repr(ref)
        assert hash(wave) == hash(ref)
        assert wave == RFWaveform(*self.fields(wave))
        assert hash(wave) == hash(RFWaveform(*self.fields(wave)))
        assert wave != ref  # another class, as between dataclasses
        assert wave != self.fields(wave)

    def test_fields_differ_unequal(self):
        waves = _surface_waves()
        for i, a in enumerate(waves):
            for j, b in enumerate(waves):
                assert (a == b) is (i == j)
        wave = waves[0]
        assert wave != RFWaveform(2e-3, *self.fields(wave)[1:])
        assert len({wave, RFWaveform(*self.fields(wave))}) == 1

    @pytest.mark.parametrize("k", range(7))
    def test_pickle_and_copy_round_trip(self, k):
        wave = _surface_waves()[k]
        edges = (0.0, 0.4e-6, 1.3e-6, 2.9e-6)
        for other in (pickle.loads(pickle.dumps(wave)), copy.copy(wave),
                      copy.deepcopy(wave)):
            assert other == wave
            assert _bits(self.fields(other)[:3]) == _bits(
                self.fields(wave)[:3])
            assert _bits(other.integrals(edges)) == _bits(
                wave.integrals(edges))

    @pytest.mark.parametrize("name", _FIELDS + ("_shape", "other"))
    def test_every_assignment_raises(self, name):
        wave = _surface_waves()[2]
        before = self.fields(wave)
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(wave, name, 1.0)
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(wave, name)
        assert self.fields(wave) == before
        assert not hasattr(wave, "__dict__")

    @pytest.mark.parametrize("k", range(7))
    def test_with_phase_equals_the_constructor(self, k):
        wave = _surface_waves()[k]
        got = wave.with_phase(0.9)
        ph = wave.window_phases
        if ph is not None:
            ph = tuple(p + (0.9 - wave.phase) for p in ph)
        assert got == RFWaveform(wave.amplitude, wave.frequency, 0.9,
                                 wave.windows, wave.reset_mode, ph)
        assert wave.phase != 0.9  # the original is untouched

    @pytest.mark.parametrize("build", [build_hahn, build_pdd, build_cp])
    @pytest.mark.parametrize("mode", list(ResetMode))
    @pytest.mark.parametrize("phase", [0, 0.0, -0.0, 0.7, np.float64(-1.2)])
    def test_scaled_copy_equals_the_constructor(self, build, mode, phase):
        seq = (build(1.3e-6, T_PI2, T_PI) if build is build_hahn
               else build(4, 1.3e-6, T_PI2, T_PI))
        for amp in (0.0, 0.3e-3, 1.1e-3):
            wave = build_synchronized(seq, amp, 2, phase, mode)
            fresh = RFWaveform(*self.fields(wave))
            assert wave == fresh
            assert wave.phase is phase  # stored as given
            assert [type(x) for x in self.fields(wave)] == [
                type(x) for x in self.fields(fresh)]
            assert all(type(x) is float for x in (
                *(e for w in wave.windows for e in w),
                *(wave.window_phases or ())))
            edges = (0.0, *seq.pi_centers, seq.echo_time)
            assert _bits(wave.integrals(edges)) == _bits(
                fresh.integrals(edges))

    def test_synchronized_checks_its_scalars(self):
        # an overflowing frequency, and windows whose last edge overflows
        tiny = build_hahn(1e-309, 1e-310, 2e-310)
        huge = echosense.PulseSequence(
            (echosense.Pulse(0.0, 1.0, math.pi / 2),
             echosense.Pulse(6e307, 1.0, math.pi)), 6e307, 1.7e308)
        for seq, mode in ((tiny, ResetMode.CONTINUOUS),
                          (tiny, ResetMode.PER_WINDOW_RESET),
                          (huge, ResetMode.PER_WINDOW_RESET)):
            with pytest.raises(ConfigError, match="must be finite"):
                build_synchronized(seq, 1e-3, 1, 0.0, mode)
        wave = build_synchronized(huge, 1e-3, 1, 0.0, ResetMode.CONTINUOUS)
        assert wave.windows == ((0.0, 1.7e308),)

    @pytest.mark.parametrize("mode", list(ResetMode))
    def test_integer_sequence_gives_float_windows(self, mode):
        # a custom sequence may hold ints; the windows are floats, as the
        # constructor converts them
        seq = echosense.PulseSequence(
            (echosense.Pulse(0, 1, math.pi / 2),
             echosense.Pulse(2, 1, math.pi)), 3, 6)
        wave = build_synchronized(seq, 1e-3, 1, 0, mode)
        assert wave == RFWaveform(*self.fields(wave))
        assert all(type(x) is float for x in (
            *(e for w in wave.windows for e in w),
            *(wave.window_phases or ())))


#: awkward numbers for every numeric argument: NaN, infinities, signed
#: zeros, subnormals, the float extremes and ints
_AWKWARD = (math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, -5e-324,
            2.2250738585072014e-308, 1e308, -1e308, 0, 1, 2, -3, 2 ** 64,
            1e-6, 1.3e-6, 2.6e-6, 0.4, math.pi)
_awkward = st.one_of(st.sampled_from(_AWKWARD),
                     st.floats(allow_nan=True, allow_infinity=True),
                     st.integers(-2 ** 70, 2 ** 70))
#: three in four numbers are ordinary, so that most calls get far enough
#: to meet the awkward one
_numbers = st.integers(0, 3).flatmap(lambda k: _awkward if k == 0 else (
    st.floats(0.0, 3.0) | st.integers(0, 3)))
_modes = st.sampled_from([*ResetMode, *(m.value for m in ResetMode),
                          "bogus"])
#: spans as drawn, or as consecutive pairs of sorted numbers, which are
#: ordered and disjoint unless two numbers tie
_pairs = st.lists(st.tuples(_numbers, _numbers), max_size=4) | st.lists(
    _numbers.filter(lambda v: v == v), max_size=8).map(
        lambda v: list(zip(*[iter(sorted(v))] * 2)))
_GATED_OFF = ("split-interval waveform with both halves gated off is "
              "identically zero")


#: one object each, so that calls on them meet the last-call record
_SEQUENCES = [
    build_hahn(1.2e-6, T_PI2, T_PI), build_pdd(4, 1.1e-6, T_PI2, T_PI),
    build_cp(3, 1.3e-6, T_PI2, T_PI),
    build_hahn(1e-309, 1e-310, 2e-310),  # its frequency overflows
    echosense.PulseSequence(  # its last window edge overflows
        (echosense.Pulse(0.0, 1.0, math.pi / 2),
         echosense.Pulse(6e307, 1.0, math.pi)), 6e307, 1.7e308),
    echosense.PulseSequence(  # ints
        (echosense.Pulse(0, 1, math.pi / 2),
         echosense.Pulse(2, 1, math.pi)), 3, 6)]


@st.composite
def _rf_calls(draw, depth=0):
    """A call of a public `rf` callable on awkward arguments, as a
    zero-argument function."""
    x = lambda: draw(_numbers)  # noqa: E731
    seq = draw(st.sampled_from(_SEQUENCES))
    kinds = ["frequency", "waveform", "synchronized", "split"]
    if depth == 0:
        kinds += ["integrals", "exclude", "gated"]
    kind = draw(st.sampled_from(kinds))
    if kind == "frequency":
        tau, n = x(), x()
        return lambda: synchronized_frequency(tau, n)
    if kind == "waveform":
        windows = draw(_pairs)
        phases = draw(st.none() | st.lists(_numbers, min_size=len(windows),
                                           max_size=len(windows) + 1))
        args = (x(), x(), x(), windows, draw(_modes), phases)
        return lambda: RFWaveform(*args)
    if kind == "synchronized":
        args = (seq, x(), x(), x(), draw(_modes))
        return lambda: build_synchronized(*args)
    if kind == "split":
        args = (x(), x(), x(), x(), draw(st.booleans()), draw(st.booleans()))
        return lambda: build_split_interval(*args)
    make = draw(_rf_calls(depth=1))
    if kind == "integrals":
        edges = draw(st.lists(_numbers, max_size=6))
        if draw(st.booleans()):  # ordered, but for any NaN
            edges.sort(key=lambda v: (v != v, v))
        return lambda: _wave(make).integrals(edges)
    if kind == "exclude":
        blocked = draw(_pairs)
        return lambda: exclude_intervals(_wave(make), blocked)
    return lambda: pulse_gated(_wave(make), seq)


def _wave(make):
    """The waveform `make` returns; synchronized_frequency's value stands
    for a waveform of that frequency."""
    got = make()
    return got if isinstance(got, RFWaveform) else RFWaveform(1e-3, got)


def _outcome(call):
    """None if `call` returns, or the ConfigError it raises; any other
    exception propagates, and the only warning allowed is the documented
    all-windows-gated-off one."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            call()
        except ConfigError as err:
            return err
        finally:
            assert [str(w.message) for w in caught
                    if str(w.message) != _GATED_OFF] == []
    return None


#: calls that random draws seldom reach: phases that overflow in the walk
_RARE_CALLS = [
    lambda: RFWaveform(1.0, 1e300, 0.0, ((0.0, 1e10),)).integrals((0, 1e10)),
    lambda: RFWaveform(1.0, 1e308, 0.0, ((0, 1),)).integrals((0, 1)),
    lambda: RFWaveform(1.0, 1.0, 0.0, ((-1e308, 1e308),),
                       "per-window-reset").integrals((0.0, 1e308))]

#: a two-pulse train whose echo time holds 10**6 taus: 10**6 reset windows
_MANY_WINDOWS = echosense.PulseSequence(
    (echosense.Pulse(0.0, 1e-10, math.pi / 2),
     echosense.Pulse(1e-9, 1e-10, math.pi)), 1e-9, 1e-3)


class TestExceptionContract:
    """Every public `rf` callable, on any arguments of the right types,
    returns, raises a ConfigError or warns that a split waveform is gated
    off; and a call that raised raises again, whatever the memos saw
    in between."""

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(st.lists(_rf_calls(), min_size=1, max_size=4))
    @example(_RARE_CALLS)
    @example([lambda: build_synchronized(_MANY_WINDOWS, 1e-3, 1, 0.0,
                                         ResetMode.PER_WINDOW_RESET)])
    def test_every_call_returns_or_raises_a_config_error(self, calls):
        outcomes = [_outcome(call) for call in calls]
        for call, first in zip(calls, outcomes):
            if first is not None:
                assert isinstance(_outcome(call), ConfigError)

    def test_phase_overflow_is_a_config_error(self):
        for call in _RARE_CALLS:
            with pytest.raises(ConfigError, match="RF phase over"):
                call()

    def test_too_many_reset_windows_is_a_config_error(self):
        # the error names tau, the echo time and the count; a train at the
        # limit builds, and a continuous waveform has one window
        with pytest.raises(ConfigError, match=r"tau 1e-09 s, echo time "
                           r"0\.001 s: 1e\+06 reset windows, over the limit "
                           r"of 100000"):
            build_synchronized(_MANY_WINDOWS, 1e-3, 1, 0.0,
                               ResetMode.PER_WINDOW_RESET)
        at_limit = dataclasses.replace(_MANY_WINDOWS, echo_time=1e-4)
        assert len(build_synchronized(at_limit, 1e-3, 1, 0.0,
                                      ResetMode.PER_WINDOW_RESET).windows) \
            == rf._MAX_RESET_WINDOWS
        assert len(build_synchronized(_MANY_WINDOWS, 1e-3).windows) == 1
