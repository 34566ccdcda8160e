"""Closed-form phase accumulation against the quadrature oracle."""

import dataclasses
import itertools
import math
import pickle
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad

from echosense import (CoilCalibration, ConfigError, FilterFunction,
                       NumericalError, ResetMode, RFWaveform, SpinSystem,
                       accumulate_phase, accumulate_phase_quadrature,
                       build_cp, build_hahn, build_pdd, build_split_interval,
                       build_synchronized, filter_function,
                       gyromagnetic_ratio, phase_vs_rf_phase, pulse_gated,
                       split_interval_decomposition, synchronized_frequency)
from echosense import analytic, rf
from echosense.analytic import PhaseAccumulation

from rf_oracle import build_synchronized_count, integral_loop

T_PI2 = 80e-9
T_PI = 160e-9
SYS = SpinSystem(g=2.0)
CAL = CoilCalibration(coupling_eta=1.0)
GAMMA = gyromagnetic_ratio(2.0)


def hahn_parts(tau, b1):
    seq = build_hahn(tau, T_PI2, T_PI)
    wave = build_synchronized(seq, b1, 1, 0.0)
    return filter_function(seq), wave


class TestHahnClosedForm:
    def test_reference_phase(self):
        # 4 gamma B tau / pi at tau = 1.2 us, B = 1 uT, g = 2: 0.2687 rad
        filt, wave = hahn_parts(1.2e-6, 1e-6)
        pa = accumulate_phase(SYS, CAL, filt, wave)
        assert pa.phi == pytest.approx(0.2687, abs=2e-4)
        assert pa.phi == pytest.approx(4 * GAMMA * 1e-6 * 1.2e-6 / math.pi,
                                       rel=1e-12)

    def test_per_interval_breakdown(self):
        filt, wave = hahn_parts(1.2e-6, 1e-6)
        pa = accumulate_phase(SYS, CAL, filt, wave)
        assert len(pa.per_interval) == 2
        # both lobes contribute equally after the sign flip
        assert pa.per_interval[0] == pytest.approx(pa.per_interval[1],
                                                   rel=1e-12)
        assert sum(pa.per_interval) == pytest.approx(pa.phi, rel=1e-12)

    def test_linear_in_amplitude(self):
        filt, w1 = hahn_parts(1.2e-6, 0.5e-6)
        _, w2 = hahn_parts(1.2e-6, 1.0e-6)
        p1 = accumulate_phase(SYS, CAL, filt, w1).phi
        p2 = accumulate_phase(SYS, CAL, filt, w2).phi
        assert p2 == pytest.approx(2 * p1, rel=1e-12)

    def test_coupling_eta_scales_phase(self):
        filt, wave = hahn_parts(1.2e-6, 1e-6)
        full = accumulate_phase(SYS, CAL, filt, wave).phi
        cal = dataclasses.replace(CAL, coupling_eta=6.682e-3)
        scaled = accumulate_phase(SYS, cal, filt, wave).phi
        assert scaled == pytest.approx(6.682e-3 * full, rel=1e-12)


class TestScalingLaws:
    @pytest.mark.parametrize("n_pi", [1, 2, 3, 4, 5])
    def test_pdd_continuous_scaling(self, n_pi):
        # phi_PDD(N) = 2 (N+1) gamma B tau / pi for continuous n=1 sync
        tau, b1 = 1.1e-6, 0.8e-6
        seq = build_pdd(n_pi, tau, T_PI2, T_PI)
        wave = build_synchronized(seq, b1, 1, 0.0)
        phi = accumulate_phase(SYS, CAL, filter_function(seq), wave).phi
        expected = 2 * (n_pi + 1) * GAMMA * b1 * tau / math.pi
        assert phi == pytest.approx(expected, rel=1e-9)

    @pytest.mark.parametrize("n_pi", [1, 2, 3, 4, 5])
    def test_cp_reset_scaling(self, n_pi):
        # per-window restart makes every tau window add: 4 N gamma B tau / pi
        tau, b1 = 1.1e-6, 0.8e-6
        seq = build_cp(n_pi, tau, T_PI2, T_PI)
        wave = build_synchronized(seq, b1, 1, 0.0, ResetMode.PER_WINDOW_RESET)
        phi = accumulate_phase(SYS, CAL, filter_function(seq), wave).phi
        expected = 4 * n_pi * GAMMA * b1 * tau / math.pi
        assert phi == pytest.approx(expected, rel=1e-9)

    @pytest.mark.parametrize("n_pi", [2, 3, 4])
    def test_cp_continuous_interior_intervals_vanish(self, n_pi):
        # a full RF period integrates to zero across each interior 2 tau
        # interval; only the edge tau segments contribute
        tau = 1.3e-6
        seq = build_cp(n_pi, tau, T_PI2, T_PI)
        wave = build_synchronized(seq, 1e-6, 1, 0.0, ResetMode.CONTINUOUS)
        pa = accumulate_phase(SYS, CAL, filter_function(seq), wave)
        interior = pa.per_interval[1:-1]
        scale = abs(pa.per_interval[0]) + 1e-30
        assert all(abs(x) < 1e-12 * scale for x in interior)

    def test_cp4_vs_pdd4_reset_ratio(self):
        # CP(4) accumulates over 8 tau of toggled signal, PDD(4) over 5
        tau, b1 = 1e-6, 1e-6
        cp = build_cp(4, tau, T_PI2, T_PI)
        pdd = build_pdd(4, tau, T_PI2, T_PI)
        phi_cp = accumulate_phase(
            SYS, CAL, filter_function(cp),
            build_synchronized(cp, b1, 1, 0.0, ResetMode.PER_WINDOW_RESET)).phi
        phi_pdd = accumulate_phase(
            SYS, CAL, filter_function(pdd),
            build_synchronized(pdd, b1, 1, 0.0,
                               ResetMode.PER_WINDOW_RESET)).phi
        assert phi_cp / phi_pdd == pytest.approx(8 / 5, rel=1e-9)


class TestHarmonicSymmetry:
    def test_even_harmonics_vanish(self):
        for n in (2, 4, 6):
            seq = build_hahn(1.2e-6, T_PI2, T_PI)
            wave = build_synchronized(seq, 1e-6, n, 0.0)
            phi = accumulate_phase(SYS, CAL, filter_function(seq), wave).phi
            assert abs(phi) < 1e-12

    def test_third_harmonic_ratio(self):
        seq = build_hahn(1.2e-6, T_PI2, T_PI)
        filt = filter_function(seq)
        p1 = accumulate_phase(SYS, CAL, filt,
                              build_synchronized(seq, 1e-6, 1, 0.0)).phi
        p3 = accumulate_phase(SYS, CAL, filt,
                              build_synchronized(seq, 1e-6, 3, 0.0)).phi
        assert p3 / p1 == pytest.approx(1 / 3, rel=1e-9)


class TestPhaseVsRfPhase:
    def test_cosine_dependence(self):
        seq = build_hahn(1.2e-6, T_PI2, T_PI)
        filt = filter_function(seq)
        template = build_synchronized(seq, 1e-6, 1, 0.0)
        phi_max = accumulate_phase(SYS, CAL, filt, template).phi
        grid = np.radians(np.arange(0, 360, 15))
        pts = phase_vs_rf_phase(SYS, CAL, filt, template, grid)
        for phi0, phi in pts:
            assert phi == pytest.approx(phi_max * math.cos(phi0), abs=1e-12)

    def test_nodes_at_quadrature(self):
        seq = build_hahn(1.2e-6, T_PI2, T_PI)
        filt = filter_function(seq)
        template = build_synchronized(seq, 1.8e-3, 1, 0.0)
        pts = phase_vs_rf_phase(SYS, CAL, filt, template,
                                [math.pi / 2, 3 * math.pi / 2])
        for _, phi in pts:
            assert abs(phi) < 1e-12

    def test_empty_grid_rejected(self):
        seq = build_hahn(1.2e-6, T_PI2, T_PI)
        with pytest.raises(ConfigError):
            phase_vs_rf_phase(SYS, CAL, filter_function(seq),
                              build_synchronized(seq, 1e-6, 1, 0.0), [])


class TestSplitIntervalDecomposition:
    def test_halves_sum_to_whole(self):
        for phi0 in np.radians(np.arange(0, 360, 10)):
            first, second, full = split_interval_decomposition(
                SYS, CAL, 1.2e-6, 1e-6, (phi0, phi0))
            assert first + second == pytest.approx(full, abs=1e-12)

    def test_zero_phase_halves_equal(self):
        first, second, full = split_interval_decomposition(
            SYS, CAL, 1.2e-6, 1e-6, (0.0, 0.0))
        # equal-phase lobes cancel across the sign flip (restarted second
        # lobe has reversed sign relative to the continuous waveform)
        assert first == pytest.approx(-second, rel=1e-12)
        assert abs(full) < 1e-12


class TestQuadratureOracle:
    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from(["hahn", "pdd", "cp"]),
           st.integers(min_value=1, max_value=5),
           st.integers(min_value=1, max_value=4),
           st.floats(min_value=0.9e-6, max_value=1.7e-6),
           st.floats(min_value=0.0, max_value=2 * math.pi),
           st.floats(min_value=0.0, max_value=1.8e-3),
           st.sampled_from([ResetMode.CONTINUOUS, ResetMode.PER_WINDOW_RESET]))
    def test_closed_form_matches_quadrature(self, kind, n_pi, n, tau, phi0,
                                            b1, mode):
        if kind == "hahn":
            seq = build_hahn(tau, T_PI2, T_PI)
        elif kind == "pdd":
            seq = build_pdd(n_pi, tau, T_PI2, T_PI)
        else:
            seq = build_cp(n_pi, tau, T_PI2, T_PI)
        wave = build_synchronized(seq, b1, n, phi0, mode)
        filt = filter_function(seq)
        closed = accumulate_phase(SYS, CAL, filt, wave).phi
        oracle = accumulate_phase_quadrature(SYS, CAL, filt, wave)
        assert closed == pytest.approx(oracle,
                                       rel=1e-9, abs=1e-9)


def _quadpack_phase(cal, filt, wave) -> float:
    """The phase integral piece by piece with QUADPACK's adaptive
    Gauss-Kronrod rule (scipy's quad), cut at the same edges."""
    edges = sorted({0.0, filt.domain_end, *filt.breakpoints,
                    *(e for window in wave.windows for e in window)})

    def integrand(t):
        return float(filt.sign(t)) * float(wave.sample(t))

    total = sum(quad(integrand, a, b, epsabs=1e-12, epsrel=1e-12,
                     limit=200)[0]
                for a, b in zip(edges, edges[1:]) if b > a)
    return SYS.gamma * cal.coupling_eta * total


def _seeded_designs(rng, count):
    """(filter, waveform) pairs: one in four a split-interval waveform,
    the others Hahn, PDD and CP up to 8 pulses at harmonics 1-3, random
    phases and both reset modes, 30 % of those pulse-gated."""
    for _ in range(count):
        kind = ("hahn", "pdd", "cp", "split")[rng.integers(4)]
        tau = float(rng.uniform(0.6e-6, 2.0e-6))
        amp = float(rng.uniform(0.0, 1.8e-3))
        if kind == "split":
            first = bool(rng.integers(2))
            second = not first or bool(rng.integers(2))
            ph1, ph2 = rng.uniform(0.0, 2 * math.pi, 2)
            yield (FilterFunction((tau,), 2 * tau),
                   build_split_interval(tau, amp, ph1, ph2, first, second))
            continue
        if kind == "hahn":
            seq = build_hahn(tau, T_PI2, T_PI)
        else:
            build = build_pdd if kind == "pdd" else build_cp
            seq = build(int(rng.integers(1, 9)), tau, T_PI2, T_PI)
        wave = build_synchronized(seq, amp, int(rng.integers(1, 4)),
                                  float(rng.uniform(0.0, 2 * math.pi)),
                                  list(ResetMode)[rng.integers(2)])
        if rng.random() < 0.3:
            wave = pulse_gated(wave, seq)
        yield filter_function(seq), wave


class TestAdaptiveOracle:
    def test_seeded_designs_match_quad(self):
        # the bundled configs' coupling: at eta = 1 and mT fields the
        # pieces reach ~100 rad, and float64 rounding of the sinusoid's
        # argument alone moves either rule by up to ~4e-12 rad
        cal = CoilCalibration(coupling_eta=0.006682)
        rng = np.random.default_rng(1983)
        for k, (filt, wave) in enumerate(_seeded_designs(rng, 300)):
            ref = _quadpack_phase(cal, filt, wave)
            got = accumulate_phase_quadrature(SYS, cal, filt, wave)
            assert abs(got - ref) <= 1e-12 * max(1.0, abs(ref)), (k, got, ref)

    @pytest.mark.parametrize("frequency", [2.37e7, 5.61e7, 2.113e8, 4.3e8])
    def test_bisection_resolves_many_periods(self, frequency):
        # 24 to 430 RF periods per 1 us piece: more than one pass of the
        # 32-point rule resolves, so the bisected sum is what is checked
        wave = RFWaveform(1e-3, frequency, 0.3, ((0.0, 2e-6),))
        filt = FilterFunction((1e-6,), 2e-6)
        closed = accumulate_phase(SYS, CAL, filt, wave).phi
        oracle = accumulate_phase_quadrature(SYS, CAL, filt, wave)
        assert oracle == pytest.approx(closed, rel=1e-11, abs=1e-11)

    def test_non_convergence_raises_naming_the_piece(self):
        # 3.3e5 RF periods per 1 us piece: past the bisection budget, where
        # QUADPACK only warned and returned 2.08e-3 rad
        wave = RFWaveform(1e-3, 3.3e11, 0.3, ((0.0, 2e-6),))
        filt = FilterFunction((1e-6,), 2e-6)
        assert abs(accumulate_phase(SYS, CAL, filt, wave).phi) < 1e-12
        with pytest.raises(NumericalError,
                           match=r"piece \[0\.0+e\+00, 1\.0+e-06\]"):
            accumulate_phase_quadrature(SYS, CAL, filt, wave)


class TestAgainstPerIntervalLoop:
    """accumulate_phase against the per-interval formula it replaced:
    s * gamma_eff * (integral over the interval, visiting every window),
    summed in interval order.  Equal bit for bit."""

    @pytest.mark.parametrize("mode", [ResetMode.CONTINUOUS,
                                      ResetMode.PER_WINDOW_RESET])
    @pytest.mark.parametrize("kind,n_pi", [("hahn", 1)]
                             + [(k, n) for k in ("pdd", "cp")
                                for n in range(1, 9)])
    def test_bit_identical(self, kind, n_pi, mode):
        cal = CoilCalibration(coupling_eta=6.682e-3)
        rng = np.random.default_rng(n_pi + 10 * (kind == "cp"))
        for _ in range(5):
            tau = float(rng.uniform(0.6e-6, 2.0e-6))
            if kind == "hahn":
                seq = build_hahn(tau, T_PI2, T_PI)
            elif kind == "pdd":
                seq = build_pdd(n_pi, tau, T_PI2, T_PI)
            else:
                seq = build_cp(n_pi, tau, T_PI2, T_PI)
            wave = build_synchronized(seq, float(rng.uniform(0, 2e-3)),
                                      int(rng.integers(1, 5)),
                                      float(rng.uniform(0, 2 * math.pi)), mode)
            filt = filter_function(seq)
            gamma_eff = SYS.gamma * cal.coupling_eta
            edges = filt.edges
            per = tuple((-1) ** k * gamma_eff * integral_loop(wave, a, b)
                        for k, (a, b) in enumerate(zip(edges, edges[1:])))
            got = accumulate_phase(SYS, cal, filt, wave)
            assert got.per_interval == per
            assert got.phi == sum(per)


class TestDomainChecks:
    def test_window_outside_filter_domain_rejected(self):
        seq = build_hahn(1.2e-6, T_PI2, T_PI)
        filt = filter_function(seq)
        too_long = build_split_interval(1.5e-6, 1e-6, 0.0, 0.0)
        with pytest.raises(ConfigError):
            accumulate_phase(SYS, CAL, filt, too_long)
        with pytest.raises(ConfigError):
            accumulate_phase_quadrature(SYS, CAL, filt, too_long)

    def test_additivity_over_window_partition(self):
        # per-part phases over a partition of the windows sum to the whole
        tau = 1.2e-6
        seq = build_hahn(tau, T_PI2, T_PI)
        filt = filter_function(seq)
        both = build_split_interval(tau, 1e-6, 0.7, 1.9)
        first = build_split_interval(tau, 1e-6, 0.7, 0.0,
                                     enable_second=False)
        second = build_split_interval(tau, 1e-6, 0.0, 1.9,
                                      enable_first=False)
        p_both = accumulate_phase(SYS, CAL, filt, both).phi
        p_first = accumulate_phase(SYS, CAL, filt, first).phi
        p_second = accumulate_phase(SYS, CAL, filt, second).phi
        assert p_first + p_second == pytest.approx(p_both, abs=1e-12)


def _bits(values) -> list[str]:
    return [float(v).hex() for v in values]


def _design(kind):
    if kind == "hahn":
        return build_hahn(1.3e-6, T_PI2, T_PI)
    return (build_pdd if kind == "pdd" else build_cp)(5, 1.3e-6, T_PI2, T_PI)


def _spy(monkeypatch, module, name) -> list:
    """Replace module.name by a wrapper that records each call's
    arguments in the returned list."""
    calls = []
    real = getattr(module, name)

    def spy(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(module, name, spy)
    return calls


def _fresh(seq, amp, n, phase, mode):
    """The waveform of `build_synchronized(seq, amp, n, phase, mode)`,
    constructed afresh through `RFWaveform(...)`: its own checked shape
    record, whose walk slot is empty."""
    if ResetMode(mode) is ResetMode.PER_WINDOW_RESET:
        return build_synchronized_count(seq, amp, n, phase)
    return RFWaveform(amp, synchronized_frequency(seq.tau, n), phase,
                      ((0.0, seq.echo_time),), mode)


class TestSignedWalk:
    """The checked, signed walk is kept on the shape record with its
    edges; the phases built from it are the floats of the per-interval
    sign formula."""

    @pytest.mark.parametrize("kind", ["hahn", "pdd", "cp"])
    @pytest.mark.parametrize("mode", list(ResetMode))
    def test_one_design_checks_and_signs_once(self, kind, mode,
                                              monkeypatch):
        seq = _design(kind)
        filt = filter_function(seq)
        checks = _spy(monkeypatch, analytic, "_check_domain")
        walks = _spy(monkeypatch, analytic, "_unit_walk")
        builds = _spy(monkeypatch, rf, "_synchronized")
        shapes = []
        for amp in np.linspace(0.0, 0.5e-3, 21):
            wave = build_synchronized(seq, float(amp), 1, 0.0, mode)
            accumulate_phase(SYS, CAL, filt, wave)
            shapes.append(wave._shape)
        assert (len(checks), len(walks), len(builds)) == (1, 1, 1)
        assert all(shape is shapes[0] for shape in shapes)
        assert wave._shape.walk[0] is filt.edges

    def test_domain_violation_raises_on_every_call(self, monkeypatch):
        filt = filter_function(build_hahn(1.2e-6, T_PI2, T_PI))
        too_long = build_split_interval(1.5e-6, 1e-6, 0.0, 0.0)
        checks = _spy(monkeypatch, analytic, "_check_domain")
        for _ in range(3):
            with pytest.raises(ConfigError, match="exceed the filter domain"):
                accumulate_phase(SYS, CAL, filt, too_long)
        assert len(checks) == 3
        assert too_long._shape.walk == (None, ())  # a failure fills no slot

    @pytest.mark.parametrize("designs_first", [True, False])
    def test_interleaved_calls_match_fresh_waveforms(self, designs_first):
        # two designs of equal keys, two filters of one domain with other
        # edges, and arguments that compare equal across types and signs:
        # a record or walk reused for anything but the same sequence and
        # the same edges tuple gives other floats or a domain error
        designs = [build_pdd(3, 1.3e-6, T_PI2, T_PI),
                   build_cp(2, 1.1e-6, T_PI2, T_PI)]
        filters = [(filter_function(seq),
                    FilterFunction(seq.pi_centers[1:], seq.echo_time))
                   for seq in designs]
        keys = list(itertools.product(
            (1, 1.0), (0.0, -0.0),
            (*ResetMode, *(m.value for m in ResetMode))))
        pairs = (itertools.product(zip(designs, filters), keys)
                 if designs_first else
                 ((d, k) for k in keys for d in zip(designs, filters)))
        amps = itertools.cycle((0.0, 0.21e-3, 0.5e-3))
        calls = 0
        for (seq, filts), (n, phase, mode) in pairs:
            for filt in filts:
                amp = next(amps)
                got = accumulate_phase(
                    SYS, CAL, filt, build_synchronized(seq, amp, n, phase,
                                                       mode))
                want = accumulate_phase(SYS, CAL, filt,
                                        _fresh(seq, amp, n, phase, mode))
                assert _bits(got.per_interval) == _bits(want.per_interval)
                assert _bits([got.phi]) == _bits([want.phi])
                calls += 1
        assert calls == 2 * 2 * len(keys)

    def test_threads_share_the_memos_without_torn_reads(self):
        # more threads than cores, switching every microsecond, each
        # cycling designs and filters through both memos: every phase
        # must be the one computed alone before the threads start
        designs = [build_pdd(3, 1.3e-6, T_PI2, T_PI),
                   build_cp(2, 1.1e-6, T_PI2, T_PI),
                   build_hahn(1.2e-6, T_PI2, T_PI)]
        cases = [(seq, filt, mode)
                 for seq in designs
                 for filt in (filter_function(seq),
                              FilterFunction(seq.pi_centers[1:],
                                             seq.echo_time))
                 for mode in ResetMode]
        want = [_bits(accumulate_phase(SYS, CAL, filt,
                                       _fresh(seq, 0.3e-3, 1, 0.0,
                                              mode)).per_interval)
                for seq, filt, mode in cases]
        bad = []

        def work(offset):
            for i in range(3000):
                k = (offset + i) % len(cases)
                seq, filt, mode = cases[k]
                wave = build_synchronized(seq, 0.3e-3, 1, 0.0, mode)
                got = _bits(accumulate_phase(SYS, CAL, filt,
                                             wave).per_interval)
                if got != want[k]:
                    bad.append(k)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(t,))
                       for t in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert bad == []

    @pytest.mark.parametrize("kind", ["hahn", "pdd", "cp"])
    @pytest.mark.parametrize("mode", list(ResetMode))
    @pytest.mark.parametrize("phase", [0.0, -0.0])
    def test_signed_zeros_match_the_sign_formula(self, kind, mode, phase):
        seq = _design(kind)
        filt = filter_function(seq)
        gamma_eff = SYS.gamma * CAL.coupling_eta
        signs = (gamma_eff, -gamma_eff)
        zeros = set()
        for amp in (0.0, -0.0, 0.3e-3):
            wave = build_synchronized(seq, amp, 1, phase, mode)
            want = [signs[k % 2] * v
                    for k, v in enumerate(wave.integrals(filt.edges))]
            got = accumulate_phase(SYS, CAL, filt, wave)
            assert _bits(got.per_interval) == _bits(want)
            assert _bits([got.phi]) == _bits([sum(want)])
            if amp == 0.0:
                zeros.update(_bits(got.per_interval))
        # the zero amplitudes give zeros of both signs
        assert zeros == {"0x0.0p+0", "-0x0.0p+0"}

    def test_fast_built_result_is_a_phase_accumulation(self):
        seq = build_cp(3, 1.3e-6, T_PI2, T_PI)
        got = accumulate_phase(SYS, CAL, filter_function(seq),
                               build_synchronized(seq, 0.4e-3))
        built = PhaseAccumulation(got.phi, got.per_interval)
        assert type(got) is PhaseAccumulation
        assert got == built and hash(got) == hash(built)
        assert repr(got) == repr(built)
        assert pickle.loads(pickle.dumps(got)) == built
        with pytest.raises(dataclasses.FrozenInstanceError):
            got.phi = 0.0
