"""Pulse sequence builders and the sign filter function."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from echosense import (ConfigError, FilterFunction, Pulse, PulseSequence,
                       build_cp, build_hahn, build_pdd, filter_function)
from echosense.sequence import _check_timings

T_PI2 = 80e-9
T_PI = 160e-9

taus = st.floats(min_value=0.5e-6, max_value=2e-6)
n_pis = st.integers(min_value=1, max_value=6)


class TestPulse:
    def test_center_and_end(self):
        p = Pulse(start=1e-6, duration=2e-7, nominal_angle=math.pi)
        assert p.end == pytest.approx(1.2e-6)
        assert p.center == pytest.approx(1.1e-6)

    @pytest.mark.parametrize("kwargs", [
        {"start": -1e-9, "duration": 1e-8, "nominal_angle": 1.0},
        {"start": 0.0, "duration": 0.0, "nominal_angle": 1.0},
        {"start": 0.0, "duration": -1e-9, "nominal_angle": 1.0},
    ])
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ConfigError):
            Pulse(**kwargs)

    @pytest.mark.parametrize("start, duration", [
        (math.nan, 1e-9), (math.inf, 1e-9), (0.0, math.inf),
        (0.0, math.nan)])
    def test_non_finite_rejected(self, start, duration):
        with pytest.raises(ConfigError, match="must be finite"):
            Pulse(start, duration, 1.0)

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(st.floats(), st.floats(), st.floats(), st.floats())
    @example(0.0, 1e-9, math.nan, 0.0)
    @example(0.0, 1e-9, -math.inf, 0.0)
    @example(0.0, 1e-9, math.pi, math.nan)
    @example(0.0, 1e-9, math.pi, math.inf)
    @example(1e308, 1.7e308, 1.0, 0.0)  # finite start and duration, inf end
    def test_exception_contract(self, start, duration, angle, phase):
        # any floats build a pulse of finite fields and edges, or raise a
        # ConfigError
        try:
            p = Pulse(start, duration, angle, phase)
        except ConfigError:
            return
        assert all(map(math.isfinite, (p.start, p.duration, p.nominal_angle,
                                       p.axis_phase, p.end, p.center)))


class TestBuildHahn:
    def test_reference_timing(self):
        # tau = 1200 ns -> echo at 2400 ns, centers at 0 and tau
        seq = build_hahn(1200e-9, T_PI2, T_PI)
        assert seq.echo_time == pytest.approx(2400e-9)
        assert seq.n_pi == 1
        assert seq.pi_centers == (pytest.approx(1200e-9),)

    def test_synchronization_tau(self):
        # tau = 1190 ns -> echo 2380 ns; 1/(2 tau) = 0.42 MHz
        seq = build_hahn(1190e-9, T_PI2, T_PI)
        assert seq.echo_time == pytest.approx(2380e-9)
        assert 1 / (2 * seq.tau) == pytest.approx(0.42e6, rel=1e-2)

    def test_short_tau_rejected(self):
        with pytest.raises(ConfigError):
            build_hahn(100e-9, T_PI2, T_PI)

    def test_origin_is_half_pi2(self):
        seq = build_hahn(1200e-9, T_PI2, T_PI)
        assert seq.origin == pytest.approx(T_PI2 / 2)

    @given(taus)
    def test_pulses_disjoint(self, tau):
        seq = build_hahn(tau, T_PI2, T_PI)
        for a, b in zip(seq.pulses, seq.pulses[1:]):
            assert b.start >= a.end


class TestBuildPdd:
    def test_centers_on_tau_grid(self):
        seq = build_pdd(4, 1e-6, T_PI2, T_PI)
        assert seq.echo_time == pytest.approx(5e-6)
        assert seq.pi_centers == tuple(
            pytest.approx(k * 1e-6) for k in (1, 2, 3, 4))

    def test_pdd1_is_hahn_timing(self):
        a = build_pdd(1, 1.2e-6, T_PI2, T_PI)
        b = build_hahn(1.2e-6, T_PI2, T_PI)
        assert a.pi_centers == b.pi_centers
        assert a.echo_time == b.echo_time

    def test_n_pi_zero_rejected(self):
        with pytest.raises(ConfigError):
            build_pdd(0, 1e-6, T_PI2, T_PI)

    @pytest.mark.parametrize("build", [build_pdd, build_cp])
    @pytest.mark.parametrize("n_pi", [2.5, 2.0, "2"])
    def test_non_integer_n_pi_rejected(self, build, n_pi):
        with pytest.raises(ConfigError, match="n_pi must be an integer"):
            build(n_pi, 1e-6, T_PI2, T_PI)

    @given(n_pis, taus)
    def test_echo_tau_after_last_pulse(self, n, tau):
        seq = build_pdd(n, tau, T_PI2, T_PI)
        assert seq.echo_time - seq.pi_centers[-1] == pytest.approx(tau)


class TestBuildCp:
    def test_centers_odd_multiples(self):
        seq = build_cp(3, 1e-6, T_PI2, T_PI)
        assert seq.pi_centers == tuple(
            pytest.approx(k * 1e-6) for k in (1, 3, 5))
        assert seq.echo_time == pytest.approx(6e-6)

    def test_cp5_long_sequence(self):
        seq = build_cp(5, 1.7e-6, T_PI2, T_PI)
        assert seq.echo_time == pytest.approx(17e-6)

    def test_cp1_is_hahn_timing(self):
        a = build_cp(1, 1.2e-6, T_PI2, T_PI)
        b = build_hahn(1.2e-6, T_PI2, T_PI)
        assert a.pi_centers == b.pi_centers
        assert a.echo_time == b.echo_time

    @given(n_pis, taus)
    def test_echo_tau_after_last_pulse(self, n, tau):
        seq = build_cp(n, tau, T_PI2, T_PI)
        assert seq.echo_time - seq.pi_centers[-1] == pytest.approx(tau)

    @given(n_pis, taus)
    def test_pulses_within_total_time(self, n, tau):
        seq = build_cp(n, tau, T_PI2, T_PI)
        end = seq.origin + seq.echo_time
        assert all(0 <= p.start and p.end <= end + 1e-15
                   for p in seq.pulses)


class TestBuildCustom:
    """A custom sequence: a PulseSequence of explicit pulses."""

    def test_accepts_explicit_pulses(self):
        pulses = (Pulse(0.0, T_PI2, math.pi / 2),
                  Pulse(1e-6, T_PI, math.pi))
        seq = PulseSequence(pulses, 1e-6, 2.2e-6)
        assert seq.n_pi == 1

    def test_overlap_rejected(self):
        pulses = (Pulse(0.0, 200e-9, math.pi / 2),
                  Pulse(100e-9, T_PI, math.pi))
        with pytest.raises(ConfigError):
            PulseSequence(pulses, 1e-6, 2e-6)

    def test_echo_before_last_pulse_rejected(self):
        pulses = (Pulse(0.0, T_PI2, math.pi / 2),
                  Pulse(1e-6, T_PI, math.pi))
        with pytest.raises(ConfigError):
            PulseSequence(pulses, 1e-6, 0.5e-6)


def _signed_area(f):
    """Integral of the filter's sign over its domain, from its edges."""
    return sum((-1) ** k * (b - a)
               for k, (a, b) in enumerate(zip(f.edges, f.edges[1:])))


class TestFilterFunction:
    def test_hahn_signs(self):
        f = filter_function(build_hahn(1e-6, T_PI2, T_PI))
        assert f.sign(0.5e-6) == 1.0
        assert f.sign(1.5e-6) == -1.0

    def test_pdd3_alternation(self):
        f = filter_function(build_pdd(3, 1e-6, T_PI2, T_PI))
        signs = [f.sign((k + 0.5) * 1e-6) for k in range(4)]
        assert signs == [1.0, -1.0, 1.0, -1.0]

    def test_cp2_intervals(self):
        f = filter_function(build_cp(2, 1e-6, T_PI2, T_PI))
        assert f.sign(0.5e-6) == 1.0
        assert f.sign(2e-6) == -1.0
        assert f.sign(3.5e-6) == 1.0

    def test_hahn_pdd1_cp1_identical(self):
        tau = 1.2e-6
        fs = [filter_function(b) for b in (
            build_hahn(tau, T_PI2, T_PI),
            build_pdd(1, tau, T_PI2, T_PI),
            build_cp(1, tau, T_PI2, T_PI))]
        assert fs[0].breakpoints == fs[1].breakpoints == fs[2].breakpoints
        assert fs[0].domain_end == fs[1].domain_end == fs[2].domain_end

    @given(n_pis, taus)
    def test_breakpoint_count(self, n, tau):
        seq = build_pdd(n, tau, T_PI2, T_PI)
        assert len(filter_function(seq).breakpoints) == seq.n_pi

    @given(n_pis, taus)
    def test_cp_integral_zero(self, n, tau):
        # CP alternation cancels exactly for every pulse count
        f = filter_function(build_cp(n, tau, T_PI2, T_PI))
        assert abs(_signed_area(f)) < 1e-15 * f.domain_end

    @given(n_pis, taus)
    def test_pdd_integral_parity(self, n, tau):
        # N+1 alternating tau intervals: cancel for odd N, one tau left
        # over for even N (Hahn = PDD(1) cancels).
        f = filter_function(build_pdd(n, tau, T_PI2, T_PI))
        expected = 0.0 if n % 2 == 1 else tau
        assert _signed_area(f) == pytest.approx(expected, abs=1e-18)

    def test_intervals_cover_domain(self):
        f = filter_function(build_pdd(3, 1e-6, T_PI2, T_PI))
        assert len(f.edges) == 5  # four constant-sign intervals
        assert f.edges[0] == 0.0
        assert f.edges[-1] == f.domain_end
        assert all(a < b for a, b in zip(f.edges, f.edges[1:]))

    @settings(max_examples=25)
    @given(st.lists(st.floats(min_value=1e-7, max_value=9e-7),
                    min_size=1, max_size=4, unique=True))
    def test_sign_matches_breakpoint_count(self, bps):
        bps = tuple(sorted(bps))
        f = FilterFunction(bps, 1e-6)
        t = np.linspace(1e-9, 1e-6 - 1e-9, 97)
        counts = np.searchsorted(np.asarray(bps), t)
        assert np.array_equal(f.sign(t), (-1.0) ** counts)

    @pytest.mark.parametrize("bps", [(math.nan,), (5e-7, math.nan),
                                     (math.nan, 5e-7)])
    def test_nan_breakpoint_rejected(self, bps):
        with pytest.raises(ConfigError, match="breakpoints"):
            FilterFunction(bps, 1e-6)

    def test_bad_breakpoints_rejected(self):
        with pytest.raises(ConfigError):
            FilterFunction((2e-6,), 1e-6)      # outside domain
        with pytest.raises(ConfigError):
            FilterFunction((0.0,), 1e-6)       # at left edge
        with pytest.raises(ConfigError):
            FilterFunction((5e-7, 4e-7), 1e-6)  # not increasing


class TestPulseSequenceValidation:
    def test_needs_two_pulses(self):
        with pytest.raises(ConfigError):
            PulseSequence((Pulse(0.0, T_PI2, math.pi / 2),), 1e-6, 2e-6)

    @pytest.mark.parametrize("starts", [(1.0, 1.0), (1.0, 1.0, 1.0)],
                             ids=["center-on-origin", "tied-centers"])
    def test_pi_centers_rounding_together_rejected(self, starts):
        # 1e-17 s pulses at 1 s are disjoint, but their centers round onto
        # 1.0: pi centers of 0.0, which the filter could not take
        pulses = tuple(Pulse(t, 1e-17, math.pi / 2 if k == 0 else math.pi)
                       for k, t in enumerate(starts))
        with pytest.raises(ConfigError, match="pi centers must increase strictly"):
            PulseSequence(pulses, 1.0, 2.0)

    def test_nonpositive_tau_rejected(self):
        pulses = (Pulse(0.0, T_PI2, math.pi / 2), Pulse(1e-6, T_PI, math.pi))
        with pytest.raises(ConfigError):
            PulseSequence(pulses, 0.0, 2e-6)

    @pytest.mark.parametrize("echo_time", [math.inf, -math.inf, math.nan])
    def test_non_finite_echo_rejected(self, echo_time):
        pulses = (Pulse(0.0, T_PI2, math.pi / 2), Pulse(1e-6, T_PI, math.pi))
        with pytest.raises(ConfigError, match="echo time must be finite"):
            PulseSequence(pulses, 1e-6, echo_time)

    def test_builders_reject_overflowing_echo(self):
        # the echo at 2*tau overflows while every pulse start is finite
        for build in (lambda: build_hahn(1e308, T_PI2, T_PI),
                      lambda: build_pdd(1, 1e308, T_PI2, T_PI),
                      lambda: build_cp(1, 1e308, T_PI2, T_PI)):
            with pytest.raises(ConfigError, match="echo time must be finite"):
                build()


class TestFilterDomain:
    @pytest.mark.parametrize("domain_end", [0.0, -1.0, math.nan, math.inf])
    def test_bad_domain_end_rejected(self, domain_end):
        with pytest.raises(ConfigError, match="domain_end"):
            FilterFunction((), domain_end)

    def test_positive_domain_end_accepted(self):
        assert FilterFunction((), 2e-6).edges == (0.0, 2e-6)


def _checked_build(kind, n_pi, tau, t_pi2, t_pi):
    """The builders' construction before they checked once: the timing
    check, then every `Pulse` and the `PulseSequence` check themselves
    (n_pi >= 1)."""
    _check_timings(tau, t_pi2, t_pi, tau)
    origin = t_pi2 / 2
    pulses = [Pulse(0.0, t_pi2, math.pi / 2)]
    if kind == "hahn":
        pulses.append(Pulse(origin + tau - t_pi / 2, t_pi, math.pi))
        echo_time = 2 * tau
    elif kind == "pdd":
        pulses += [Pulse(origin + k * tau - t_pi / 2, t_pi, math.pi)
                   for k in range(1, n_pi + 1)]
        echo_time = (n_pi + 1) * tau
    else:
        pulses += [Pulse(origin + (2 * k - 1) * tau - t_pi / 2, t_pi, math.pi)
                   for k in range(1, n_pi + 1)]
        echo_time = 2 * n_pi * tau
    return PulseSequence(tuple(pulses), tau, echo_time)


def _lean_build(kind, n_pi, tau, t_pi2, t_pi):
    if kind == "hahn":
        return build_hahn(tau, t_pi2, t_pi)
    return (build_pdd if kind == "pdd" else build_cp)(n_pi, tau, t_pi2, t_pi)


def _built(build, *args):
    try:
        return build(*args)
    except ConfigError:
        return ConfigError


_ULP = 2.0 ** -53
#: bad and extreme timings: zero, negative, non-finite, overflowing,
#: subnormal
_odd = st.sampled_from([0.0, -1e-7, math.nan, math.inf, -math.inf, 1e308,
                        5e-324, 1e-300])


@st.composite
def _timings(draw):
    """(tau, t_pi2, t_pi): ordinary ones, ones whose gaps are a few ulps
    wide (where float rounding decides an overlap), and bad ones."""
    tau = draw(st.one_of(st.floats(1e-7, 3e-6), st.just(1.0)))
    form = draw(st.sampled_from(["free", "bad", "tight_gap", "tight_pi"]))
    j = draw(st.integers(-8, 8))
    if form == "free":
        t_pi2, t_pi = draw(st.floats(1e-9, 4e-6)), draw(st.floats(1e-9, 4e-6))
    elif form == "bad":
        tau, t_pi2, t_pi = draw(st.permutations(
            [draw(_odd), tau * draw(st.floats(0.01, 0.4)),
             tau * draw(st.floats(0.01, 0.4))]))
    elif form == "tight_gap":  # tau - t_pi2/2 - t_pi/2 a few ulps from 0
        t_pi = tau * draw(st.floats(0.01, 0.99))
        t_pi2 = 2 * (tau - t_pi / 2) * (1 + j * _ULP)
    else:  # tau - t_pi a few ulps from 0
        t_pi = tau * (1 + j * _ULP)
        t_pi2 = tau * draw(st.floats(1e-6, 1.5))
    return tau, t_pi2, t_pi


class TestBuildersMatchCheckedConstruction:
    """Each builder checks once and fills its records; it must accept and
    reject exactly what the per-pulse construction does, with the same
    floats."""

    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(st.sampled_from(["hahn", "pdd", "cp"]), st.integers(1, 12),
           _timings())
    # pulses that overlap by a rounding error although the timing check
    # passes
    @example("hahn", 1, (float.fromhex("0x1.307597dc5a381p-21"),
                         float.fromhex("0x1.c1a991e81c280p-21"),
                         float.fromhex("0x1.3e833ba130903p-22")))
    @example("pdd", 8, (float.fromhex("0x1.b9acd1917096ep-20"),
                        float.fromhex("0x1.f2c58c1598417p-41"),
                        float.fromhex("0x1.b9acd1917096dp-20")))
    @example("hahn", 1, (1e308, T_PI2, T_PI))
    def test_same_outcome(self, kind, n_pi, timings):
        want = _built(_checked_build, kind, n_pi, *timings)
        got = _built(_lean_build, kind, n_pi, *timings)
        if want is ConfigError:
            assert got is ConfigError
            return
        assert got == want
        for name in ("origin", "echo_time", "tau"):
            assert getattr(got, name).hex() == getattr(want, name).hex()
        assert ([c.hex() for c in got.pi_centers]
                == [c.hex() for c in want.pi_centers])
        assert ([p.start.hex() for p in got.pulses]
                == [p.start.hex() for p in want.pulses])

    @pytest.mark.parametrize("kind, n_pi, timings", [
        ("hahn", 1, ("0x1.307597dc5a381p-21", "0x1.c1a991e81c280p-21",
                     "0x1.3e833ba130903p-22")),
        ("pdd", 8, ("0x1.b9acd1917096ep-20", "0x1.f2c58c1598417p-41",
                    "0x1.b9acd1917096dp-20")),
        ("cp", 9, ("0x1.58b91a5e94131p-21", "0x1.bc865e14cca10p-21",
                   "0x1.e9d7ad50b70a3p-22")),
    ])
    def test_rounding_overlap_rejected(self, kind, n_pi, timings):
        # the timing check passes, so the builders' overlap test rejects
        tau, t_pi2, t_pi = map(float.fromhex, timings)
        _check_timings(tau, t_pi2, t_pi, tau)
        with pytest.raises(ConfigError, match="overlapping pulses"):
            _lean_build(kind, n_pi, tau, t_pi2, t_pi)
