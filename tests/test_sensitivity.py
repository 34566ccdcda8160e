"""Transduction fitting and the sensitivity arithmetic chain."""

import math

import numpy as np
import pytest

from echosense import (CoilCalibration, ConfigError, EnsembleConfig,
                       FitMethod, NumericalError, SampleSpec, SpinSystem,
                       blochsim, concentration_sensitivity,
                       dd_sensitivity_sweep, dipole_field, fit_transduction,
                       minimum_detectable_field, spectral_sensitivity)
from echosense.core import MU_B
from echosense.sequence import SequenceKind

import fit_oracle


def linear_points(slope, n=11, b_max=1e-3, intercept=0.0, noise=None):
    b = np.linspace(0, b_max, n)
    phi = slope * b + intercept
    if noise is not None:
        phi = phi + noise
    return list(zip(b, phi))


class TestFitTransduction:
    def test_recovers_linear_slope(self):
        fit = fit_transduction(linear_points(1.527e7))
        assert fit.slope == pytest.approx(1.527e7, rel=1e-9)
        assert fit.method is FitMethod.LINEAR_REGRESSION
        assert fit.residual_rms == pytest.approx(0.0, abs=1e-9)

    def test_method_value_equals_member(self):
        pts = linear_points(1.527e7, noise=np.linspace(0, 3.0, 11) ** 2)
        for method in FitMethod:
            assert fit_transduction(pts, method.value) == \
                fit_transduction(pts, method)
        with pytest.raises(ConfigError):
            fit_transduction(pts, "least-squares")

    def test_auto_switches_to_max_derivative_when_nonlinear(self):
        # saturating curve: linear fit residual blows past the threshold
        b = np.linspace(0, 1e-3, 21)
        phi = 80.0 * np.sin(b / 1e-3 * math.pi / 2)  # degrees, saturating
        fit = fit_transduction(list(zip(b, phi)))
        assert fit.method is FitMethod.MAX_DERIVATIVE
        # steepest slope is at the origin: 80 * (pi/2) / 1e-3 deg/T
        assert fit.slope == pytest.approx(80 * math.pi / 2 / 1e-3, rel=0.05)

    def test_forced_linear_keeps_regression(self):
        b = np.linspace(0, 1e-3, 21)
        phi = 80.0 * np.sin(b / 1e-3 * math.pi / 2)
        fit = fit_transduction(list(zip(b, phi)),
                               method=FitMethod.LINEAR_REGRESSION,
                               residual_threshold=math.inf)
        assert fit.method is FitMethod.LINEAR_REGRESSION

    def test_forced_linear_with_default_threshold(self):
        # the residual of this saturating curve is far above the default
        # threshold, which only AUTO consults
        b = np.linspace(0, 1e-3, 21)
        phi = 80.0 * np.sin(b / 1e-3 * math.pi / 2)
        fit = fit_transduction(list(zip(b, phi)),
                               method=FitMethod.LINEAR_REGRESSION)
        assert fit.method is FitMethod.LINEAR_REGRESSION
        assert fit.residual_rms > 2.0
        assert fit.slope == pytest.approx(np.polyfit(b, phi, 1)[0],
                                          rel=1e-12)

    def test_forced_max_derivative_on_linear_data(self):
        fit = fit_transduction(linear_points(1.527e7),
                               method=FitMethod.MAX_DERIVATIVE)
        assert fit.method is FitMethod.MAX_DERIVATIVE
        assert fit.slope == pytest.approx(1.527e7, rel=1e-9)

    @pytest.mark.parametrize("kind", ["random", "noisy", "linear"])
    def test_closed_form_line_matches_polyfit(self, kind):
        rng = np.random.default_rng(3)
        for trial in range(50):
            n = int(rng.integers(3, 42))
            b = np.sort(rng.uniform(0, 2e-3, n))
            if np.any(np.diff(b) <= 0):
                continue
            slope0 = float(rng.uniform(-1, 1)) * 10 ** rng.uniform(3, 8)
            if kind == "random":
                phi = rng.uniform(-40, 40, n)  # jumps stay under 90 deg
            elif kind == "noisy":
                phi = slope0 * b + rng.normal(0, 0.5, n) + 3.0
            else:
                phi = slope0 * b - 7.5
            # AUTO may fall back to max-derivative on random data
            fit = fit_transduction(list(zip(b, phi)),
                                   method=FitMethod.LINEAR_REGRESSION)
            slope, intercept = np.polyfit(b, phi, 1)
            # relative to the slope scale of the data, so that a near-zero
            # fitted slope of random data is not judged by its own size
            scale = max(abs(slope), np.ptp(phi) / np.ptp(b))
            assert abs(fit.slope - slope) <= 1e-12 * scale
            assert abs(fit.intercept - intercept) <= 1e-12 * max(
                abs(intercept), scale * b[-1])

    def test_too_few_points_rejected(self):
        with pytest.raises(ConfigError):
            fit_transduction([(0.0, 0.0), (1e-4, 1.0)])

    def test_non_increasing_fields_rejected(self):
        pts = [(0.0, 0.0), (2e-4, 1.0), (1e-4, 2.0)]
        with pytest.raises(ConfigError):
            fit_transduction(pts)

    @pytest.mark.parametrize("point,where", [
        ((1e-4, math.nan), "phase nan"),
        ((math.nan, 1.0), "field nan"),
        ((1e-4, math.inf), "phase inf"),
    ])
    def test_non_finite_point_rejected(self, point, where):
        pts = [(0.0, 0.0), point, (2e-4, 2.0)]
        with pytest.raises(ConfigError, match=f"point 1 .*{where}"):
            fit_transduction(pts)

    @pytest.mark.parametrize("pts,where", [
        ([("a", 1), (1, 2), (2, 3)], r"point 0 \('a', 1\)"),
        ([(0, 0), (1,), (2, 3)], r"point 1 \(1,\)"),
    ], ids=["string-field", "one-number-point"])
    def test_non_numeric_point_rejected(self, pts, where):
        with pytest.raises(ConfigError, match=where):
            fit_transduction(pts)

    @pytest.mark.parametrize("fields, sxx", [
        ([0.0, 1e-203, 2e-203, 3e-203], "0.0"),
        ([0.0, 1e160, 2e160], "inf")], ids=["underflows", "overflows"])
    def test_unresolvable_field_spread_rejected(self, fields, sxx):
        # increasing fields, but the slope's denominator is not usable
        with pytest.raises(ConfigError, match=f"squares of the fields is "
                                              f"{sxx} T"):
            fit_transduction([(b, 0.1 * i) for i, b in enumerate(fields)])

    def test_wrap_jump_rejected(self):
        pts = [(0.0, 80.0), (1e-4, -85.0), (2e-4, 75.0)]
        with pytest.raises(ConfigError, match="unwrap"):
            fit_transduction(pts)


def _fit_outcome(fit, points, *args):
    """A fit's floats as hex and its method, or its exception and message."""
    try:
        r = fit(points, *args)
    except Exception as e:  # the library and the oracle must raise alike
        return type(e), str(e)
    return ((r.slope.hex(), r.intercept.hex(), r.residual_rms.hex(),
             r.b_range[0].hex(), r.b_range[1].hex()), r.method)


def _fit_cases(seed):
    """Seeded point sets: both trend signs, the max-derivative branch,
    wrap flybacks, small counter-trend jumps, non-finite and unordered
    points, overflowing jumps and too few points."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, 41))
    b = np.sort(rng.uniform(0.0, 1e-3, n))
    b[0] = 0.0 if rng.random() < 0.5 else b[0]
    slope = rng.choice([-1, 1]) * 10 ** rng.uniform(3, 8)
    line = slope * b + rng.normal(0.0, 10 ** rng.uniform(-6, 1), n)
    curve = 120 * np.sin(b / b[-1] * rng.uniform(2, 6)) * rng.choice([-1, 1])
    wrapped = (line + 90.0) % 180.0 - 90.0
    cases = {
        "line": line,
        "curve": curve,
        "wrapped": wrapped,
        "small_counter_jump": line + np.where(np.arange(n) == n // 2,
                                              -np.sign(slope) * 80.0, 0.0),
        "overflow": rng.choice([-1e308, 1e308], n),
    }
    out = [(name, list(zip(b, phi))) for name, phi in cases.items()]
    bad = list(zip(b, line))
    k = int(rng.integers(0, n))
    value = rng.choice([math.nan, math.inf, -math.inf])
    bad[k] = (value, bad[k][1]) if rng.random() < 0.5 else (bad[k][0], value)
    out.append(("non_finite", bad))
    unordered = list(zip(b, line))
    unordered[k], unordered[k - 1] = unordered[k - 1], unordered[k]
    out.append(("unordered", unordered))
    out.append(("repeated_field", [(b[0], 0.0)] + list(zip(b, line))))
    out.append(("too_few", list(zip(b, line))[:int(rng.integers(0, 3))]))
    # increasing fields whose centred sum of squares underflows or
    # overflows: the slope cannot divide by it
    for name, scale in (("underflowing_spread", 1e-200),
                        ("overflowing_spread", 1e160)):
        out.append((name, [(x * scale, y) for x, y in zip(b, line)]))
    return out


class TestFitAgainstOracle:
    """`fit_transduction` against its generator-expression reference
    (`tests/fit_oracle.py`): bit-equal fits, or the same error."""

    METHODS = [(), (FitMethod.AUTO,), (FitMethod.LINEAR_REGRESSION,),
               (FitMethod.MAX_DERIVATIVE,), ("auto",), ("max-derivative",),
               ("bogus",), (FitMethod.AUTO, 1e9), ("auto", 0.0)]

    @pytest.mark.parametrize("seed", range(40))
    def test_seeded_point_sets(self, seed):
        branches = set()
        for name, points in _fit_cases(seed):
            for args in self.METHODS:
                want = _fit_outcome(fit_oracle.fit_transduction, points, *args)
                got = _fit_outcome(fit_transduction, points, *args)
                assert got == want, (name, args)

    def test_every_branch_is_reached(self):
        # the default-method fits of the seeded sets reach both methods
        # and every error message
        seen = set()
        for seed in range(40):
            for _, points in _fit_cases(seed):
                kind, label = _fit_outcome(fit_oracle.fit_transduction,
                                           points)
                if kind is ConfigError:
                    seen.add(label.split(" ")[0])
                elif not isinstance(kind, type):  # a fit, not an error
                    seen.add(label.value)
        assert seen == {"linear-regression", "max-derivative", "point",
                        "field", "wrapped-phase", "fit_transduction",
                        "centred", "least-squares"}

    @pytest.mark.parametrize("points, label", [
        ([(0, 0), (1e-4, 1e200), (2e-4, 3e200)], "least-squares"),
        ([(0, -1e308), (1e-4, -1e308), (2e-4, 1e308)], "least-squares"),
        ([(0, 0), (1e-4, 1.7e308), (2e-4, 1.75e308)], "least-squares"),
        ([(0.0, 0.0), (1e-300, 1e10), (1.0, 1e10)], "steepest")],
        ids=["squared-residual", "phase-sum", "phase-jump", "steepest-slope"])
    @pytest.mark.parametrize("method", list(FitMethod))
    def test_overflow_is_config_error(self, points, label, method):
        # finite phases whose least-squares sums or finite differences
        # overflow: rejected before a bare OverflowError or a numpy warning
        # (an error under this suite's filterwarnings) can escape
        if label == "steepest" and method is FitMethod.LINEAR_REGRESSION:
            label = "fit"  # the forced line never takes differences
        want = _fit_outcome(fit_oracle.fit_transduction, points, method)
        assert _fit_outcome(fit_transduction, points, method) == want
        kind, message = want
        assert (kind is ConfigError and message.startswith(label)
                or label == "fit" and not isinstance(kind, type))

    def test_points_may_be_an_iterator(self):
        points = linear_points(-2.3e6, noise=np.linspace(0, 1, 11))
        assert (_fit_outcome(fit_transduction, iter(points))
                == _fit_outcome(fit_oracle.fit_transduction, points))


class TestArithmeticChain:
    def test_minimum_detectable_field(self):
        fit = fit_transduction(linear_points(1 / 9.8e-6))  # deg per T
        assert minimum_detectable_field(fit, 1.0) == pytest.approx(9.8e-6,
                                                                   rel=1e-6)

    def test_zero_slope_rejected(self):
        fit = fit_transduction(linear_points(0.0))
        with pytest.raises(ConfigError):
            minimum_detectable_field(fit, 1.0)

    def test_spectral_sensitivity(self):
        assert spectral_sensitivity(9.8e-6, 0.375) == pytest.approx(
            9.8e-6 * math.sqrt(0.375), rel=1e-12)

    def test_spectral_sensitivity_invalid(self):
        with pytest.raises(ConfigError):
            spectral_sensitivity(0.0, 0.375)
        with pytest.raises(ConfigError):
            spectral_sensitivity(1e-6, 0.0)

    def test_concentration_sensitivity_unit_conversion(self):
        # density in m^-3 -> per um^3: 2.3e25 m^-3 = 2.3e7 um^-3
        s = concentration_sensitivity(6.0e-6, 2.3e25)
        assert s == pytest.approx(6.0e-6 / math.sqrt(2.3e7), rel=1e-9)

    def test_dipole_field_single_moment(self):
        # mu0/(4 pi) * mu_B / (5 nm)^3 ~ 7.4e-6 T
        assert dipole_field(MU_B, 5e-9) == pytest.approx(7.42e-6, rel=0.01)

    def test_dipole_inverse_cube(self):
        assert dipole_field(MU_B, 10e-9) == pytest.approx(
            dipole_field(MU_B, 5e-9) / 8, rel=1e-12)

    def test_dipole_invalid_distance(self):
        with pytest.raises(ConfigError):
            dipole_field(MU_B, 0.0)


class TestDdSensitivitySweep:
    SAMPLE = SampleSpec(spin_density=1e21, sensing_volume=1.75e-12)
    SYS = SpinSystem(g=2.0, t_m=1e-4)
    CAL = CoilCalibration(coupling_eta=6.682e-3)
    ENS = EnsembleConfig(n_packets=60, detuning_sigma=2 * math.pi * 0.02e6,
                         rf_amplitude_spread=0.2, seed=77)
    AMPS = np.linspace(0, 0.4e-3, 11)

    def run(self, protocol, n_pi_list):
        return dd_sensitivity_sweep(
            protocol, n_pi_list, 1.7e-6, self.SYS, self.CAL, self.SAMPLE,
            self.AMPS, self.ENS, 80e-9, 160e-9)

    def test_cp_sensitivity_improves_with_pulses(self):
        reports = self.run(SequenceKind.CP, [1, 2, 3])
        s = [r.s_spectral for r in reports]
        assert s[0] > s[1] > s[2]

    def test_pdd1_equals_cp1(self):
        r_pdd = self.run(SequenceKind.PDD, [1])[0]
        r_cp = self.run(SequenceKind.CP, [1])[0]
        assert r_pdd.fit.slope == r_cp.fit.slope
        assert r_pdd.s_spectral == r_cp.s_spectral

    def test_report_chain_consistency(self):
        r = self.run(SequenceKind.CP, [2])[0]
        assert r.b_min == pytest.approx(
            r.phase_resolution / abs(r.fit.slope), rel=1e-12)
        assert r.s_spectral == pytest.approx(
            r.b_min * math.sqrt(r.t_meas), rel=1e-12)
        assert r.s_concentration == pytest.approx(
            r.s_spectral / math.sqrt(self.SAMPLE.spin_density * 1e-18),
            rel=1e-12)

    def test_unknown_protocol_rejected(self):
        with pytest.raises(ConfigError):
            self.run(SequenceKind.HAHN, [1])
        for name in ("hahn", "bogus"):
            with pytest.raises(ConfigError):
                self.run(name, [1])

    def test_protocol_value_equals_member(self):
        got, want = self.run("pdd", [2])[0], self.run(SequenceKind.PDD, [2])[0]
        assert got == want
        assert got.protocol == "pdd"

    def test_too_few_amplitudes_rejected(self):
        with pytest.raises(ConfigError):
            dd_sensitivity_sweep(
                SequenceKind.CP, [1], 1.7e-6, self.SYS, self.CAL,
                self.SAMPLE, [0.0, 1e-4], self.ENS, 80e-9, 160e-9)

    @pytest.mark.parametrize("amps", [np.linspace(0.5e-3, 0, 41),
                                      [0.0, 2e-4, 1e-4], [0.0, 1e-4, 1e-4]])
    def test_non_increasing_amplitudes_rejected_unsimulated(
            self, monkeypatch, amps):
        calls = []
        monkeypatch.setattr(blochsim, "echo_points",
                            lambda *a: calls.append(a))
        with pytest.raises(ConfigError, match="strictly increasing"):
            dd_sensitivity_sweep(
                SequenceKind.CP, [5, 4], 1.7e-6, self.SYS, self.CAL,
                self.SAMPLE, amps, self.ENS, 80e-9, 160e-9)
        assert calls == []

    def test_overflow_is_numerical_error(self):
        # 1e302 T overflows the RF coupling; numpy's warning about it is an
        # error under this suite's filterwarnings, and must not escape
        with pytest.raises(NumericalError, match="non-finite.*overflow"):
            dd_sensitivity_sweep(
                SequenceKind.CP, [1], 1.7e-6, self.SYS, self.CAL,
                self.SAMPLE, [0.0, 1e302, 2e302], self.ENS, 80e-9, 160e-9)
