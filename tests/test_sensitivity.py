"""Transduction fitting and the sensitivity arithmetic chain."""

import json
import math
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from echosense import (CoilCalibration, ConfigError, EnsembleConfig,
                       FitMethod, NumericalError, SampleSpec,
                       SensitivityReport, SpinSystem, TransductionFit,
                       blochsim, concentration_sensitivity, harness,
                       dd_sensitivity_sweep, dipole_field, fit_transduction,
                       minimum_detectable_field, spectral_sensitivity)
from echosense.cli import main
from echosense.core import MU_B
from echosense.sensitivity import RESIDUAL_THRESHOLD_DEG, build_report
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

    def test_auto_switches_to_max_derivative_when_nonlinear(self):
        # saturating curve: linear fit residual blows past the threshold
        b = np.linspace(0, 1e-3, 21)
        phi = 80.0 * np.sin(b / 1e-3 * math.pi / 2)  # degrees, saturating
        fit = fit_transduction(list(zip(b, phi)))
        assert fit.method is FitMethod.MAX_DERIVATIVE
        # steepest slope is at the origin: 80 * (pi/2) / 1e-3 deg/T
        assert fit.slope == pytest.approx(80 * math.pi / 2 / 1e-3, rel=0.05)

    def test_forced_linear_keeps_regression(self):
        # the residual of this saturating curve is far above the default
        # threshold; an infinite threshold keeps the line anyway
        b = np.linspace(0, 1e-3, 21)
        phi = 80.0 * np.sin(b / 1e-3 * math.pi / 2)
        fit = fit_transduction(list(zip(b, phi)),
                               residual_threshold=math.inf)
        assert fit.method is FitMethod.LINEAR_REGRESSION
        assert fit.residual_rms > 2.0
        assert fit.slope == pytest.approx(np.polyfit(b, phi, 1)[0],
                                          rel=1e-12)

    def test_forced_linear_with_default_threshold(self):
        # a gentler saturating curve: its residual is well above zero but
        # under the default threshold, so the default keeps the line
        b = np.linspace(0, 1e-3, 21)
        phi = 20.0 * np.sin(b / 1e-3 * math.pi / 2)
        fit = fit_transduction(list(zip(b, phi)))
        assert fit.method is FitMethod.LINEAR_REGRESSION
        assert 1.0 < fit.residual_rms < RESIDUAL_THRESHOLD_DEG
        assert fit.slope == pytest.approx(np.polyfit(b, phi, 1)[0],
                                          rel=1e-12)
        assert fit == fit_transduction(list(zip(b, phi)),
                                       RESIDUAL_THRESHOLD_DEG)

    def test_forced_max_derivative_on_linear_data(self):
        # no residual is below a zero threshold
        fit = fit_transduction(linear_points(1.527e7),
                               residual_threshold=0.0)
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
            # the default threshold may fall back to max-derivative on
            # random data
            fit = fit_transduction(list(zip(b, phi)),
                                   residual_threshold=math.inf)
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

    #: residual thresholds: the default, one that always keeps the line,
    #: one that always takes the steepest slope, and a finite large one
    THRESHOLDS = [(), (math.inf,), (0.0,), (1e9,)]

    @pytest.mark.parametrize("seed", range(40))
    def test_seeded_point_sets(self, seed):
        branches = set()
        for name, points in _fit_cases(seed):
            for args in self.THRESHOLDS:
                want = _fit_outcome(fit_oracle.fit_transduction, points, *args)
                got = _fit_outcome(fit_transduction, points, *args)
                assert got == want, (name, args)

    def test_every_branch_is_reached(self):
        # the default-threshold fits of the seeded sets reach both methods
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
    # the default threshold chooses by the residual; inf always keeps the
    # line and 0 always takes the steepest slope
    @pytest.mark.parametrize("threshold", [RESIDUAL_THRESHOLD_DEG, math.inf,
                                           0.0],
                             ids=["auto", "linear-regression",
                                  "max-derivative"])
    def test_overflow_is_config_error(self, points, label, threshold):
        # finite phases whose least-squares sums or finite differences
        # overflow: rejected before a bare OverflowError or a numpy warning
        # (an error under this suite's filterwarnings) can escape
        if label == "steepest" and threshold == math.inf:
            label = "fit"  # the forced line never takes differences
        want = _fit_outcome(fit_oracle.fit_transduction, points, threshold)
        assert _fit_outcome(fit_transduction, points, threshold) == want
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

    @pytest.mark.parametrize("slope, resolution, t_meas, density, match", [
        (1.46e5, 5e-324, 0.375, 2.3e25,
         r"phase resolution 4\.94e-324 deg / \|slope\| 1\.46e\+05 deg/T "
         "underflows to 0"),
        (1e-3, 1e308, 0.375, 2.3e25,
         r"phase resolution 1e\+308 deg / \|slope\| 0\.001 deg/T is inf"),
        (1.46e5, 1e308, 1e308, 2.3e25,
         r"b_min 6\.85e\+302 T \* sqrt\(t_meas 1e\+308 s\) is inf"),
        (1e200, 1.0, 5e-324, 2.3e25,
         r"b_min 1e-200 T \* sqrt\(t_meas 4\.94e-324 s\) underflows to 0"),
        (1.0, 1e300, 1.0, 1e-290,
         r"s_spectral 1e\+300 T/sqrt\(Hz\) / sqrt\(1e-308 um\^-3\) is inf")],
        ids=["b_min-0", "b_min-inf", "s_spectral-inf", "s_spectral-0",
             "s_concentration-inf"])
    def test_report_rejects_zero_and_infinite_figures(
            self, slope, resolution, t_meas, density, match):
        fit = TransductionFit(slope, 0.0, 0.0, FitMethod.LINEAR_REGRESSION,
                              (0.0, 1e-3))
        sample = SampleSpec(spin_density=density, sensing_volume=1.0)
        with pytest.raises(ConfigError, match=match):
            build_report(fit, resolution, t_meas, sample)

    @pytest.mark.parametrize("density", [0.0, -1.0, math.nan, 1e-309])
    def test_concentration_sensitivity_invalid_density(self, density):
        # 1e-309 spins/m^3 is positive, but underflows to 0 per um^3
        with pytest.raises(ConfigError, match="density must be > 0 per um"):
            concentration_sensitivity(6.0e-6, density)

    def test_dipole_field_single_moment(self):
        # mu0/(4 pi) * mu_B / (5 nm)^3 ~ 7.4e-6 T
        assert dipole_field(MU_B, 5e-9) == pytest.approx(7.42e-6, rel=0.01)

    def test_dipole_inverse_cube(self):
        assert dipole_field(MU_B, 10e-9) == pytest.approx(
            dipole_field(MU_B, 5e-9) / 8, rel=1e-12)

    def test_dipole_invalid_distance(self):
        with pytest.raises(ConfigError):
            dipole_field(MU_B, 0.0)

    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(st.sampled_from(("b_min", "spectral", "concentration", "dipole")),
           st.floats(), st.floats())
    @example("b_min", 1.46e5, math.nan)
    @example("concentration", -1.0, 1e25)
    @example("dipole", 1.0, 5e-324)
    @example("dipole", 1.0, 1e308)
    def test_exception_contract(self, helper, x, y):
        # any floats give a finite positive figure, or raise a ConfigError;
        # b_min's x is the fit's slope
        fit = TransductionFit(x, 0.0, 0.0, FitMethod.LINEAR_REGRESSION,
                              (0.0, 1e-3))
        call = {"b_min": lambda: minimum_detectable_field(fit, y),
                "spectral": lambda: spectral_sensitivity(x, y),
                "concentration": lambda: concentration_sensitivity(x, y),
                "dipole": lambda: dipole_field(x, y)}[helper]
        try:
            value = call()
        except ConfigError:
            return
        assert 0 < value < math.inf


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

    def test_fit_failure_on_simulated_phases_is_numerical_error(self):
        # bundled fig3's PDD(4) phases jump by more than 90 deg at one
        # field: the simulation, not the input, defeats the fit, as in
        # the sensitivity command
        cfg = harness.bundled_config("fig3")
        ms = cfg.measurement
        with pytest.raises(NumericalError, match=r"pdd\(4\).*wrapped-phase"):
            dd_sensitivity_sweep(
                "pdd", [4], cfg.dd_taus[0], cfg.spin_system, cfg.calibration,
                cfg.sample, cfg.dd_amplitudes, cfg.ensemble, 80e-9, 160e-9,
                ms["phase_resolution_deg"], ms["t_meas_s"], cfg.dd_reset_mode,
                cfg.pulse_mode, cfg.trace_points)

    @pytest.mark.parametrize("figure, protocol, n_pi, unrefocused", [
        ("fig3", "pdd", 4, True), ("fig2", "cp", 3, False)])
    def test_fit_failure_says_whether_the_train_is_unrefocused(
            self, figure, protocol, n_pi, unrefocused):
        # both fits fail on the simulated phases; PDD(4)'s pi pulses at
        # tau .. 4 tau leave tau unrefocused before the echo at 5 tau, so
        # its zero-field reference is predicted at exp(-(sigma tau)^2 / 2),
        # while CP(3) refocuses (net free time 0) and gets no note
        cfg = harness.bundled_config(figure)
        ms, tau, ens = cfg.measurement, cfg.dd_taus[0], cfg.ensemble
        with pytest.raises(NumericalError) as err:
            dd_sensitivity_sweep(
                protocol, [n_pi], tau, cfg.spin_system, cfg.calibration,
                cfg.sample, cfg.dd_amplitudes, ens, 80e-9, 160e-9,
                ms["phase_resolution_deg"], ms["t_meas_s"], cfg.dd_reset_mode,
                cfg.pulse_mode, cfg.trace_points)
        msg = str(err.value)
        assert f"{protocol}({n_pi})" in msg
        if not unrefocused:
            assert "unrefocused" not in msg
            return
        reference = math.exp(-(ens.detuning_sigma * tau) ** 2 / 2)
        assert (f"the train is unrefocused, with a net free time of "
                f"{tau:.3g} s: its predicted zero-field reference "
                f"exp(-(sigma_Delta * t_net)^2 / 2) = {reference:.3g}, "
                f"against 1/sqrt(P) = {ens.n_packets ** -0.5:.3g}") in msg

    def test_report_failure_is_numerical_error_without_a_note(self):
        # PDD(2) leaves tau unrefocused, but its fit holds: the underflow
        # of b_min, not the train, is what fails
        with pytest.raises(NumericalError) as err:
            dd_sensitivity_sweep(
                SequenceKind.PDD, [2], 1.7e-6, self.SYS, self.CAL,
                self.SAMPLE, self.AMPS, self.ENS, 80e-9, 160e-9, 5e-324)
        msg = str(err.value)
        assert "pdd(2)" in msg and "underflows to 0" in msg
        assert "unrefocused" not in msg

    def test_cli_report_overflow_exits_3_without_csv(self, tmp_path, capsys):
        # fig5's PDD(1) report with inputs whose s_spectral overflows;
        # `validate` may pass them, and the run fails before writing
        fig5 = tmp_path / "fig5.json"
        fig5.write_text(json.dumps(harness.bundled_config("fig5").raw))
        argv = ["sensitivity", "-c", str(fig5), "--set", "dd.n_pi_list=[1]"]
        assert main([*argv, "-o", str(tmp_path / "ok")]) == 0
        capsys.readouterr()
        assert main([*argv, "-o", str(tmp_path / "out"),
                     "--set", "measurement.phase_resolution_deg=1e308",
                     "--set", "measurement.t_meas_s=1e308"]) == 3
        assert "sqrt(t_meas 1e+308 s) is inf" in capsys.readouterr().err
        assert list(tmp_path.glob("out/**/*.csv")) == []

    @pytest.mark.parametrize("amps, kwargs", [
        ([0.0, 1e-200, 2e-200], {}),  # increasing, no centred spread
        ([0.0, 1e-4, 2e-4], {"phase_resolution": 0.0}),
        ([0.0, 1e-4, 2e-4], {"t_meas": math.inf}),
        # centred sums of squares that overflow, as `validate` rejects a
        # config's grid; the overflow of a simulation itself stays a
        # NumericalError (test_blochsim's overflow tests)
        ([0.0, 1e302, 2e302], {}),
        ([0.0, 1e160, 2e160], {}),
        # a finite spread, but a CP(1) closed-form phase that float
        # spacing cannot resolve
        ([0.0, 1e100, 2e100], {})])
    def test_bad_input_is_config_error_unsimulated(self, monkeypatch, amps,
                                                   kwargs):
        calls = []
        monkeypatch.setattr(blochsim, "echo_points",
                            lambda *a: calls.append(a))
        with pytest.raises(ConfigError):
            dd_sensitivity_sweep(
                SequenceKind.CP, [1], 1.7e-6, self.SYS, self.CAL,
                self.SAMPLE, amps, self.ENS, 80e-9, 160e-9, **kwargs)
        assert calls == []

    #: amplitudes (T): the bundled range, and edge values
    AMPLITUDE = st.one_of(
        st.floats(0.0, 1e-3),
        st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
        st.sampled_from([0.0, -0.0, -1e-4, 5e-324, 1e160, math.nan,
                         math.inf, -math.inf]))
    #: factors that take a sorted grid in the bundled range (up to 0.4
    #: mT) to every check: unresolved closed forms (1e10, 1e100), centred
    #: sums that overflow (1e160, 1e302) or underflow (1e-200, 5e-324),
    #: negative and non-finite fields
    SCALE = st.sampled_from([1.0, 1e5, 1e10, 1e100, 1e160, 1e302, 1e-200,
                             5e-324, -1.0, math.inf, math.nan])
    #: phase resolutions (deg) and measurement times (s) at their edges
    POSITIVE = st.sampled_from([0.0, -1.0, 5e-324, 1e-300, 1.0, 1e300,
                                math.inf, -math.inf, math.nan])

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(amps=st.one_of(
               st.builds(lambda grid, k: [4e-6 * a * k for a in grid],
                         st.lists(st.integers(0, 100), min_size=3,
                                  max_size=6, unique=True).map(sorted),
                         SCALE),
               st.lists(AMPLITUDE, min_size=2, max_size=6)),  # ties, unsorted
           resolution=st.one_of(POSITIVE, st.floats(0.01, 10.0)),
           t_meas=st.one_of(POSITIVE, st.floats(0.01, 10.0)),
           packets=st.integers(20, 40),
           protocol=st.sampled_from(["pdd", "cp"]),
           n_pi_list=st.sampled_from([[1], [2], [3, 1]]))
    def test_every_input_ends_in_reports_or_a_contract_error(
            self, amps, resolution, t_meas, packets, protocol, n_pi_list):
        # the suite turns every warning into an error, so no numpy
        # warning may escape either
        calls = []
        echo_points = blochsim.echo_points

        def spy(*args):
            calls.append(args)
            return echo_points(*args)

        with mock.patch.object(blochsim, "echo_points", spy):
            try:
                reports = dd_sensitivity_sweep(
                    protocol, n_pi_list, 1.7e-6, self.SYS, self.CAL,
                    self.SAMPLE, amps, replace(self.ENS, n_packets=packets),
                    80e-9, 160e-9, resolution, t_meas)
            except ConfigError:
                assert calls == []
                return
            except NumericalError:
                return
        assert [(r.protocol, r.n_pi) for r in reports] == [
            (protocol, n) for n in n_pi_list]
        assert all(isinstance(r, SensitivityReport) for r in reports)
