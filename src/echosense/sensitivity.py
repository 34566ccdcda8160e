"""Metrology chain: transduction slope -> minimum field -> sensitivities.

Slope detection: the transduction coefficient d(phase)/d(B_RF) converts
the instrument's phase resolution into a minimum detectable field, which
normalizes to spectral sensitivity B_min*sqrt(t_meas) [T/sqrt(Hz)] and,
divided by sqrt(spin density), to concentration sensitivity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .core import (MU0_OVER_4PI, CoilCalibration, ConfigError, SampleSpec,
                   SpinSystem)
from .rf import ResetMode, build_synchronized
from .sequence import SequenceKind, build_cp, build_pdd

#: linear fit residual (deg) above which the max-derivative estimate is used
RESIDUAL_THRESHOLD_DEG = 2.0


class FitMethod(str, Enum):
    LINEAR_REGRESSION = "linear-regression"
    MAX_DERIVATIVE = "max-derivative"
    AUTO = "auto"


@dataclass(frozen=True)
class TransductionFit:
    slope: float          # degrees / T
    intercept: float      # degrees
    residual_rms: float   # degrees
    method: FitMethod
    b_range: tuple[float, float]


@dataclass(frozen=True)
class SensitivityReport:
    b_min: float            # T
    s_spectral: float       # T / sqrt(Hz)
    s_concentration: float  # T um^{3/2} / sqrt(Hz)
    phase_resolution: float  # degrees
    t_meas: float           # s
    spin_count: float
    sample: SampleSpec
    fit: TransductionFit
    protocol: str = ""
    n_pi: int = 0
    tau: float = 0.0


def fit_transduction(points, method: FitMethod = FitMethod.AUTO,
                     residual_threshold: float = RESIDUAL_THRESHOLD_DEG,
                     ) -> TransductionFit:
    """Fit phase [deg] vs field [T] points to a transduction slope.

    LinearRegression is kept only when its residual rms stays under the
    threshold; otherwise the maximum of the centered finite differences
    is reported (nonlinear regime).  Input phases must already be
    unwrapped; a wrap flyback (a jump > 90 deg running against the
    overall trend) is rejected.
    """
    pts = list(points)
    if len(pts) < 3:
        raise ConfigError("fit_transduction needs at least 3 points")
    b = np.asarray([p[0] for p in pts], dtype=float)
    phi = np.asarray([p[1] for p in pts], dtype=float)
    if np.any(np.diff(b) <= 0):
        raise ConfigError("field values must be strictly increasing")
    # Data wrapped to (-90, 90] shows up as a sawtooth: large flybacks
    # running against the trend.  A steep but genuinely unwrapped line has
    # every jump along the trend, so only counter-trend jumps are rejected.
    jumps = np.diff(phi)
    trend = np.sign(np.median(jumps)) or 1.0
    if np.any((np.sign(jumps) == -trend) & (np.abs(jumps) > 90.0)):
        raise ConfigError("wrapped-phase discontinuity detected: "
                          "unwrap the phases before fitting")
    b_range = (float(b[0]), float(b[-1]))

    slope_lin, intercept = np.polyfit(b, phi, 1)
    resid = phi - (slope_lin * b + intercept)
    rms = float(np.sqrt(np.mean(resid ** 2)))

    use_linear = (method is FitMethod.LINEAR_REGRESSION
                  or method is FitMethod.AUTO) and rms < residual_threshold
    if use_linear:
        return TransductionFit(float(slope_lin), float(intercept), rms,
                               FitMethod.LINEAR_REGRESSION, b_range)
    grad = np.gradient(phi, b)
    k = int(np.argmax(np.abs(grad)))
    return TransductionFit(float(grad[k]), float(phi[k] - grad[k] * b[k]), rms,
                           FitMethod.MAX_DERIVATIVE, b_range)


def minimum_detectable_field(fit: TransductionFit,
                             phase_resolution: float) -> float:
    """Smallest resolvable field change: resolution / |slope|."""
    if fit.slope == 0:
        raise ConfigError("zero transduction slope: field not detectable")
    return phase_resolution / abs(fit.slope)


def spectral_sensitivity(b_min: float, t_meas: float) -> float:
    """b_min normalized to unit bandwidth: b_min * sqrt(t_meas)."""
    if not (b_min > 0 and t_meas > 0):
        raise ConfigError("b_min and t_meas must be positive")
    return b_min * math.sqrt(t_meas)


def concentration_sensitivity(s: float, density: float) -> float:
    """s / sqrt(density in um^-3), density given in spins/m^3."""
    if not density > 0:
        raise ConfigError("density must be positive")
    return s / math.sqrt(density * 1e-18)


def dipole_field(moment: float, distance: float) -> float:
    """Equatorial point-dipole field magnitude mu0/(4 pi) * m / r^3."""
    if not distance > 0:
        raise ConfigError(f"distance must be positive, got {distance}")
    return MU0_OVER_4PI * moment / distance ** 3


def build_report(fit: TransductionFit, phase_resolution: float, t_meas: float,
                 sample: SampleSpec, protocol: str = "", n_pi: int = 0,
                 tau: float = 0.0) -> SensitivityReport:
    b_min = minimum_detectable_field(fit, phase_resolution)
    s = spectral_sensitivity(b_min, t_meas)
    s_vol = concentration_sensitivity(s, sample.spin_density)
    return SensitivityReport(b_min, s, s_vol, phase_resolution, t_meas,
                             sample.active_spin_count, sample, fit,
                             protocol, n_pi, tau)


def dd_sensitivity_sweep(protocol: SequenceKind, n_pi_list, tau: float,
                         sys: SpinSystem, cal: CoilCalibration,
                         sample: SampleSpec, amplitudes, ens_base,
                         t_pi2: float, t_pi: float,
                         phase_resolution: float = 1.0, t_meas: float = 0.375,
                         reset_mode: ResetMode = ResetMode.PER_WINDOW_RESET,
                         mode=None) -> list[SensitivityReport]:
    """Simulated amplitude sweep -> transduction fit -> report, per pulse count.

    Per-point seeds derive from (base seed, n_pi, grid index) so PDD and
    CP runs of the same n_pi share identical ensembles.
    """
    from dataclasses import replace

    from . import blochsim
    from .echo import from_complex

    if mode is None:
        mode = blochsim.PulseMode.IDEAL
    build = {SequenceKind.PDD: build_pdd, SequenceKind.CP: build_cp}
    if protocol not in build:
        raise ConfigError(f"protocol must be PDD or CP, got {protocol}")
    amplitudes = np.asarray(list(amplitudes), dtype=float)
    if len(amplitudes) < 3:
        raise ConfigError("need at least 3 amplitude grid points")

    reports = []
    for n_pi in n_pi_list:
        seq = build[protocol](n_pi, tau, t_pi2, t_pi)
        args = []
        for idx, amp in enumerate(amplitudes):
            seed = int(np.random.SeedSequence(
                (ens_base.seed, int(n_pi), idx)).generate_state(1)[0])
            ens = replace(ens_base, seed=seed)
            wave = build_synchronized(seq, float(amp), n=1, phase=0.0,
                                      reset_mode=reset_mode)
            ref = blochsim.evolve(sys, seq, None, ens, mode, cal)
            tr = blochsim.evolve(sys, seq, wave, ens, mode, cal)
            args.append(np.angle(
                blochsim.echo_observable(tr, ref)))
        phases_deg = np.degrees(np.unwrap(np.asarray(args)))
        points = list(zip(amplitudes, phases_deg))
        fit = fit_transduction(points)
        reports.append(build_report(fit, phase_resolution, t_meas, sample,
                                    protocol.value, int(n_pi), tau))
    return reports


def reports_to_rows(reports) -> list[dict]:
    """Flatten reports for CSV serialization, one row per (protocol, n_pi, tau)."""
    rows = []
    for r in reports:
        rows.append({
            "protocol": r.protocol,
            "n_pi": r.n_pi,
            "tau_s": r.tau,
            "b_min_t": r.b_min,
            "s_spectral_t_sqrthz": r.s_spectral,
            "s_concentration": r.s_concentration,
            "phase_resolution_deg": r.phase_resolution,
            "t_meas_s": r.t_meas,
            "spin_count": r.spin_count,
            "slope_deg_per_t": r.fit.slope,
            "fit_method": r.fit.method.value,
            "fit_residual_rms_deg": r.fit.residual_rms,
        })
    return rows
