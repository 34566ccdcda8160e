"""Metrology chain: transduction slope -> minimum field -> sensitivities.

Slope detection: the transduction coefficient d(phase)/d(B_RF) converts
the instrument's phase resolution into a minimum detectable field, which
normalizes to spectral sensitivity B_min*sqrt(t_meas) [T/sqrt(Hz)] and,
divided by sqrt(spin density), to concentration sensitivity.  Each
figure, `dipole_field`'s too, is checked finite and positive: one that
under- or overflows is a ConfigError naming its inputs.  This module
only analyses phases: the sweeps that simulate them, the DD sweep
`dd_sensitivity_sweep` included, live in `experiments`.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

from .core import MU0_OVER_4PI, ConfigError, SampleSpec, _centred, _StrChoice

#: linear fit residual (deg) above which the max-derivative estimate is used
RESIDUAL_THRESHOLD_DEG = 2.0


class FitMethod(_StrChoice):
    LINEAR_REGRESSION = "linear-regression"
    MAX_DERIVATIVE = "max-derivative"


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
    fit: TransductionFit
    protocol: str = ""
    n_pi: int = 0
    tau: float = 0.0


def fit_transduction(points,
                     residual_threshold: float = RESIDUAL_THRESHOLD_DEG,
                     ) -> TransductionFit:
    """Fit phase [deg] vs field [T] points to a transduction slope.

    The least-squares line is kept only when its residual rms stays
    under the threshold; otherwise the maximum of the centered finite
    differences is reported (nonlinear regime).  A threshold of inf
    always keeps the line, and one of 0 always takes the steepest slope.
    Every field and phase must be finite, and the fields strictly
    increasing, with a centred sum of squares that is positive and
    finite in T^2.  Input phases must already be unwrapped; a wrap
    flyback (a jump > 90 deg running against the overall trend) is
    rejected, and so is a line or steepest slope that overflows.
    """
    pts = list(points)
    if len(pts) < 3:
        raise ConfigError("fit_transduction needs at least 3 points")
    # a few dozen points: plain float arithmetic is far cheaper than numpy
    # calls on arrays this small, and needs no BLAS; list and map passes
    # cost less than generators, and each sum adds the same terms in the
    # same order
    try:
        b = [float(p[0]) for p in pts]
        phi = [float(p[1]) for p in pts]
    except (TypeError, ValueError, IndexError):
        for i, p in enumerate(pts):
            try:
                float(p[0]), float(p[1])
            except (TypeError, ValueError, IndexError) as e:
                raise ConfigError(f"point {i} {p!r} is not a (field, phase) "
                                  f"pair of numbers: {e}") from None
        raise
    if not (all(map(math.isfinite, b)) and all(map(math.isfinite, phi))):
        i = next(i for i, pt in enumerate(zip(b, phi))
                 if not all(map(math.isfinite, pt)))
        raise ConfigError(f"point {i} (field {b[i]} T, phase {phi[i]} deg) "
                          "is not finite")
    # for finite floats b1 - b0 > 0 exactly when b0 < b1
    if not all(map(operator.lt, b, b[1:])):
        raise ConfigError("field values must be strictly increasing")
    # Data wrapped to (-90, 90] shows up as a sawtooth: large flybacks
    # running against the trend.  A steep but genuinely unwrapped line has
    # every jump along the trend, so only counter-trend jumps are rejected:
    # the most negative one when the median jump is not negative, else the
    # most positive one.
    ordered = sorted(map(operator.sub, phi[1:], phi))
    mid = len(ordered) // 2
    median = (ordered[mid] if len(ordered) % 2
              else (ordered[mid - 1] + ordered[mid]) / 2)
    if ordered[-1] > 90.0 if median < 0 else ordered[0] < -90.0:
        raise ConfigError("wrapped-phase discontinuity detected: "
                          "unwrap the phases before fitting")
    b_range = (b[0], b[-1])

    # least-squares line in centred form:
    # slope = sum((b - <b>)(phi - <phi>)) / sum((b - <b>)**2)
    n = len(b)
    b_mean, db, sxx = _centred(b)
    if not 0.0 < sxx < math.inf:
        raise ConfigError(f"centred sum of squares of the fields is {sxx} "
                          "T^2, not a positive finite number")
    phi_mean = sum(phi) / n
    slope_lin = sum([d * (y - phi_mean) for d, y in zip(db, phi)]) / sxx
    intercept = phi_mean - slope_lin * b_mean
    try:
        rms = math.sqrt(sum([(y - (slope_lin * x + intercept)) ** 2
                             for x, y in zip(b, phi)]) / n)
    except OverflowError:  # a finite residual whose square overflows
        rms = math.inf
    if not all(map(math.isfinite, (slope_lin, intercept, rms))):
        raise ConfigError(f"least-squares line overflows: slope {slope_lin} "
                          f"deg/T, intercept {intercept} deg, residual rms "
                          f"{rms} deg")

    if rms < residual_threshold:
        return TransductionFit(slope_lin, intercept, rms,
                               FitMethod.LINEAR_REGRESSION, b_range)
    import numpy as np

    with np.errstate(all="ignore"):  # an overflow is rejected below
        grad = np.gradient(phi, b)
    k = int(np.argmax(np.abs(grad)))
    slope = float(grad[k])
    if not math.isfinite(slope):
        raise ConfigError("steepest finite-difference slope overflows: "
                          f"{slope} deg/T")
    return TransductionFit(slope, phi[k] - slope * b[k], rms,
                           FitMethod.MAX_DERIVATIVE, b_range)


def minimum_detectable_field(fit: TransductionFit,
                             phase_resolution: float) -> float:
    """Smallest resolvable field change: resolution / |slope|."""
    if fit.slope == 0:
        raise ConfigError("zero transduction slope: field not detectable")
    return _figure(phase_resolution / abs(fit.slope),
                   "phase resolution {:.3g} deg / |slope| {:.3g} deg/T",
                   phase_resolution, abs(fit.slope))


def spectral_sensitivity(b_min: float, t_meas: float) -> float:
    """b_min normalized to unit bandwidth: b_min * sqrt(t_meas)."""
    if not (b_min > 0 and t_meas > 0):
        raise ConfigError("b_min and t_meas must be positive")
    return _figure(b_min * math.sqrt(t_meas),
                   "b_min {:.3g} T * sqrt(t_meas {:.3g} s)", b_min, t_meas)


def concentration_sensitivity(s: float, density: float) -> float:
    """s / sqrt(density in um^-3), density given in spins/m^3."""
    if not density * 1e-18 > 0:
        raise ConfigError(f"density must be > 0 per um^3, got {density} m^-3")
    return _figure(s / math.sqrt(density * 1e-18),
                   "s_spectral {:.3g} T/sqrt(Hz) / sqrt({:.3g} um^-3)", s,
                   density * 1e-18)


def dipole_field(moment: float, distance: float) -> float:
    """Equatorial point-dipole field magnitude mu0/(4 pi) * m / r^3."""
    if not distance > 0:
        raise ConfigError(f"distance must be positive, got {distance}")
    try:
        b = MU0_OVER_4PI * moment / distance ** 3
    except ZeroDivisionError:  # r^3 underflows to 0
        b = math.inf
    except OverflowError:  # r^3 overflows
        b = 0.0
    return _figure(b, "mu0/(4 pi) * moment {:.3g} A m^2 / (distance {:.3g} "
                   "m)^3", moment, distance)


def _figure(value: float, formula: str, *inputs) -> float:
    """`value`, checked finite and positive; `formula` names its inputs."""
    if not 0 < value < math.inf:
        what = "underflows to 0" if value == 0 else f"is {value}"
        raise ConfigError(f"{formula.format(*inputs)} {what}")
    return value


def build_report(fit: TransductionFit, phase_resolution: float, t_meas: float,
                 sample: SampleSpec, protocol: str = "", n_pi: int = 0,
                 tau: float = 0.0) -> SensitivityReport:
    """The sensitivity chain of `fit`; a figure that under- or overflows
    is a ConfigError naming the inputs it was computed from."""
    b_min = minimum_detectable_field(fit, phase_resolution)
    s = spectral_sensitivity(b_min, t_meas)
    s_vol = concentration_sensitivity(s, sample.spin_density)
    return SensitivityReport(b_min, s, s_vol, phase_resolution, t_meas,
                             sample.active_spin_count, fit, protocol, n_pi,
                             tau)


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
