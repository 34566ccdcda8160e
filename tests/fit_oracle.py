"""Reference transduction fit, kept as a test oracle.

This is the generator-expression form of `sensitivity.fit_transduction`
that the library replaced with list and map passes.  The library must
give the same floats, or raise the same exception with the same message.
"""

import math

import numpy as np

from echosense import ConfigError, FitMethod
from echosense.sensitivity import RESIDUAL_THRESHOLD_DEG, TransductionFit


def fit_transduction(points, method: FitMethod = FitMethod.AUTO,
                     residual_threshold: float = RESIDUAL_THRESHOLD_DEG,
                     ) -> TransductionFit:
    method = FitMethod(method)
    pts = list(points)
    if len(pts) < 3:
        raise ConfigError("fit_transduction needs at least 3 points")
    b = [float(p[0]) for p in pts]
    phi = [float(p[1]) for p in pts]
    if not (all(map(math.isfinite, b)) and all(map(math.isfinite, phi))):
        i = next(i for i, pt in enumerate(zip(b, phi))
                 if not all(map(math.isfinite, pt)))
        raise ConfigError(f"point {i} (field {b[i]} T, phase {phi[i]} deg) "
                          "is not finite")
    if any(b1 - b0 <= 0 for b0, b1 in zip(b, b[1:])):
        raise ConfigError("field values must be strictly increasing")
    jumps = [p1 - p0 for p0, p1 in zip(phi, phi[1:])]
    ordered = sorted(jumps)
    mid = len(ordered) // 2
    median = (ordered[mid] if len(ordered) % 2
              else (ordered[mid - 1] + ordered[mid]) / 2)
    trend = -1.0 if median < 0 else 1.0
    if any(j * trend < 0 and abs(j) > 90.0 for j in jumps):
        raise ConfigError("wrapped-phase discontinuity detected: "
                          "unwrap the phases before fitting")
    b_range = (b[0], b[-1])

    n = len(b)
    b_mean, phi_mean = sum(b) / n, sum(phi) / n
    db = [x - b_mean for x in b]
    sxx = sum(d * d for d in db)
    if not (sxx > 0 and math.isfinite(sxx)):
        raise ConfigError(f"centred sum of squares of the fields is {sxx} "
                          "T^2, not a positive finite number")
    slope_lin = sum(d * (y - phi_mean) for d, y in zip(db, phi)) / sxx
    intercept = phi_mean - slope_lin * b_mean
    rms = math.sqrt(sum((y - (slope_lin * x + intercept)) ** 2
                        for x, y in zip(b, phi)) / n)

    use_linear = (method is FitMethod.LINEAR_REGRESSION
                  or (method is FitMethod.AUTO and rms < residual_threshold))
    if use_linear:
        return TransductionFit(slope_lin, intercept, rms,
                               FitMethod.LINEAR_REGRESSION, b_range)
    grad = np.gradient(phi, b)
    k = int(np.argmax(np.abs(grad)))
    return TransductionFit(float(grad[k]), float(phi[k] - grad[k] * b[k]), rms,
                           FitMethod.MAX_DERIVATIVE, b_range)
