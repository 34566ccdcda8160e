"""Echo observables as the instrument reports them.

Amplitude normalized to the zero-RF reference, phase wrapped into
(-90, +90] degrees, and a Gaussian quadrature-noise model of an
averaged measurement: each quadrature gets noise of std
sigma/sqrt(n_averages), which sets the phase scatter a sweep shows.
"""

from __future__ import annotations

import math

from .core import ConfigError


def wrap_phase(phi: float) -> float:
    """Map a phase in degrees into (-90, +90], congruent mod 180."""
    if not math.isfinite(phi):
        raise ConfigError(f"phase must be finite, got {phi}")
    return 90.0 - ((90.0 - phi) % 180.0)


def noisy_echo(clean: complex, sigma: float, n_averages: int,
               seed: int = 0) -> complex:
    """The clean echo under averaged Gaussian quadrature noise.

    Each quadrature gets independent noise of std sigma/sqrt(n_averages)
    drawn from default_rng(seed).  sigma = 0 returns the clean echo.
    """
    if sigma < 0:
        raise ConfigError("sigma must be >= 0")
    if n_averages < 1:
        raise ConfigError("n_averages must be >= 1")
    if sigma == 0:
        return clean
    import numpy as np

    rng = np.random.default_rng(seed)
    s = sigma / math.sqrt(n_averages)
    return clean + complex(*(s * rng.standard_normal(2)))
