"""Echo observables as the instrument reports them.

Amplitude normalized to the zero-RF reference, phase wrapped into
(-90, +90] degrees, and a Gaussian quadrature-noise model that links the
echo SNR to the achievable phase resolution.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .core import ConfigError


@dataclass(frozen=True)
class EchoResult:
    amplitude: float
    phase_wrapped: float    # degrees, (-90, +90]
    phase_unwrapped: float  # degrees
    snr: float = math.inf
    n_averages: int = 1

    def __post_init__(self) -> None:
        if self.amplitude < 0:
            raise ConfigError("amplitude must be >= 0")


def wrap_phase(phi: float) -> float:
    """Map a phase in degrees into (-90, +90], congruent mod 180."""
    if not math.isfinite(phi):
        raise ConfigError(f"phase must be finite, got {phi}")
    return 90.0 - ((90.0 - phi) % 180.0)


def from_complex(z: complex, n_averages: int = 1,
                 snr: float = math.inf) -> EchoResult:
    """EchoResult from a (normalized) complex echo observable."""
    phase = math.degrees(cmath.phase(z))
    return EchoResult(abs(z), wrap_phase(phase), phase, snr, n_averages)


def noisy_echo(clean: complex, sigma: float, n_averages: int,
               seed: int = 0) -> tuple[complex, float]:
    """(noisy echo, snr) of a clean echo under averaged Gaussian quadrature
    noise.

    Each quadrature gets independent noise of std sigma/sqrt(n_averages)
    drawn from default_rng(seed); snr = |clean| * sqrt(n_averages) / sigma.
    sigma = 0 returns the clean echo with infinite snr.
    """
    if sigma < 0:
        raise ConfigError("sigma must be >= 0")
    if n_averages < 1:
        raise ConfigError("n_averages must be >= 1")
    if sigma == 0:
        return clean, math.inf
    rng = np.random.default_rng(seed)
    s = sigma / math.sqrt(n_averages)
    noisy = clean + complex(*(s * rng.standard_normal(2)))
    return noisy, abs(clean) * math.sqrt(n_averages) / sigma


def add_measurement_noise(clean: complex, sigma: float, n_averages: int,
                          seed: int = 0) -> EchoResult:
    """EchoResult of a clean echo corrupted as in `noisy_echo`."""
    noisy, snr = noisy_echo(clean, sigma, n_averages, seed)
    return from_complex(noisy, n_averages, snr)
