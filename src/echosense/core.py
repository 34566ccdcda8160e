"""Physical constants, the static description of the sensor, and the
simulation settings a config holds (`PulseMode`, `SequenceKind`,
`ResetMode`, `EnsembleConfig`).

Everything in this package is SI internally: tesla, seconds, radians,
meters.  Conversions from bench units (mT, MHz, ns, degrees) happen only
at the CLI / config boundary.  Records hold only what a computation reads;
config values that only document the bench stay in the hashed raw config.
Nothing here loads numpy until an ensemble is drawn.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from enum import Enum

#: Bohr magneton [J/T] (CODATA 2018)
MU_B = 9.2740100783e-24
#: Reduced Planck constant [J*s] (CODATA 2018)
HBAR = 1.054571817e-34
#: mu_0 / 4 pi [T*m/A]
MU0_OVER_4PI = 1e-7
#: relative tolerance of density * volume against the active spin count
#: when a `SampleSpec` gives all three
SAMPLE_REL_TOL = 0.05


class ConfigError(ValueError):
    """Invalid input or configuration (precondition violation)."""


class NumericalError(RuntimeError):
    """Numerical failure during simulation (NaN state, unstable step...)."""


class _StrChoice(str, Enum):
    """String-valued enum whose constructor coerces a member's value to
    the member and raises ConfigError for any other value."""

    @classmethod
    def _missing_(cls, value):
        raise ConfigError(f"unknown {cls.__name__} {value!r}, expected one "
                          f"of {[m.value for m in cls]}")


def _integer(value, name: str, low: int) -> int:
    """`value` as an int >= `low`; ConfigError for a value of any other
    type, such as a float, or below `low`."""
    try:
        n = operator.index(value)
    except TypeError:
        raise ConfigError(f"{name} must be an integer, got {value!r}") from None
    if n < low:
        raise ConfigError(f"{name} must be >= {low}, got {value}")
    return n


def _centred(b: list[float]) -> tuple[float, list[float], float]:
    """(mean, deviations from it, sum of their squares) of the fields b,
    as the least-squares slope takes them."""
    b_mean = sum(b) / len(b)
    db = [x - b_mean for x in b]
    return b_mean, db, sum(map(operator.mul, db, db))


def gyromagnetic_ratio(g: float) -> float:
    """Electron gyromagnetic ratio g*mu_B/hbar in rad s^-1 T^-1.

    Raises ConfigError for non-positive g and for a g so large that the
    ratio overflows.
    """
    gamma = g * MU_B / HBAR
    if not (g > 0 and math.isfinite(gamma)):
        raise ConfigError(f"g-factor must be positive with a finite "
                          f"gyromagnetic ratio, got {g}")
    return gamma


@dataclass(frozen=True)
class SpinSystem:
    """Static sensor parameters of the spin ensemble.

    t_m is the phase-memory time of the echo envelope, modeled as a
    stretched exponential exp(-(t/t_m)**stretch_beta).  Inhomogeneous
    broadening is not a property of the spin system here: the simulated
    detuning spread is the ensemble's (`EnsembleConfig`).
    """

    g: float = 2.00
    t_m: float = 1e-5
    stretch_beta: float = 1.0
    #: g * mu_B / hbar, fixed at construction
    gamma: float = field(init=False, repr=False)

    def __post_init__(self) -> None:
        # validates g > 0
        object.__setattr__(self, "gamma", gyromagnetic_ratio(self.g))
        if not self.t_m > 0:
            raise ConfigError(f"t_m must be positive, got {self.t_m}")
        if not 1.0 <= self.stretch_beta <= 3.0:
            raise ConfigError(
                f"stretch_beta must be in [1, 3], got {self.stretch_beta}")


@dataclass(frozen=True)
class SampleSpec:
    """Sample geometry bookkeeping: density, active spins, sensing volume.

    Any one of the three fields may be omitted (None) and is derived from
    the other two.  If all three are given they must be mutually
    consistent within ``SAMPLE_REL_TOL``.
    """

    spin_density: float | None = None   # spins / m^3
    active_spin_count: float | None = None
    sensing_volume: float | None = None  # m^3

    def __post_init__(self) -> None:
        rho, n, v = self.spin_density, self.active_spin_count, self.sensing_volume
        given = sum(x is not None for x in (rho, n, v))
        if given < 2:
            raise ConfigError(
                "SampleSpec needs at least two of spin_density, "
                "active_spin_count, sensing_volume")
        if rho is None:
            rho = n / v
        elif n is None:
            n = rho * v
        elif v is None:
            v = n / rho
        else:
            if not math.isclose(rho * v, n, rel_tol=SAMPLE_REL_TOL):
                raise ConfigError(
                    f"inconsistent sample spec: density*volume = {rho * v:.3e} "
                    f"vs active_spin_count = {n:.3e}")
        for name, x in (("spin_density", rho), ("active_spin_count", n),
                        ("sensing_volume", v)):
            if not 0 < x < math.inf:
                raise ConfigError(f"{name} must be positive and finite, "
                                  f"got {x}")
        object.__setattr__(self, "spin_density", rho)
        object.__setattr__(self, "active_spin_count", n)
        object.__setattr__(self, "sensing_volume", v)


@dataclass(frozen=True)
class CoilCalibration:
    """RF coil coupling to the spins.

    coupling_eta is the fraction of the nominal coil field effectively
    seen by the spins; 1.0 for ideal-physics tests, a fitted value
    (~6.7e-3) reproduces the measured transduction.
    """

    coupling_eta: float = 1.0

    def __post_init__(self) -> None:
        if not 0 < self.coupling_eta <= 1:
            raise ConfigError(
                f"coupling_eta must be in (0, 1], got {self.coupling_eta}")


class PulseMode(_StrChoice):
    """How `blochsim` models a pulse: an instantaneous rotation at its
    center, or a finite drive across its duration."""

    IDEAL = "ideal"
    FINITE = "finite"


class SequenceKind(_StrChoice):
    HAHN = "hahn"
    PDD = "pdd"
    CP = "cp"


class ResetMode(_StrChoice):
    CONTINUOUS = "continuous"
    PER_WINDOW_RESET = "per-window-reset"


@dataclass(frozen=True)
class EnsembleConfig:
    """Packet count, detuning distribution, RF amplitude spread, RNG seed.

    detuning_sigma = 0 is the Delta (single-packet-class) distribution.
    rf_amplitude_spread is the relative std of the per-packet RF
    amplitude (coil-field inhomogeneity); the drawn factors are clipped
    at zero.  n_packets and seed must be integers.  A sweep draws each
    point from a seed derived from `seed` (`blochsim.point_seed`);
    `blochsim.evolve` draws its one point from `seed` itself.
    """

    n_packets: int = 1
    detuning_sigma: float = 0.0
    rf_amplitude_spread: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        _integer(self.n_packets, "n_packets", 1)
        if not (0 <= self.detuning_sigma < math.inf
                and 0 <= self.rf_amplitude_spread < math.inf):
            raise ConfigError("distribution widths must be finite and >= 0")
        _integer(self.seed, "seed", 0)

    def draw(self, seed: int):
        """(detunings, rf amplitude factors) of one point, numpy arrays of
        n_packets each, drawn from `seed`, an integer >= 0 (ConfigError
        otherwise).  The packets weigh equally, 1/n_packets each.

        Draw order (detunings then factors) is part of the contract.
        """
        import numpy as np

        rng = np.random.default_rng(_integer(seed, "seed", 0))
        det = self.detuning_sigma * rng.standard_normal(self.n_packets)
        fac = 1.0 + self.rf_amplitude_spread * rng.standard_normal(self.n_packets)
        np.clip(fac, 0.0, None, out=fac)
        return det, fac
