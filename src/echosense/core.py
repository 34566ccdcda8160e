"""Physical constants and the static description of the sensor.

Everything in this package is SI internally: tesla, seconds, radians,
meters.  Conversions from bench units (mT, MHz, ns, degrees) happen only
at the CLI / config boundary.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from enum import Enum

#: Bohr magneton [J/T] (CODATA 2018)
MU_B = 9.2740100783e-24
#: Reduced Planck constant [J*s] (CODATA 2018)
HBAR = 1.054571817e-34
#: mu_0 / 4 pi [T*m/A]
MU0_OVER_4PI = 1e-7


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
    broadening is a Gaussian detuning distribution of std
    inhomogeneous_sigma (rad/s); unresolved hyperfine structure is folded
    into it.
    """

    g: float = 2.00
    t_m: float = 1e-5
    stretch_beta: float = 1.0
    inhomogeneous_sigma: float = 0.0
    label: str = ""
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
        if not 0 <= self.inhomogeneous_sigma < math.inf:
            raise ConfigError("inhomogeneous_sigma must be finite and >= 0, "
                              f"got {self.inhomogeneous_sigma}")


@dataclass(frozen=True)
class SampleSpec:
    """Sample geometry bookkeeping: density, active spins, sensing volume.

    Any one of the three fields may be omitted (None) and is derived from
    the other two.  If all three are given they must be mutually
    consistent within ``rel_tol``.
    """

    spin_density: float | None = None   # spins / m^3
    active_spin_count: float | None = None
    sensing_volume: float | None = None  # m^3
    rel_tol: float = 0.05

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
            if not math.isclose(rho * v, n, rel_tol=self.rel_tol):
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
    """RF coil calibration: AWG voltage to field, plus effective coupling.

    coupling_eta is the fraction of the nominal coil field effectively
    seen by the spins; 1.0 for ideal-physics tests, a fitted value
    (~6.7e-3) reproduces the measured transduction.
    """

    field_per_volt: float = 7.2e-4  # T/V: 2.5 V -> 1.8 mT
    max_voltage: float = 2.5
    coupling_eta: float = 1.0

    def __post_init__(self) -> None:
        if not self.field_per_volt > 0:
            raise ConfigError("field_per_volt must be positive")
        if not self.max_voltage > 0:
            raise ConfigError("max_voltage must be positive")
        if not 0 < self.coupling_eta <= 1:
            raise ConfigError(
                f"coupling_eta must be in (0, 1], got {self.coupling_eta}")

    def with_eta(self, eta: float) -> "CoilCalibration":
        return replace(self, coupling_eta=eta)


def volts_to_field(cal: CoilCalibration, v: float) -> float:
    """Nominal coil field for an AWG voltage, before coupling_eta."""
    if not 0 <= v <= cal.max_voltage:
        raise ConfigError(
            f"voltage {v} V outside [0, {cal.max_voltage}] V")
    return v * cal.field_per_volt
