"""Accumulated echo phase: gamma_eff * integral of sign-filtered RF field.

phi = gamma(g) * eta * sum_k s_k * int_{I_k} B(t) dt over the
constant-sign intervals I_k of the sequence filter.  The production path
evaluates each sinusoidal piece in closed form, all intervals in one walk
over the RF windows (`RFWaveform.integrals`), so its cost is linear in
the pulse and window counts; an adaptive-quadrature twin of the same
integral serves as the independent oracle in tests.

The walk is memoised in `rf` at unit amplitude, keyed on the waveform's
checked shape record and the filter's edges, in the bounded `_unit_walk`
cache (`rf._CACHE_SIZE` entries).  The per-amplitude waveforms of a
synchronized sweep share their unit waveform's record, so such a sweep
walks each shape once.  `accumulate_phase` reads that unit walk and
forms each interval's phase in one pass as sign * gamma_eff * (amplitude
* unit integral): the products `integrals` and the signed sum always
formed, in the same order, so every phase is the float the unmemoised
walk gave.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import CoilCalibration, ConfigError, SpinSystem
from .rf import RFWaveform, _unit_walk, build_split_interval
from .sequence import FilterFunction

#: slack for windows touching the filter-domain edge (pure rounding)
_EDGE_EPS = 1e-12


@dataclass(frozen=True)
class PhaseAccumulation:
    """Signed accumulated phase and its per-interval breakdown [rad]."""

    phi: float
    per_interval: tuple[float, ...]


def _check_domain(filt: FilterFunction, wave: RFWaveform) -> None:
    if not wave.windows:
        return
    lo = wave.windows[0][0]
    hi = wave.windows[-1][1]
    slack = _EDGE_EPS * max(1.0, abs(filt.domain_end))
    if lo < -slack or hi > filt.domain_end + slack:
        raise ConfigError(
            f"RF windows [{lo:.3e}, {hi:.3e}] exceed the filter domain "
            f"[0, {filt.domain_end:.3e}]")


def accumulate_phase(sys: SpinSystem, cal: CoilCalibration,
                     filt: FilterFunction, wave: RFWaveform) -> PhaseAccumulation:
    """Closed-form signed phase accumulated over the whole sequence."""
    _check_domain(filt, wave)
    gamma_eff = sys.gamma * cal.coupling_eta
    amp = wave.amplitude
    # the sign starts at +1 and toggles at every breakpoint
    signed = (gamma_eff, -gamma_eff)
    per = tuple([signed[k % 2] * (amp * u)
                 for k, u in enumerate(_unit_walk(wave._shape, filt.edges))])
    return PhaseAccumulation(sum(per), per)


def accumulate_phase_quadrature(sys: SpinSystem, cal: CoilCalibration,
                                filt: FilterFunction, wave: RFWaveform,
                                abs_tol: float = 1e-12) -> float:
    """Adaptive-quadrature evaluation of the same phase integral (oracle).

    Integrates sign(t)*B(t) piecewise between every filter breakpoint and
    window edge so each piece is smooth.
    """
    # imported here: scipy.integrate costs most of `import echosense`, and
    # only this oracle needs it
    from scipy.integrate import quad

    _check_domain(filt, wave)
    gamma_eff = sys.gamma * cal.coupling_eta
    edges = {0.0, filt.domain_end}
    edges.update(filt.breakpoints)
    for a, b in wave.windows:
        edges.update((a, b))
    cuts = sorted(e for e in edges if -_EDGE_EPS <= e <= filt.domain_end + _EDGE_EPS)

    def integrand(t: float) -> float:
        return float(filt.sign(t)) * float(wave.sample(t))

    total = 0.0
    for a, b in zip(cuts, cuts[1:]):
        if b - a <= 0:
            continue
        val, _ = quad(integrand, a, b, epsabs=abs_tol, epsrel=1e-12, limit=200)
        total += val
    return gamma_eff * total


def phase_vs_rf_phase(sys: SpinSystem, cal: CoilCalibration,
                      filt: FilterFunction, wave_template: RFWaveform,
                      phi_grid) -> list[tuple[float, float]]:
    """Accumulated phase as a function of the RF phase offset.

    Returns (phi_rf, phi_accumulated) pairs; the template's per-window
    phase structure is rigidly shifted by each grid value.
    """
    grid = list(phi_grid)
    if not grid:
        raise ConfigError("phi_grid must be non-empty")
    out = []
    for phi0 in grid:
        w = wave_template.with_phase(phi0)
        out.append((float(phi0), accumulate_phase(sys, cal, filt, w).phi))
    return out


def split_interval_decomposition(sys: SpinSystem, cal: CoilCalibration,
                                 tau: float, amplitude: float,
                                 phases: tuple[float, float] = (0.0, 0.0),
                                 ) -> tuple[float, float, float]:
    """Phases from the first lobe, second lobe, and both lobes of a
    half-period-gated Hahn waveform.  The two parts tile the full one, so
    phi_first + phi_second == phi_full up to rounding."""
    filt = FilterFunction((tau,), 2 * tau)
    ph1, ph2 = phases

    def phi(first: bool, second: bool) -> float:
        if not (first or second):
            return 0.0
        w = build_split_interval(tau, amplitude, ph1, ph2,
                                 enable_first=first, enable_second=second)
        return accumulate_phase(sys, cal, filt, w).phi

    return phi(True, False), phi(False, True), phi(True, True)
