"""Accumulated echo phase: gamma_eff * integral of sign-filtered RF field.

phi = gamma(g) * eta * sum_k s_k * int_{I_k} B(t) dt over the
constant-sign intervals I_k of the sequence filter.  The production path
evaluates each sinusoidal piece in closed form, all intervals in one walk
over the RF windows (`RFWaveform.integrals`), so its cost is linear in
the pulse and window counts; an adaptive-quadrature twin of the same
integral serves as the independent oracle in tests.

The oracle, `accumulate_phase_quadrature`, needs numpy only.  It samples
sign(t)*B(t) itself, never the closed form: an adaptive Gauss-Legendre
rule bisects each smooth piece, taking G32 as the value and |G32 - G16|
as the error estimate; each round evaluates the open subintervals of
all pieces in one vectorized call.  A piece that does not converge raises
`NumericalError`.  The tests pin the oracle to QUADPACK's adaptive
Gauss-Kronrod rule (scipy's `quad`) on seeded designs.

Neither the filter-domain check nor the signs depend on the amplitude,
so both are folded into one checked, signed walk: `_signed_walk(shape,
edges)` checks the waveform's windows against the filter domain, takes
the unit-amplitude walk `rf._unit_walk` of the record over the edges and
negates every odd interval.  It keeps the result on the waveform's
checked shape record: the record's `walk` slot holds one immutable
(edges, signed walk) pair, rebound in one assignment.
`accumulate_phase` reuses the pair, hashing nothing, when the filter's
edges are the very tuple it holds, and calls `_signed_walk` otherwise.
The per-amplitude waveforms of a synchronized sweep share one record,
through `rf.build_synchronized`'s last-call record, and a sweep's fields
share one filter, so such a sweep checks, signs and walks each shape
once, and `accumulate_phase` forms each interval's phase as gamma_eff *
(amplitude * signed unit integral).  IEEE products are exactly
sign-symmetric, so that is the float that sign * gamma_eff * (amplitude
* unit integral) gave, signed zeros included.  A failed check fills no
slot: a window outside the domain raises on every call.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .core import CoilCalibration, ConfigError, NumericalError, SpinSystem
from .rf import RFWaveform, _unit_walk, build_split_interval
from .sequence import FilterFunction

#: slack for windows touching the filter-domain edge (pure rounding)
_EDGE_EPS = 1e-12

#: relative tolerance of the quadrature oracle, and its bisection budget
#: per piece
_REL_TOL = 1e-12
_MAX_BISECTIONS = 200


@dataclass(frozen=True)
class PhaseAccumulation:
    """Signed accumulated phase and its per-interval breakdown [rad]."""

    phi: float
    per_interval: tuple[float, ...]


def _check_domain(windows, domain_end: float) -> None:
    """Ordered RF windows must lie inside the filter domain [0, domain_end]."""
    if not windows:
        return
    lo = windows[0][0]
    hi = windows[-1][1]
    slack = _EDGE_EPS * max(1.0, abs(domain_end))
    if lo < -slack or hi > domain_end + slack:
        raise ConfigError(
            f"RF windows [{lo:.3e}, {hi:.3e}] exceed the filter domain "
            f"[0, {domain_end:.3e}]")


def _signed_walk(shape, edges) -> tuple[float, ...]:
    """The unit-amplitude walk of `shape` over the filter `edges`, checked
    against the filter domain [0, edges[-1]], with every odd interval
    negated: the sign starts at +1 and toggles at every breakpoint.  The
    record's `walk` slot keeps it with its edges."""
    _check_domain(shape.windows, edges[-1])
    signed = tuple([-u if k % 2 else u
                    for k, u in enumerate(_unit_walk(shape, edges))])
    shape.walk = (edges, signed)
    return signed


def accumulate_phase(sys: SpinSystem, cal: CoilCalibration,
                     filt: FilterFunction, wave: RFWaveform) -> PhaseAccumulation:
    """Closed-form signed phase accumulated over the whole sequence."""
    gamma_eff = sys.gamma * cal.coupling_eta
    amp = wave.amplitude
    shape = wave._shape
    edges = filt.edges
    held_edges, signed = shape.walk
    if held_edges is not edges:
        signed = _signed_walk(shape, edges)
    per = tuple([gamma_eff * (amp * s) for s in signed])
    phi = sum(per)
    if phi - phi != 0:  # inf - inf and nan - nan are nan
        raise ConfigError(f"the phase at RF amplitude {amp:.6g} T is {phi}")
    # the fields a construction would set, without its frozen-setattr calls
    acc = object.__new__(PhaseAccumulation)
    fields = acc.__dict__
    fields["phi"] = phi
    fields["per_interval"] = per
    return acc


@lru_cache(maxsize=1)
def _gauss_pair():
    """The 32- and 16-point Gauss-Legendre rules on [-1, 1] as one node
    vector (the 32 nodes, then the 16) with the weights of G32 and of
    G32 - G16 on it, as numpy arrays.  Built on first use, so that
    `import echosense` loads neither numpy nor numpy.polynomial.  The
    arrays are read-only: every call shares them."""
    import numpy as np
    from numpy.polynomial.legendre import leggauss

    (x32, w32), (x16, w16) = leggauss(32), leggauss(16)
    high = np.concatenate((w32, np.zeros(16)))
    rule = (np.concatenate((x32, x16)), high,
            high - np.concatenate((np.zeros(32), w16)))
    for a in rule:
        a.flags.writeable = False
    return rule


def accumulate_phase_quadrature(sys: SpinSystem, cal: CoilCalibration,
                                filt: FilterFunction, wave: RFWaveform,
                                abs_tol: float = 1e-12) -> float:
    """Adaptive-quadrature evaluation of the same phase integral (oracle).

    Integrates sign(t)*B(t) piecewise between every filter breakpoint and
    window edge so each piece is smooth.  All open subintervals of all
    pieces are evaluated at once with the 32-point Gauss-Legendre rule,
    and |G32 - G16| estimates each one's error.  A subinterval is done
    when that estimate is within abs_tol times its share of the piece's
    width or within _REL_TOL of its integral; the others are bisected.
    A piece that takes more than _MAX_BISECTIONS bisections raises
    NumericalError.
    """
    import numpy as np

    _check_domain(wave.windows, filt.domain_end)
    gamma_eff = sys.gamma * cal.coupling_eta
    edges = {0.0, filt.domain_end}
    edges.update(filt.breakpoints)
    for a, b in wave.windows:
        edges.update((a, b))
    cuts = np.array(sorted(e for e in edges
                           if -_EDGE_EPS <= e <= filt.domain_end + _EDGE_EPS))
    keep = np.diff(cuts) > 0
    starts, ends = cuts[:-1][keep], cuts[1:][keep]

    nodes, w_high, w_diff = _gauss_pair()
    n_pieces = len(starts)
    totals = np.zeros(n_pieces)
    bisections = np.zeros(n_pieces, dtype=int)
    # the open subintervals: owning piece, midpoint and half-width
    owner = np.arange(n_pieces)
    width = ends - starts
    mid, half = (starts + ends) / 2, width / 2
    while owner.size:
        t = mid[:, None] + half[:, None] * nodes
        f = filt.sign(t) * wave.sample(t)
        val = half * (f @ w_high)
        err = np.abs(half * (f @ w_diff))
        share = 2 * half / width[owner]
        done = err <= np.maximum(abs_tol * share, _REL_TOL * np.abs(val))
        totals += np.bincount(owner[done], val[done], minlength=n_pieces)
        owner, mid, half = owner[~done], mid[~done], half[~done] / 2
        bisections += np.bincount(owner, minlength=n_pieces)
        if bisections.max() > _MAX_BISECTIONS:
            k = bisections.argmax()
            raise NumericalError(
                f"quadrature oracle did not converge on the piece "
                f"[{starts[k]:.9e}, {ends[k]:.9e}] in {_MAX_BISECTIONS} "
                f"bisections")
        owner = np.concatenate((owner, owner))
        mid, half = np.concatenate((mid - half, mid + half)), np.tile(half, 2)
    return gamma_eff * sum(totals.tolist())


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
