"""Microwave pulse sequences (Hahn, PDD, CP) and their sign filters.

Timing convention: the delay grid is defined by pulse *centers*.  The
protocol clock t=0 sits at the center of the initial pi/2 pulse, so the
pi-pulse centers and the echo live at exact multiples of tau regardless
of pulse durations.  Finite durations only matter to the numerical
simulator; absolute lab time starts at the leading edge of the first
pulse (origin = t_pi2/2 before protocol zero).

`Pulse` and `PulseSequence` check every record they are given.
`build_hahn`, `build_pdd` and `build_cp` check their timings once and
fill their pulse and sequence records without re-running those checks:
what they build is the sequence, float for float, that the checked
records would hold, and they reject what those would reject.  A sequence
holds no protocol name, so Hahn, PDD(1) and CP(1) are one equal value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .core import ConfigError, SequenceKind, _integer

PI = math.pi
_new = object.__new__


@dataclass(frozen=True)
class Pulse:
    """One microwave pulse.  start is absolute lab time of the leading edge."""

    start: float
    duration: float
    nominal_angle: float
    axis_phase: float = 0.0

    def __post_init__(self) -> None:
        if not (0 < self.duration < math.inf and 0 <= self.start
                and self.end < math.inf):
            raise ConfigError(f"pulse duration must be finite and > 0, its "
                              f"start >= 0 and its end finite, got {self}")
        if not (math.isfinite(self.nominal_angle)
                and math.isfinite(self.axis_phase)):
            raise ConfigError(f"pulse angle and axis phase must be finite, "
                              f"got {self}")

    @property
    def end(self) -> float:
        return self.start + self.duration

    @property
    def center(self) -> float:
        return self.start + self.duration / 2


@dataclass(frozen=True)
class PulseSequence:
    """Validated, time-ordered pulse train with its echo bookkeeping.

    echo_time is in protocol time (relative to the first pulse center);
    the echo sits tau after the last pi pulse.  origin is the absolute
    time of protocol zero; pi_centers are the refocusing-pulse centers in
    protocol time, strictly increasing.  Both are derived once here (the
    sequence is frozen).
    """

    pulses: tuple[Pulse, ...]
    tau: float
    echo_time: float
    origin: float = field(init=False)
    pi_centers: tuple[float, ...] = field(init=False)

    def __post_init__(self) -> None:
        if len(self.pulses) < 2:
            raise ConfigError("a sequence needs at least pi/2 and pi pulses")
        if not self.tau > 0:
            raise ConfigError("tau must be positive")
        _check_echo_time(self.echo_time)
        for a, b in zip(self.pulses, self.pulses[1:]):
            if b.start < a.end:
                raise ConfigError(
                    f"overlapping pulses at t={a.end:.3e}..{b.start:.3e}")
        origin = self.pulses[0].center
        centers = tuple(p.center - origin for p in self.pulses[1:])
        # disjoint pulses can still round onto one center, or onto origin
        if not all(a < b for a, b in zip((0.0, *centers),
                                         (*centers, self.echo_time))):
            raise ConfigError(f"pi centers must increase strictly from 0 to "
                              f"the echo at {self.echo_time}, got {centers}")
        object.__setattr__(self, "origin", origin)
        object.__setattr__(self, "pi_centers", centers)

    @property
    def n_pi(self) -> int:
        return len(self.pulses) - 1


@dataclass(frozen=True)
class FilterFunction:
    """Piecewise-constant +-1 sign of phase accumulation vs protocol time.

    Starts at +1 and toggles at each pi-pulse center (breakpoint).
    edges = (0.0, *breakpoints, domain_end) bound the constant-sign
    intervals; they are derived once here (the filter is frozen).
    """

    breakpoints: tuple[float, ...]
    domain_end: float
    edges: tuple[float, ...] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        edges = (0.0, *self.breakpoints, self.domain_end)
        # 0 < breakpoints < domain_end < inf, each written as `not a < b`,
        # so that a NaN fails too
        if not all(a < b for a, b in zip(edges, (*edges[1:], math.inf))):
            raise ConfigError(
                f"breakpoints must increase strictly inside (0, domain_end) "
                f"and domain_end must be finite, got {self.breakpoints} and "
                f"domain_end {self.domain_end}")
        object.__setattr__(self, "edges", edges)

    def sign(self, t):
        """Sign of the filter at time(s) t: (-1)**(#breakpoints < t)."""
        import numpy as np

        t = np.asarray(t, dtype=float)
        count = np.searchsorted(np.asarray(self.breakpoints), t, side="left")
        out = np.where(count % 2 == 0, 1.0, -1.0)
        return out if out.ndim else float(out)


def _check_echo_time(echo_time: float) -> None:
    if not math.isfinite(echo_time):
        raise ConfigError(f"echo time must be finite, got {echo_time}")


def _check_timings(tau: float, t_pi2: float, t_pi: float, gap: float) -> None:
    if not (t_pi2 > 0 and t_pi > 0):
        raise ConfigError("pulse durations must be positive")
    if tau <= t_pi:
        raise ConfigError(f"tau={tau:.3e} s must exceed t_pi={t_pi:.3e} s")
    if gap - t_pi2 / 2 - t_pi / 2 <= 0:
        raise ConfigError("pulses overlap: delay too short for the durations")


def _pulse_train(tau: float, t_pi2: float, t_pi: float, steps,
                 echo_time: float) -> PulseSequence:
    """The sequence of a pi/2 pulse starting at 0 and pi pulses centred at
    step * tau after its center, checked once and filled in place.

    The echo time is a multiple of tau, so a finite one makes tau finite,
    and with `_check_timings` that implies both `Pulse` checks.  The
    overlap test stays: `_check_timings` sums the gap in another float
    order, and can pass pulses that overlap by a rounding error.  So does
    the echo test, one comparison that holds unless the pulse starts
    overflow; the pi centers, within rounding of distinct whole multiples
    of tau, pass the order test.  Every value is the float, from the same
    expression, that `PulseSequence(tuple(Pulse(...)))` stores.
    """
    _check_timings(tau, t_pi2, t_pi, tau)
    _check_echo_time(echo_time)
    offset = t_pi2 / 2  # the builders' pulse grid starts here
    half = t_pi / 2
    origin = 0.0 + offset  # the first pulse's center
    head = _new(Pulse)
    head.__dict__.update(start=0.0, duration=t_pi2, nominal_angle=PI / 2,
                         axis_phase=0.0)
    pulses = [head]
    pi_centers = []
    prev_end = 0.0 + t_pi2
    for step in steps:
        start = offset + step * tau - half
        if start < prev_end:
            raise ConfigError(
                f"overlapping pulses at t={prev_end:.3e}..{start:.3e}")
        prev_end = start + t_pi
        pulse = _new(Pulse)
        pulse.__dict__.update(start=start, duration=t_pi, nominal_angle=PI,
                              axis_phase=0.0)
        pulses.append(pulse)
        pi_centers.append(start + half - origin)
    if echo_time <= pi_centers[-1]:
        raise ConfigError("echo must come after the last pulse")
    seq = _new(PulseSequence)
    seq.__dict__.update(pulses=tuple(pulses), tau=tau, echo_time=echo_time,
                        origin=origin, pi_centers=tuple(pi_centers))
    return seq


def build_hahn(tau: float, t_pi2: float, t_pi: float) -> PulseSequence:
    """pi/2 -- tau -- pi, echo at 2*tau (pulse centers at 0 and tau)."""
    return _pulse_train(tau, t_pi2, t_pi, (1,), 2 * tau)


def build_pdd(n_pi: int, tau: float, t_pi2: float, t_pi: float) -> PulseSequence:
    """Periodic DD: pi pulses at tau, 2*tau, ..., N*tau; echo at (N+1)*tau."""
    n_pi = _integer(n_pi, "n_pi", 1)
    return _pulse_train(tau, t_pi2, t_pi, range(1, n_pi + 1),
                        (n_pi + 1) * tau)


def build_cp(n_pi: int, tau: float, t_pi2: float, t_pi: float) -> PulseSequence:
    """Carr-Purcell: first delay tau, then pi pulses spaced 2*tau; echo at 2*N*tau."""
    n_pi = _integer(n_pi, "n_pi", 1)
    return _pulse_train(tau, t_pi2, t_pi, range(1, 2 * n_pi, 2),
                        2 * n_pi * tau)


#: the builder of each DD protocol, from its pulse count, tau, t_pi2, t_pi
DD_BUILDERS = {SequenceKind.PDD: build_pdd, SequenceKind.CP: build_cp}


def filter_function(seq: PulseSequence) -> FilterFunction:
    """Sign filter of a sequence: breakpoints at the pi-pulse centers."""
    return FilterFunction(seq.pi_centers, seq.echo_time)
