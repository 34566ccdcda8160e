"""Microwave pulse sequences (Hahn, PDD, CP, custom) and their sign filters.

Timing convention: the delay grid is defined by pulse *centers*.  The
protocol clock t=0 sits at the center of the initial pi/2 pulse, so the
pi-pulse centers and the echo live at exact multiples of tau regardless
of pulse durations.  Finite durations only matter to the numerical
simulator; absolute lab time starts at the leading edge of the first
pulse (origin = t_pi2/2 before protocol zero).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .core import ConfigError

PI = math.pi


class SequenceKind(str, Enum):
    HAHN = "hahn"
    PDD = "pdd"
    CP = "cp"
    CUSTOM = "custom"


@dataclass(frozen=True)
class Pulse:
    """One microwave pulse.  start is absolute lab time of the leading edge."""

    start: float
    duration: float
    nominal_angle: float
    axis_phase: float = 0.0

    def __post_init__(self) -> None:
        if not self.duration > 0:
            raise ConfigError(f"pulse duration must be positive, got {self.duration}")
        if self.start < 0:
            raise ConfigError(f"pulse start must be >= 0, got {self.start}")

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
    time of protocol zero.
    """

    pulses: tuple[Pulse, ...]
    tau: float
    echo_time: float
    kind: SequenceKind = SequenceKind.CUSTOM
    origin: float = field(init=False)
    total_time: float = field(init=False)

    def __post_init__(self) -> None:
        if len(self.pulses) < 2:
            raise ConfigError("a sequence needs at least pi/2 and pi pulses")
        if not self.tau > 0:
            raise ConfigError("tau must be positive")
        for a, b in zip(self.pulses, self.pulses[1:]):
            if b.start < a.end:
                raise ConfigError(
                    f"overlapping pulses at t={a.end:.3e}..{b.start:.3e}")
        origin = self.pulses[0].center
        object.__setattr__(self, "origin", origin)
        object.__setattr__(self, "total_time", origin + self.echo_time)
        last = self.pulses[-1].center - origin
        if self.echo_time <= last:
            raise ConfigError("echo must come after the last pulse")

    @property
    def n_pi(self) -> int:
        return len(self.pulses) - 1

    @property
    def pi_centers(self) -> tuple[float, ...]:
        """Centers of the refocusing pulses, protocol time."""
        return tuple(p.center - self.origin for p in self.pulses[1:])


@dataclass(frozen=True)
class FilterFunction:
    """Piecewise-constant +-1 sign of phase accumulation vs protocol time.

    Starts at +1 and toggles at each pi-pulse center (breakpoint).
    """

    breakpoints: tuple[float, ...]
    domain_end: float

    def __post_init__(self) -> None:
        bps = self.breakpoints
        if any(b <= a for a, b in zip(bps, bps[1:])):
            raise ConfigError("breakpoints must be strictly increasing")
        if bps and (bps[0] <= 0 or bps[-1] >= self.domain_end):
            raise ConfigError("breakpoints must lie inside (0, domain_end)")

    def sign(self, t):
        """Sign of the filter at time(s) t: (-1)**(#breakpoints < t)."""
        t = np.asarray(t, dtype=float)
        count = np.searchsorted(np.asarray(self.breakpoints), t, side="left")
        out = np.where(count % 2 == 0, 1.0, -1.0)
        return out if out.ndim else float(out)

    def intervals(self) -> list[tuple[float, float, int]]:
        """Constant-sign intervals as (t0, t1, sign) covering [0, domain_end]."""
        edges = (0.0, *self.breakpoints, self.domain_end)
        return [(a, b, 1 if k % 2 == 0 else -1)
                for k, (a, b) in enumerate(zip(edges, edges[1:]))]

    def integral(self) -> float:
        return sum(s * (b - a) for a, b, s in self.intervals())


def _check_timings(tau: float, t_pi2: float, t_pi: float, gap: float) -> None:
    if not (t_pi2 > 0 and t_pi > 0):
        raise ConfigError("pulse durations must be positive")
    if tau <= t_pi:
        raise ConfigError(f"tau={tau:.3e} s must exceed t_pi={t_pi:.3e} s")
    if gap - t_pi2 / 2 - t_pi / 2 <= 0:
        raise ConfigError("pulses overlap: delay too short for the durations")


def build_hahn(tau: float, t_pi2: float, t_pi: float) -> PulseSequence:
    """pi/2 -- tau -- pi, echo at 2*tau (pulse centers at 0 and tau)."""
    _check_timings(tau, t_pi2, t_pi, tau)
    origin = t_pi2 / 2
    pulses = (
        Pulse(0.0, t_pi2, PI / 2),
        Pulse(origin + tau - t_pi / 2, t_pi, PI),
    )
    return PulseSequence(pulses, tau, 2 * tau, SequenceKind.HAHN)


def build_pdd(n_pi: int, tau: float, t_pi2: float, t_pi: float) -> PulseSequence:
    """Periodic DD: pi pulses at tau, 2*tau, ..., N*tau; echo at (N+1)*tau."""
    if n_pi < 1:
        raise ConfigError(f"n_pi must be >= 1, got {n_pi}")
    _check_timings(tau, t_pi2, t_pi, tau)
    if n_pi > 1 and tau - t_pi <= 0:
        raise ConfigError("pi pulses overlap: tau too short")
    origin = t_pi2 / 2
    pulses = [Pulse(0.0, t_pi2, PI / 2)]
    pulses += [Pulse(origin + k * tau - t_pi / 2, t_pi, PI)
               for k in range(1, n_pi + 1)]
    return PulseSequence(tuple(pulses), tau, (n_pi + 1) * tau, SequenceKind.PDD)


def build_cp(n_pi: int, tau: float, t_pi2: float, t_pi: float) -> PulseSequence:
    """Carr-Purcell: first delay tau, then pi pulses spaced 2*tau; echo at 2*N*tau."""
    if n_pi < 1:
        raise ConfigError(f"n_pi must be >= 1, got {n_pi}")
    _check_timings(tau, t_pi2, t_pi, tau)
    origin = t_pi2 / 2
    pulses = [Pulse(0.0, t_pi2, PI / 2)]
    pulses += [Pulse(origin + (2 * k - 1) * tau - t_pi / 2, t_pi, PI)
               for k in range(1, n_pi + 1)]
    return PulseSequence(tuple(pulses), tau, 2 * n_pi * tau, SequenceKind.CP)


def build_custom(pulses, tau: float, echo_time: float) -> PulseSequence:
    """Fully validated custom sequence from explicit pulses."""
    return PulseSequence(tuple(pulses), tau, echo_time, SequenceKind.CUSTOM)


def filter_function(seq: PulseSequence) -> FilterFunction:
    """Sign filter of a sequence: breakpoints at the pi-pulse centers."""
    return FilterFunction(seq.pi_centers, seq.echo_time)
