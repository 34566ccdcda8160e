"""Gated sinusoidal RF signal fields.

The field is B(t) = A*sin(2*pi*nu*t + phi) inside gating windows and
exactly zero outside.  Windows use a half-open [t_on, t_off) convention
so abutting windows never double-count a boundary sample.

Two synchronization modes:

* Continuous -- one sinusoid of absolute time, gated on/off.
* PerWindowReset -- the phase restarts at each window start, optionally
  with a per-window phase offset.  This is how an AWG re-arms the RF at
  each refocusing interval of a DD sequence.

A waveform's geometry does not depend on its amplitude, and sweeps and
design scans build the same shape at every amplitude of a grid.  So an
`RFWaveform` holds three slots: its amplitude, its global phase, and a
checked `_Shape` record of everything else (frequency, windows, window
phases, reset mode), which its read-only properties of those names read.
The constructor checks and converts its inputs into a new record; a
copy at another amplitude writes the three slots and shares the record,
checking only the amplitude.  Two one-entry memos, and no process-wide
cache, let a grid build and walk each shape once:

* `build_synchronized` keeps its last (sequence, n, phase, reset mode,
  record) as one module-level tuple, rebound in one assignment so that
  a threaded caller never reads a torn entry.  A call whose sequence is
  the same object and whose other three arguments compare equal reuses
  the record without hashing; any other call has `_synchronized` build
  one straight from the windows and phases it generates, which are
  valid by construction.
* Each record's `walk` slot holds the immutable (edges, signed walk)
  pair that `analytic.accumulate_phase` last made of it: the unit walk
  over a filter's edges, checked against the filter domain and signed.
  A call whose filter's edges are that very tuple reuses the pair; any
  other edges replace it.

This is exact: a walk sums each interval at unit amplitude and scales
it by the amplitude once, and a copy holds the fields that a fresh
construction would have checked and converted.  Neither memo stores an
exception, and the amplitude is checked on every call, so an invalid
input raises every time.  The last-call test compares by value: 1 and
1.0, 0.0 and -0.0, or "continuous" and `ResetMode.CONTINUOUS` share a
record, which is built from the checked, coerced values, so every
integral is the same for either.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import FrozenInstanceError

from .core import ConfigError, ResetMode
from .sequence import PulseSequence

TWO_PI = 2 * math.pi


def synchronized_frequency(tau: float, n: int) -> float:
    """Frequency n/(2*tau) locking the RF to the free-precession grid,
    for a whole-numbered harmonic n >= 1 (1 and 1.0 are one harmonic)."""
    if not tau > 0:
        raise ConfigError(f"tau must be positive, got {tau}")
    if not (n >= 1 and n % 1 == 0):
        raise ConfigError(f"harmonic index n must be a whole number >= 1, "
                          f"got {n}")
    return n / (2 * tau)


class RFWaveform:
    """Piecewise-gated sinusoidal field.

    window_phases, when given, overrides the global phase per window
    (same length as windows).  amplitude may be zero (reference runs).
    Windows are validated ordered and disjoint, which lets `integrals`
    evaluate every interval of a filter in one walk over them.

    A waveform holds three slots: its amplitude, its global phase (stored
    as given) and its checked `_Shape` record; frequency, windows,
    window_phases and reset_mode read the record.  It is frozen: any
    assignment raises `dataclasses.FrozenInstanceError`.  It compares,
    hashes, prints and pickles by its six constructor fields.
    """

    __slots__ = ("amplitude", "phase", "_shape")

    def __init__(self, amplitude: float, frequency: float, phase: float = 0.0,
                 windows: tuple[tuple[float, float], ...] = (),
                 reset_mode: ResetMode = ResetMode.CONTINUOUS,
                 window_phases: tuple[float, ...] | None = None) -> None:
        _check_amplitude(amplitude)
        shape = _checked_shape(frequency, phase, windows, window_phases,
                               reset_mode)
        _set_amplitude(self, amplitude)
        _set_phase(self, phase)
        _set_shape(self, shape)

    @property
    def frequency(self) -> float:
        return self._shape.frequency

    @property
    def windows(self) -> tuple[tuple[float, float], ...]:
        return self._shape.windows

    @property
    def reset_mode(self) -> ResetMode:
        return self._shape.reset_mode

    @property
    def window_phases(self) -> tuple[float, ...] | None:
        return self._shape.window_phases

    def _fields(self) -> tuple:
        shape = self._shape
        return (self.amplitude, shape.frequency, self.phase, shape.windows,
                shape.reset_mode, shape.window_phases)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self) -> int:
        return hash(self._fields())

    def __repr__(self) -> str:
        values = ", ".join(f"{name}={value!r}" for name, value in zip(
            _FIELDS, self._fields()))
        return f"{self.__class__.__qualname__}({values})"

    def __reduce__(self):
        return RFWaveform, self._fields()

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def sample(self, t):
        """Field value(s) at time(s) t [T]; zero outside every window."""
        import numpy as np

        t_arr = np.asarray(t, dtype=float)
        out = np.zeros_like(t_arr)
        shape = self._shape
        for (a, b), ph in zip(shape.windows, shape.phases):
            inside = (t_arr >= a) & (t_arr < b)
            if not np.any(inside):
                continue
            t0 = 0.0 if shape.reset_mode is ResetMode.CONTINUOUS else a
            arg = TWO_PI * shape.frequency * (t_arr - t0) + ph
            out = np.where(inside, self.amplitude * np.sin(arg), out)
        return out if out.ndim else float(out)

    def integrals(self, edges) -> list[float]:
        """Closed-form integral of the field over each [edges[i], edges[i+1]].

        `edges` must be non-decreasing.  One merge walk over the ordered
        windows and the edges: a window is visited once per interval it
        overlaps, so the cost is linear in len(edges) + len(windows).
        Each interval sums its window pieces (antiderivative of sin) in
        window order, whatever the other edges.  The walk runs at unit
        amplitude; each result is the amplitude times its unit integral.
        """
        amp = self.amplitude
        return [amp * v for v in _unit_walk(self._shape, tuple(edges))]

    def with_phase(self, phi: float) -> "RFWaveform":
        """Same waveform with the global phase set to phi (per-window offsets kept)."""
        ph = self.window_phases
        if ph is not None:
            shift = phi - self.phase
            ph = tuple(p + shift for p in ph)
        return RFWaveform(self.amplitude, self.frequency, phi, self.windows,
                          self.reset_mode, ph)


#: the constructor fields, in order, as `repr` names them
_FIELDS = ("amplitude", "frequency", "phase", "windows", "reset_mode",
           "window_phases")
_new = object.__new__
_set_amplitude = RFWaveform.amplitude.__set__
_set_phase = RFWaveform.phase.__set__
_set_shape = RFWaveform._shape.__set__


def _check_amplitude(amplitude) -> None:
    if not 0.0 <= amplitude < math.inf:
        raise ConfigError(f"amplitude must be finite and >= 0, got {amplitude}")


class _Shape:
    """The checked shape of an `RFWaveform`: everything but its amplitude.

    `phases` holds the phase of each window's sinusoid: the window phases,
    or else the global phase for every window.  A record compares and
    hashes by identity; each construction checks and builds its own, and
    the waveforms that `build_synchronized` makes from one last-call
    record share it.  `walk` holds the (edges, signed walk) pair that
    `analytic.accumulate_phase` last made of the record, or (None, ())
    before its first call.
    """

    __slots__ = ("frequency", "windows", "window_phases", "phases",
                 "reset_mode", "walk")

    def __init__(self, frequency, windows, window_phases, phases, reset_mode):
        self.frequency = frequency
        self.windows = windows
        self.window_phases = window_phases
        self.phases = phases
        self.reset_mode = reset_mode
        self.walk = (None, ())


def _checked_shape(frequency, phase, windows, window_phases,
                   reset_mode) -> _Shape:
    """Frequency finite and positive, phase finite, reset mode a
    `ResetMode` value, windows as floats checked finite, non-empty,
    ordered and disjoint, and window phases as floats checked finite, one
    per window."""
    if not 0.0 < frequency < math.inf:
        raise ConfigError(
            f"frequency must be finite and positive, got {frequency}")
    if not math.isfinite(phase):
        raise ConfigError(f"phase must be finite, got {phase}")
    reset_mode = ResetMode(reset_mode)
    wins = tuple([(float(a), float(b)) for a, b in windows])
    prev_end = -math.inf
    for a, b in wins:
        if not (math.isfinite(a) and math.isfinite(b)):
            raise ConfigError(f"window edges must be finite, got [{a}, {b})")
        if b <= a:
            raise ConfigError(f"empty or inverted window [{a}, {b})")
        if a < prev_end:
            raise ConfigError("windows must be disjoint and ordered")
        prev_end = b
    if window_phases is None:
        return _Shape(frequency, wins, None, (phase,) * len(wins),
                      reset_mode)
    ph = tuple([float(p) for p in window_phases])
    if len(ph) != len(wins):
        raise ConfigError("window_phases length must match windows")
    if not all(map(math.isfinite, ph)):
        raise ConfigError(f"window phases must be finite, got {ph}")
    return _Shape(frequency, wins, ph, ph, reset_mode)


def _unit_walk(shape: _Shape, edges) -> tuple[float, ...]:
    """`RFWaveform.integrals` of the unit-amplitude field of `shape`."""
    wins, phases = shape.windows, shape.phases
    n_win = len(wins)
    reset = shape.reset_mode is not ResetMode.CONTINUOUS
    w = TWO_PI * shape.frequency
    cos = math.cos
    out = []
    j = 0  # first window that may still overlap the current interval
    for a, b in zip(edges, edges[1:]):
        if not a <= b:  # NaN too
            raise ConfigError(
                f"integration bounds must satisfy a <= b, got [{a}, {b}]")
        while j < n_win and wins[j][1] <= a:
            j += 1
        total = 0.0
        for k in range(j, n_win):
            wa, wb = wins[k]
            if wa >= b:
                break
            # max(a, wa) and min(b, wb) without the builtin calls,
            # which cost more than the arithmetic in this loop
            lo = wa if wa > a else a
            hi = wb if wb < b else b
            if hi <= lo:
                continue
            t0 = wa if reset else 0.0
            ph = phases[k]
            try:
                total += (cos(w * (lo - t0) + ph)
                          - cos(w * (hi - t0) + ph)) / w
            except ValueError:  # math.cos of an infinite phase
                raise ConfigError(f"the RF phase over [{a}, {b}] "
                                  "overflows") from None
        out.append(total)
    return tuple(out)


#: reset windows that `build_synchronized` builds at most.  A record holds
#: a window and a phase per tau of echo time: 10**6 windows took 0.66 s
#: and 191 MB, so this caps a record near 19 MB, about 6 000 times the
#: largest train that a bundled config synchronizes (CP(8), 16 windows)
_MAX_RESET_WINDOWS = 100_000


def _synchronized(seq: PulseSequence, n, phase, reset_mode) -> _Shape:
    """The checked shape record of `build_synchronized`.  The reset
    windows tile [0, echo_time] in tau-length steps, and each window's
    phase advances by pi for every pi center at or before its start
    (the pi centers are strictly increasing).

    Only n, phase and the span are checked: a `PulseSequence`'s echo
    time is finite and after its pi centers, and the windows k*tau ..
    (k+1)*tau of its positive tau are non-empty, ordered, disjoint, and
    finite if the last one is, with phases finite with the phase."""
    tau, echo_time, centers = seq.tau, seq.echo_time, seq.pi_centers
    nu = synchronized_frequency(tau, n)
    reset_mode = ResetMode(reset_mode)
    if not 0.0 < nu < math.inf:
        raise ConfigError(f"frequency must be finite and positive, got {nu}")
    if not math.isfinite(phase):
        raise ConfigError(f"phase must be finite, got {phase}")
    tau, echo_time = float(tau), float(echo_time)
    if reset_mode is ResetMode.CONTINUOUS:
        return _Shape(nu, ((0.0, echo_time),), None, (phase,), reset_mode)
    count = echo_time / tau
    if count > _MAX_RESET_WINDOWS + 0.5:  # round(count) > the limit
        raise ConfigError(f"tau {tau:.3g} s, echo time {echo_time:.3g} s: "
                          f"{count:.3g} reset windows, over the limit of "
                          f"{_MAX_RESET_WINDOWS}")
    n_windows = round(count)
    if not n_windows * tau < math.inf:
        raise ConfigError(f"window edges must be finite, got "
                          f"[{(n_windows - 1) * tau}, {n_windows * tau})")
    n_centers = len(centers)
    eps = 1e-15 * echo_time
    phase0 = float(phase)
    windows, phases = [], []
    flips = 0  # pi centers at or before the current window start
    for k in range(n_windows):
        a = k * tau
        while flips < n_centers and centers[flips] <= a + eps:
            flips += 1
        windows.append((a, (k + 1) * tau))
        phases.append(phase0 + flips * math.pi)
    phases = tuple(phases)
    return _Shape(nu, tuple(windows), phases, phases, reset_mode)


def zero_field() -> RFWaveform:
    """Zero-amplitude waveform for reference (no-RF) runs."""
    return RFWaveform(0.0, 1.0)


def build_split_interval(tau: float, amplitude: float,
                         phase_first: float = 0.0, phase_second: float = 0.0,
                         enable_first: bool = True,
                         enable_second: bool = True) -> RFWaveform:
    """Half-period lobes gated on the first and/or second tau interval of a
    Hahn sequence, each restarting at its own phase."""
    if not tau > 0:
        raise ConfigError("tau must be positive")
    windows, phases = [], []
    if enable_first:
        windows.append((0.0, tau))
        phases.append(phase_first)
    if enable_second:
        windows.append((tau, 2 * tau))
        phases.append(phase_second)
    if not windows:
        warnings.warn("split-interval waveform with both halves gated off "
                      "is identically zero", stacklevel=2)
    return RFWaveform(amplitude, synchronized_frequency(tau, 1),
                      phase=phase_first, windows=tuple(windows),
                      reset_mode=ResetMode.PER_WINDOW_RESET,
                      window_phases=tuple(phases))


def exclude_intervals(wave: RFWaveform, blocked) -> RFWaveform:
    """Hard-gate `wave` to zero inside the `blocked` (a, b) spans.

    Each surviving window piece continues the original sinusoid's phase,
    so outside the blocked spans the field is sample-identical to the
    input.  This models switching the RF off while the microwave drive
    is on.
    """
    blocked = sorted((float(a), float(b)) for a, b in blocked)
    for a, b in blocked:
        if not a < b:  # NaN too
            raise ConfigError(f"empty or inverted blocked span [{a}, {b}]")
    shape = wave._shape
    w = TWO_PI * shape.frequency
    windows, phases = [], []
    for (wa, wb), ph in zip(shape.windows, shape.phases):
        t0 = 0.0 if shape.reset_mode is ResetMode.CONTINUOUS else wa
        cursor = wa
        for a, b in blocked:
            a, b = max(a, wa), min(b, wb)
            if b <= a:
                continue
            if a > cursor:
                windows.append((cursor, a))
                phases.append(ph + w * (cursor - t0))
            cursor = max(cursor, b)
        if wb > cursor:
            windows.append((cursor, wb))
            phases.append(ph + w * (cursor - t0))
    return RFWaveform(wave.amplitude, wave.frequency, wave.phase,
                      tuple(windows), ResetMode.PER_WINDOW_RESET,
                      tuple(phases))


def pulse_gated(wave: RFWaveform, seq: PulseSequence) -> RFWaveform:
    """`wave` with the field gated off during the sequence's pulse spans."""
    blocked = [(p.start - seq.origin, p.end - seq.origin)
               for p in seq.pulses]
    return exclude_intervals(wave, blocked)


#: the last (seq, n, phase, reset_mode, shape record) of
#: `build_synchronized`; rebound whole, never mutated
_last_synchronized = (None, None, None, None, None)


def build_synchronized(seq: PulseSequence, amplitude: float, n: int = 1,
                       phase: float = 0.0,
                       reset_mode: ResetMode = ResetMode.CONTINUOUS) -> RFWaveform:
    """RF waveform locked to a pulse sequence, covering [0, echo_time].

    Continuous: one window with a single sinusoid sin(2*pi*nu*t + phase),
    nu = n/(2*tau).

    PerWindowReset: the free precession is tiled in tau-length windows and
    the RF restarts in each one; the per-window phase advances by pi at
    every refocusing pulse.  Restarting in phase with the toggled sensor
    makes every interval add constructively (for n=1 this reproduces the
    continuous sinusoid on a PDD grid and phase-flips it across the
    2*tau gaps of a CP train), which is what "synchronized with every
    spin refocusing" buys.
    """
    global _last_synchronized
    _check_amplitude(amplitude)
    last_seq, last_n, last_phase, last_mode, shape = _last_synchronized
    if not (last_seq is seq and last_n == n and last_phase == phase
            and last_mode == reset_mode):
        shape = _synchronized(seq, n, phase, reset_mode)
        _last_synchronized = (seq, n, phase, reset_mode, shape)
    # the shape was checked with a phase equal to this one; the slot keeps
    # the phase as given, so a -0.0 stays -0.0
    wave = _new(RFWaveform)
    _set_amplitude(wave, amplitude)
    _set_phase(wave, phase)
    _set_shape(wave, shape)
    return wave
