"""Reference implementations of the RF layer, kept as test oracles.

These are the straightforward per-call forms that the library replaced
with single walks: one pass over every window per integration interval,
and one numpy count of the refocusing pulses per reset window.  The
library must reproduce them exactly.
"""

import math

import numpy as np

from echosense import ConfigError, ResetMode, RFWaveform
from echosense.rf import synchronized_frequency


def window_sinusoid(wave: RFWaveform, k: int) -> tuple[float, float]:
    """(t0, phase) of window k of `wave`, such that the field inside is
    amplitude * sin(2*pi*frequency*(t - t0) + phase): a reset window
    restarts at its start, and window phases override the global one."""
    t0 = (0.0 if wave.reset_mode is ResetMode.CONTINUOUS
          else wave.windows[k][0])
    ph = wave.phase if wave.window_phases is None else wave.window_phases[k]
    return t0, ph


def integral_loop(wave: RFWaveform, a: float, b: float) -> float:
    """Integral of `wave` over [a, b], visiting every window."""
    if b < a:
        raise ConfigError("integration bounds must satisfy a <= b")
    w = 2 * math.pi * wave.frequency
    total = 0.0
    for k, (wa, wb) in enumerate(wave.windows):
        lo, hi = max(a, wa), min(b, wb)
        if hi <= lo:
            continue
        t0, ph = window_sinusoid(wave, k)
        total += (math.cos(w * (lo - t0) + ph) - math.cos(w * (hi - t0) + ph)) / w
    return wave.amplitude * total


def build_synchronized_count(seq, amplitude, n=1, phase=0.0):
    """Per-window-reset synchronized waveform, counting the flips before
    each window with numpy."""
    nu = synchronized_frequency(seq.tau, n)
    n_windows = int(round(seq.echo_time / seq.tau))
    centers = np.asarray(seq.pi_centers)
    windows, phases = [], []
    for k in range(n_windows):
        a = k * seq.tau
        flips = int(np.count_nonzero(centers <= a + 1e-15 * seq.echo_time))
        windows.append((a, (k + 1) * seq.tau))
        phases.append(phase + flips * math.pi)
    return RFWaveform(amplitude, nu, phase, tuple(windows),
                      ResetMode.PER_WINDOW_RESET, tuple(phases))
