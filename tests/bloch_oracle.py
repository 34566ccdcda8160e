"""Reference finite-pulse integrator, kept as a test oracle.

This is the Cartesian RK4 path that the library replaced with exact free
evolution: every packet's Bloch vector is stepped through the real
timeline, across each pulse with the RF gated off and across each free
interval with the gated RF field, which is split at its window edges so
that no step straddles a jump.  Each trace sample refers its RF phase to
the echo time.  It shares no propagator code with `echosense.blochsim`,
so it checks the library's free-evolution phases and its pulse RK4
independently.
"""

import math

import numpy as np

from echosense import (ConfigError, NumericalError, echo_observable,
                       zero_field)
from echosense.blochsim import SimulationTrace, _trace_window

from rf_oracle import window_sinusoid

#: free-evolution RK4 step also satisfies step <= _ANGLE_CAP / max|Omega|
_ANGLE_CAP = 0.05
_MAX_STEPS_PER_SEGMENT = 20_000_000


def _segments(seq, t_end: float):
    """(t0, t1, pulse-or-None) covering [-t_pi2/2, t_end] in protocol time."""
    segs = []
    t = seq.pulses[0].start - seq.origin
    for p in seq.pulses:
        a = p.start - seq.origin
        b = p.end - seq.origin
        if a > t:
            segs.append((t, a, None))
        segs.append((a, b, p))
        t = b
    if t_end > t:
        segs.append((t, t_end, None))
    return segs


def _rk4(state: np.ndarray, t0: float, t1: float, h_max: float, omega_fn):
    """Fixed-step RK4 for dM/dt = Omega(t) x M, vectorized over packets."""
    span = t1 - t0
    if span <= 0:
        return state
    n = max(1, math.ceil(span / h_max))
    if n > _MAX_STEPS_PER_SEGMENT:
        raise ConfigError(f"step criterion requires {n} steps for one segment")
    h = span / n

    def deriv(t, M):
        om = omega_fn(t)
        return np.cross(om, M)

    for i in range(n):
        t = t0 + i * h
        k1 = deriv(t, state)
        k2 = deriv(t + h / 2, state + (h / 2) * k1)
        k3 = deriv(t + h / 2, state + (h / 2) * k2)
        k4 = deriv(t + h, state + h * k3)
        state = state + (h / 6) * (k1 + 2 * k2 + 2 * k3 + k4)
    return state


def _evolve_finite(seq, wave, geff: float, det, fac, w, times) -> np.ndarray:
    n = len(det)
    state = np.zeros((n, 3))
    state[:, 2] = 1.0
    gfac = geff * fac
    omega_free_max = float(np.max(np.abs(det)) + np.max(gfac) * wave.amplitude)
    h_free = min(1.0 / (200.0 * wave.frequency),
                 _ANGLE_CAP / omega_free_max if omega_free_max > 0 else np.inf)

    om_free = np.zeros((n, 3))
    om_pulse = np.zeros((n, 3))
    two_pi_nu = 2 * math.pi * wave.frequency
    amp = wave.amplitude

    def run_free(st, a, b):
        # The gated/reset waveform is only piecewise smooth: it can jump at
        # window edges.  Split the integration there and evaluate each piece
        # with its own sinusoid so RK4 never samples across a discontinuity
        # (stepping over a jump degrades the integrator to first order).
        edges = sorted({c for wa, wb in wave.windows
                        for c in (wa, wb) if a < c < b})
        cuts = [a] + edges + [b]
        for lo, hi in zip(cuts, cuts[1:]):
            mid = 0.5 * (lo + hi)
            k = next((i for i, (wa, wb) in enumerate(wave.windows)
                      if wa <= mid < wb), None)
            if k is None or amp == 0.0:
                om_free[:, 2] = det
                st = _rk4(st, lo, hi, h_free, lambda t: om_free)
            else:
                t0, ph = window_sinusoid(wave, k)

                def omega(t, t0=t0, ph=ph):
                    b_rf = amp * math.sin(two_pi_nu * (t - t0) + ph)
                    om_free[:, 2] = det + gfac * b_rf
                    return om_free

                st = _rk4(st, lo, hi, h_free, omega)
        return st

    checkpoints = iter(times)
    next_t = next(checkpoints)
    out = []

    for a, b, p in _segments(seq, times[-1]):
        if p is not None:
            rabi = p.nominal_angle / p.duration
            om_pulse[:, 0] = rabi * math.cos(p.axis_phase)
            om_pulse[:, 1] = rabi * math.sin(p.axis_phase)
            om_pulse[:, 2] = det  # RF gated off while the drive is on
            h = min(p.duration / 50,
                    _ANGLE_CAP / (rabi + float(np.max(np.abs(det))) + 1e-300))
            state = _rk4(state, a, b, h, lambda t: om_pulse)
        else:
            t = a
            while next_t is not None and next_t <= b + 1e-18:
                state = run_free(state, t, next_t)
                mj = state[:, 0] + 1j * state[:, 1]
                # refer the RF phase of this sample to the echo time
                # (acquisition-window RF deficit, same convention as ideal)
                resid = gfac * wave.integrals(
                    (min(next_t, seq.echo_time), seq.echo_time))[0]
                mj = mj * np.exp(1j * resid)
                if seq.n_pi % 2 == 1:
                    mj = np.conj(mj)
                out.append(np.sum(w * mj))
                t = next_t
                next_t = next(checkpoints, None)
            state = run_free(state, t, b)
        if np.any(~np.isfinite(state)):
            bad = int(np.argwhere(~np.isfinite(state))[0][0])
            raise NumericalError(f"non-finite state in packet {bad} "
                                 f"during segment [{a:.3e}, {b:.3e}] s")

    if len(out) != len(times):
        raise NumericalError("trace sampling missed checkpoints")
    return np.asarray(out)


def finite_trace(sys, seq, wave, ens, cal, trace_points: int = 61):
    """The RK4 trace of `wave` (None: no RF) on the default trace window,
    without the decoherence envelope."""
    times = np.linspace(*_trace_window(seq, trace_points), trace_points)
    det, fac = ens.draw(ens.seed)
    w = np.full(ens.n_packets, 1.0 / ens.n_packets)  # equal packet weights
    if wave is None:
        wave = zero_field()
    mxy = _evolve_finite(seq, wave, sys.gamma * cal.coupling_eta,
                         det, fac, w, times)
    return SimulationTrace(times, mxy)


def finite_echo(sys, seq, wave, ens, cal, trace_points: int = 61) -> complex:
    """One point's RK4 echo: signal over zero-RF reference."""
    return echo_observable(finite_trace(sys, seq, wave, ens, cal, trace_points),
                           finite_trace(sys, seq, None, ens, cal, trace_points))
