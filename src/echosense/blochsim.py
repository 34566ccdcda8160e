"""Rotating-frame ensemble simulation of the full sensing protocol.

Each spin packet is a classical Bloch vector (exact for S=1/2 under this
Hamiltonian) obeying dM/dt = Omega(t) x M with
Omega = (Rabi_x, Rabi_y, detuning + gamma*eta*B_RF(t)).

Two pulse models:

* IdealPulse -- pulses are instantaneous rotations at the pulse centers;
  free evolution advances each packet's transverse phase with the exact
  closed-form RF integrals, so the ensemble phase matches the analytic
  module to rounding.  The path is vectorised over packets: the state is
  one complex array m = Mx + iMy plus Mz, each pulse and each free
  interval is a few whole-array operations, and the readout over the
  uniform trace grid is a geometric recurrence in the per-sample
  detuning factor, so Python-level work grows with the pulse count and
  not with the number of trace samples.
* FinitePulse -- fixed-step RK4 through the real timeline, with the RF
  gated off while the microwave drive is on.

Echo phases are reported in the readout frame that keeps the first free
interval at positive sign (receiver phase follows the refocusing
parity), matching the filter-function convention.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .core import CoilCalibration, ConfigError, NumericalError, SpinSystem
from .rf import RFWaveform, zero_field
from .sequence import PulseSequence

#: free-evolution RK4 step also satisfies step <= _ANGLE_CAP / max|Omega|
_ANGLE_CAP = 0.05
_MAX_STEPS_PER_SEGMENT = 20_000_000


class PulseMode(str, Enum):
    IDEAL = "ideal"
    FINITE = "finite"


@dataclass(frozen=True)
class EnsembleConfig:
    """Packet count, detuning distribution, RF amplitude spread, RNG seed.

    detuning_sigma = 0 is the Delta (single-packet-class) distribution.
    rf_amplitude_spread is the relative std of the per-packet RF
    amplitude (coil-field inhomogeneity); the drawn factors are clipped
    at zero.
    """

    n_packets: int = 1
    detuning_sigma: float = 0.0
    rf_amplitude_spread: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n_packets < 1:
            raise ConfigError("n_packets must be >= 1")
        if self.detuning_sigma < 0 or self.rf_amplitude_spread < 0:
            raise ConfigError("distribution widths must be >= 0")

    def draw(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(detunings, rf amplitude factors, weights); deterministic in seed.

        Draw order (detunings then factors) is part of the contract.
        """
        rng = np.random.default_rng(self.seed)
        det = self.detuning_sigma * rng.standard_normal(self.n_packets)
        fac = 1.0 + self.rf_amplitude_spread * rng.standard_normal(self.n_packets)
        np.clip(fac, 0.0, None, out=fac)
        w = np.full(self.n_packets, 1.0 / self.n_packets)
        return det, fac, w


@dataclass(frozen=True)
class SimulationTrace:
    """Ensemble transverse magnetization sampled around the echo."""

    times: np.ndarray
    ensemble_mxy: np.ndarray
    echo_window: tuple[float, float]

    def __post_init__(self) -> None:
        if np.any(np.diff(self.times) <= 0):
            raise ConfigError("trace times must be strictly increasing")
        a, b = self.echo_window
        if a < self.times[0] - 1e-15 or b > self.times[-1] + 1e-15:
            raise ConfigError("echo window outside the simulated span")


def _pulse(m: np.ndarray, mz: np.ndarray, angle: float, axis_phase: float):
    """Ideal rotation by `angle` about the transverse axis at azimuth
    `axis_phase` (generator Omega x M), on m = Mx + iMy and Mz."""
    c, s = math.cos(angle), math.sin(angle)
    u = complex(math.cos(axis_phase), math.sin(axis_phase))
    m_new = ((0.5 * (1 + c)) * m + (0.5 * (1 - c) * u * u) * np.conj(m)
             - (1j * s * u) * mz)
    mz_new = c * mz + s * (u.conjugate() * m).imag
    return m_new, mz_new


def _trace_window(seq: PulseSequence, halfwidth: float | None) -> tuple[float, float]:
    last_end = seq.pi_centers[-1] + seq.pulses[-1].duration / 2
    room = seq.echo_time - last_end
    if room <= 0:
        raise ConfigError("no free evolution left after the last pulse")
    hw = min(seq.tau / 4, 0.8 * room) if halfwidth is None else halfwidth
    if not 0 < hw <= room:
        raise ConfigError(f"trace halfwidth {hw:.3e} s does not fit after "
                          f"the last pulse (room {room:.3e} s)")
    return seq.echo_time - hw, seq.echo_time + hw


def _envelope(sys: SpinSystem, t: float) -> float:
    return math.exp(-((t / sys.t_m) ** sys.stretch_beta))


def evolve(sys: SpinSystem, seq: PulseSequence, wave: RFWaveform | None,
           ens: EnsembleConfig, mode: PulseMode = PulseMode.IDEAL,
           cal: CoilCalibration | None = None,
           trace_points: int = 61,
           trace_halfwidth: float | None = None) -> SimulationTrace:
    """Evolve the ensemble through the sequence and sample the echo.

    `wave` is in protocol time (t=0 at the first pulse center); None means
    no RF.  `cal` supplies coupling_eta (default 1).
    """
    if wave is None:
        wave = zero_field()
    eta = 1.0 if cal is None else cal.coupling_eta
    geff = sys.gamma * eta
    win = _trace_window(seq, trace_halfwidth)
    times = np.linspace(win[0], win[1], trace_points)
    det, fac, w = ens.draw()

    if mode is PulseMode.IDEAL:
        mxy = _evolve_ideal(seq, wave, geff, det, fac, w, times)
    elif mode is PulseMode.FINITE:
        mxy = _evolve_finite(seq, wave, geff, det, fac, w, times)
    else:
        raise ConfigError(f"unknown pulse mode {mode!r}")

    mxy = mxy * _envelope(sys, seq.echo_time)
    return SimulationTrace(times, mxy, win)


def _evolve_ideal(seq: PulseSequence, wave: RFWaveform, geff: float,
                  det, fac, w, times) -> np.ndarray:
    """Ensemble trace on `times`, which must be uniformly spaced (evolve
    builds them with linspace)."""
    m = np.zeros(len(det), dtype=complex)
    mz = np.ones(len(det))
    # per-packet RF phase per unit-amplitude integral; a zero-amplitude
    # wave contributes nothing, so its integrals are never evaluated
    grf = geff * fac * wave.amplitude if wave.amplitude != 0.0 else None

    def rf_phase(a: float, b: float):
        return 0.0 if grf is None else grf * wave.unit_integral(a, b)

    t_prev = 0.0
    for k, p in enumerate(seq.pulses):
        c = p.center - seq.origin
        if k > 0:
            m = m * np.exp(1j * (det * (c - t_prev) + rf_phase(t_prev, c)))
        m, mz = _pulse(m, mz, p.nominal_angle, p.axis_phase)
        t_prev = c

    # Readout: detuning keeps evolving across the acquisition window, but
    # the RF phase is referred to the echo time (acquisition happens with
    # the signal field's job done; the filter domain ends at the echo).
    # On the uniform grid, sample j of packet k is its first sample times
    # q_k**j with q_k = exp(i*det_k*dt).  The rows q**j are filled by
    # doubling: each pass extends the filled rows by multiplying them with
    # q**n, which is cheaper in numpy than a complex cumprod.
    n_t = len(times)
    alpha = det * (times[0] - t_prev) + rf_phase(t_prev, seq.echo_time)
    z = np.empty((n_t, len(det)), dtype=complex)
    z[0] = w * m * np.exp(1j * alpha)
    if n_t > 1:
        qn = np.exp(1j * det * ((times[-1] - times[0]) / (n_t - 1)))
        n = 1
        while n < n_t:
            k = min(n, n_t - n)
            np.multiply(z[:k], qn, out=z[n:n + k])
            n += k
            qn = qn * qn
    out = z.sum(axis=1)
    # odd refocusing count: the receiver phase follows the parity (w is real)
    return np.conj(out) if seq.n_pi % 2 == 1 else out


def _segments(seq: PulseSequence, t_end: float):
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
        raise ConfigError(
            f"step criterion requires {n} steps for one segment; "
            "reduce field amplitude or loosen the trace window")
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


def _evolve_finite(seq: PulseSequence, wave: RFWaveform, geff: float,
                   det, fac, w, times) -> np.ndarray:
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
                _, _, t0, ph = wave.piece(k)

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
                resid = gfac * wave.integral(min(next_t, seq.echo_time),
                                             seq.echo_time)
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


def echo_observable(trace: SimulationTrace,
                    reference: SimulationTrace | None = None) -> complex:
    """Window-averaged complex echo; divided by the no-RF reference when given."""
    if len(trace.times) < 2:
        raise ConfigError("echo window must contain at least two samples")
    span = trace.times[-1] - trace.times[0]
    z = complex(np.trapezoid(trace.ensemble_mxy, trace.times) / span)
    if reference is not None:
        zr = echo_observable(reference)
        if zr == 0:
            raise NumericalError("zero-RF reference echo vanished")
        z = z / zr
    return z


def trace_to_csv(trace: SimulationTrace, path) -> None:
    """Dump the ensemble means as time_s, mx, my."""
    import csv

    with open(path, "w", newline="") as fh:
        wr = csv.writer(fh)
        wr.writerow(["time_s", "mx", "my"])
        for t, m in zip(trace.times, trace.ensemble_mxy):
            wr.writerow([repr(float(t)), repr(float(m.real)), repr(float(m.imag))])
