"""Rotating-frame ensemble simulation of the full sensing protocol.

Each spin packet is a classical Bloch vector (exact for S=1/2 under this
Hamiltonian) obeying dM/dt = Omega(t) x M with
Omega = (Rabi_x, Rabi_y, detuning + gamma*eta*B_RF(t)).

Two pulse models:

* IdealPulse -- pulses are instantaneous rotations at the pulse centers;
  free evolution advances each packet's transverse phase with the exact
  closed-form RF integrals of every free interval, taken in one walk over
  the RF windows (`RFWaveform.integrals`), so the ensemble phase matches
  the analytic module to rounding.  The path is vectorised over packets:
  the state is one complex array m = Mx + iMy plus Mz, each pulse and
  each free interval is a few whole-array operations, and the readout
  over the uniform trace grid is a geometric recurrence in the per-sample
  detuning factor, so Python-level work grows with the pulse count and
  not with the number of trace samples.
* FinitePulse -- fixed-step RK4 through the real timeline, with the RF
  gated off while the microwave drive is on.

A sweep runs through `echo_points`, which returns each point's echo
divided by its zero-RF reference.  With ideal pulses it batches the
sweep: the points go through in blocks, each point's ensemble is drawn
once and shared by signal and reference, which are stacked in one
(2, points, packets) state, and each pulse acts once per block.  The
readout builds no trace: the trapezoid mean over the uniform window is
the closed-form geometric sum of each packet's per-sample factor.  A
block holds at most `_BLOCK_PACKET_POINTS` packet-points, because its
working arrays set the sweep's peak memory.  `evolve` keeps the full
trace for dumps and tests; finite pulses run it twice per point.

Echo phases are reported in the readout frame that keeps the first free
interval at positive sign (receiver phase follows the refocusing
parity), matching the filter-function convention.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (CoilCalibration, ConfigError, NumericalError, SpinSystem,
                   _StrChoice)
from .rf import RFWaveform, zero_field
from .sequence import PulseSequence

#: free-evolution RK4 step also satisfies step <= _ANGLE_CAP / max|Omega|
_ANGLE_CAP = 0.05
_MAX_STEPS_PER_SEGMENT = 20_000_000
#: packet-points (points x packets) that `echo_points` evolves together.
#: Its working arrays scale with the block: fig2's 73-point, 300-packet
#: phase sweep peaks at 0.41 MB (tracemalloc) with this bound, 0.85 MB
#: at twice it and 4.6 MB as one block, against 0.48 MB point by point,
#: while larger blocks run no faster (fig2-fig5 experiments in-process:
#: 351 ms at this bound, 360 ms at twice it, 355 ms as whole sweeps).
_BLOCK_PACKET_POINTS = 2048


class PulseMode(_StrChoice):
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
        if not (0 <= self.detuning_sigma < math.inf
                and 0 <= self.rf_amplitude_spread < math.inf):
            raise ConfigError("distribution widths must be finite and >= 0")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")

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


def point_seed(base: int, *idx: int) -> int:
    """Ensemble seed of one grid point, derived from a base seed and the
    point's indices; every sweep seeds its points through this."""
    return int(np.random.SeedSequence((base, *idx)).generate_state(1)[0])


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
    mode = PulseMode(mode)
    if wave is None:
        wave = zero_field()
    eta = 1.0 if cal is None else cal.coupling_eta
    geff = sys.gamma * eta
    win = _trace_window(seq, trace_halfwidth)
    times = np.linspace(win[0], win[1], trace_points)
    det, fac, w = ens.draw()

    if mode is PulseMode.IDEAL:
        mxy = _evolve_ideal(seq, wave, geff, det, fac, w, times)
    else:
        mxy = _evolve_finite(seq, wave, geff, det, fac, w, times)

    mxy = mxy * _envelope(sys, seq.echo_time)
    return SimulationTrace(times, mxy, win)


def _unit_integrals(seq: PulseSequence, waves) -> np.ndarray:
    """(len(waves), K) integral of each wave at unit amplitude over each of
    the K free intervals between 0, the pi-pulse centers and the echo
    time, from one walk over its RF windows; a zero-amplitude wave
    contributes nothing, so its integrals are never evaluated."""
    edges = (0.0, *seq.pi_centers, seq.echo_time)
    return np.array([[v / wave.amplitude for v in wave.integrals(edges)]
                     if wave.amplitude != 0.0 else [0.0] * (len(edges) - 1)
                     for wave in waves])


def _readout_state(seq: PulseSequence, det, grf, unit, t0: float):
    """m = Mx + iMy at time t0 after the last pulse, of packets of
    detuning `det` whose RF phase over free interval k is
    grf * unit[..., k] (grf = geff*fac*A sets the state's shape, unit is
    `_unit_integrals`)."""
    m = np.zeros(grf.shape, dtype=complex)
    mz = np.ones(grf.shape)
    edges = (0.0, *seq.pi_centers)
    first, *pis = seq.pulses
    m, mz = _pulse(m, mz, first.nominal_angle, first.axis_phase)
    for k, p in enumerate(pis):
        m *= np.exp(1j * (det * (edges[k + 1] - edges[k])
                          + grf * unit[..., k, None]))
        m, mz = _pulse(m, mz, p.nominal_angle, p.axis_phase)
    # Readout: detuning keeps evolving across the acquisition window, but
    # the RF phase is referred to the echo time (acquisition happens with
    # the signal field's job done; the filter domain ends at the echo).
    m *= np.exp(1j * (det * (t0 - edges[-1]) + grf * unit[..., -1, None]))
    return m


def _evolve_ideal(seq: PulseSequence, wave: RFWaveform, geff: float,
                  det, fac, w, times) -> np.ndarray:
    """Ensemble trace on `times`, which must be uniformly spaced (evolve
    builds them with linspace)."""
    m = _readout_state(seq, det, geff * fac * wave.amplitude,
                       _unit_integrals(seq, [wave])[0], times[0])
    # On the uniform grid, sample j of packet k is its first sample times
    # q_k**j with q_k = exp(i*det_k*dt).  The rows q**j are filled by
    # doubling: each pass extends the filled rows by multiplying them with
    # q**n, which is cheaper in numpy than a complex cumprod.
    n_t = len(times)
    z = np.empty((n_t, len(det)), dtype=complex)
    z[0] = w * m
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


def echo_points(sys: SpinSystem, seq: PulseSequence, waves, ensembles,
                mode: PulseMode, cal: CoilCalibration | None,
                trace_points: int) -> list[complex]:
    """The points of one sweep: for each (wave, ensemble) pair, the echo
    observable of `wave` divided by the zero-RF reference, both evolved
    with that point's ensemble and the same trace grid.

    Ideal pulses run the points in blocks of at most
    `_BLOCK_PACKET_POINTS` packet-points, drawing each point's ensemble
    once; finite pulses run `evolve` twice per point.  The ensembles of
    one sweep share a packet count.
    """
    if trace_points < 2:
        raise ConfigError("echo window must contain at least two samples")
    mode = PulseMode(mode)
    if mode is not PulseMode.IDEAL:
        return [echo_observable(
                    evolve(sys, seq, wave, ens, mode, cal,
                           trace_points=trace_points),
                    evolve(sys, seq, None, ens, mode, cal,
                           trace_points=trace_points))
                for wave, ens in zip(waves, ensembles)]
    win = _trace_window(seq, None)
    geff = sys.gamma * (1.0 if cal is None else cal.coupling_eta)
    # the readout's trapezoid mean, times the T2 envelope: a reference
    # that the envelope underflows to zero must still be caught below
    scale = _envelope(sys, seq.echo_time) / (trace_points - 1)
    out = []
    i = 0
    while i < len(waves):
        n = max(1, _BLOCK_PACKET_POINTS // ensembles[i].n_packets)
        z = _ideal_block(seq, waves[i:i + n], ensembles[i:i + n], geff,
                         win, trace_points) * scale
        if np.any(z[0] == 0):
            raise NumericalError("zero-RF reference echo vanished")
        out += (z[1] / z[0]).tolist()
        i += n
    return out


def _ideal_block(seq: PulseSequence, waves, ensembles, geff: float,
                 win: tuple[float, float], n_t: int) -> np.ndarray:
    """(2, n) window sums of the n points' reference (row 0) and signal
    (row 1) traces on n_t uniform samples of `win`, before the envelope
    and the 1/(n_t - 1) of the trapezoid mean."""
    draws = [ens.draw() for ens in ensembles]
    det, fac, w = (np.stack(x) for x in zip(*draws))  # each (n, P)
    # reference and signal share the ensemble and differ only in the RF
    # coupling, zero for the reference: one stacked (2, n, P) state
    grf = np.zeros((2, *det.shape))
    grf[1] = geff * fac * np.array([[wave.amplitude] for wave in waves])
    m = _readout_state(seq, det, grf, _unit_integrals(seq, waves), win[0])
    # On the uniform grid sample j of a packet is its first sample times
    # q**j, q = exp(i*theta) with theta = det * (sample spacing), so the
    # trapezoid sum over the n_t samples is that first sample times
    # sum_j q**j - (1 + q**(n_t - 1))/2, where the geometric sum is
    # expm1(i*n_t*theta)/expm1(i*theta), or n_t at q = 1.
    theta = det * ((win[1] - win[0]) / (n_t - 1))
    d = np.expm1(1j * theta)
    g = np.full(d.shape, float(n_t), dtype=complex)
    np.divide(np.expm1(1j * (n_t * theta)), d, out=g, where=d != 0)
    g -= 0.5 * (1.0 + np.exp(1j * ((n_t - 1) * theta)))
    g *= w
    m *= g
    z = m.sum(axis=-1)
    # odd refocusing count: the receiver phase follows the parity (w is real)
    return np.conj(z) if seq.n_pi % 2 == 1 else z


def trace_to_csv(trace: SimulationTrace, path) -> None:
    """Dump the ensemble means as time_s, mx, my."""
    import csv

    with open(path, "w", newline="") as fh:
        wr = csv.writer(fh)
        wr.writerow(["time_s", "mx", "my"])
        for t, m in zip(trace.times, trace.ensemble_mxy):
            wr.writerow([repr(float(t)), repr(float(m.real)), repr(float(m.imag))])
