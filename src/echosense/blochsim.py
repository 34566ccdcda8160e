"""Rotating-frame ensemble simulation of the full sensing protocol.

Each spin packet is a classical Bloch vector (exact for S=1/2 under this
Hamiltonian) obeying dM/dt = Omega(t) x M with
Omega = (Rabi_x, Rabi_y, detuning + gamma*eta*B_RF(t)).

Both pulse models share one state and one free evolution.  The state is
one complex array m = Mx + iMy plus Mz, vectorised over packets.  Every
free interval is a z-rotation, applied exactly as one phase factor
exp(i*(detuning*dt + gamma*eta*f*integral of B)), with the RF integrals
of all free intervals taken in one walk over the RF windows
(`RFWaveform.integrals`).  The two models differ in where the free
intervals lie and in how a pulse acts:

* IdealPulse -- pulses are instantaneous rotations at the pulse centers,
  and the free intervals tile the protocol between them, so the ensemble
  phase matches the analytic module to rounding.
* FinitePulse -- each pulse is a fixed-step RK4 of the constant
  Omega = (Rabi*cos(phase), Rabi*sin(phase), detuning) across its drive,
  with the RF gated off; the free intervals run between pulse edges.
  Each point takes the step count that its own detunings set.

After the last pulse each packet only precesses at its detuning, so
`evolve` reads its trace out as one matrix product of the per-sample
phase factors with the packets' state, each packet weighing 1/P.

A sweep runs through `echo_points`, which takes the sweep's one
`EnsembleConfig` and one seed per wave, and returns each point's echo
divided by its zero-RF reference.  It batches the sweep: the points go
through in blocks, each point's packets are drawn once from its seed
(`EnsembleConfig.draw`) and shared by signal and reference, which are
stacked in one (2, points, packets) state, and each pulse acts once per
block.  Signal and reference start from the same state before any RF
acts, so the first pulse acts once on the unstacked (points, packets)
state.  The readout builds no trace: the trapezoid mean over the
uniform window is the closed-form geometric sum of each packet's
per-sample factor.  A block holds at most
`_BLOCK_PACKET_POINTS` (8192) packet-points in either pulse model,
because its working arrays set the sweep's peak memory; a bundled-size
finite simulation fits in one block, and so runs one RK4 loop.  No
point's result depends on the block it shares, at any block size: every
operation acts on each point's packets alone, and a product of two
complex factors that numpy's temporary elision (above 256 KiB) could
swap is an explicit multiply in a fixed order.  `evolve` keeps the full trace
for dumps and tests; both take their echo window from `_trace_window`.
Nothing here writes.

Echo phases are reported in the readout frame that keeps the first free
interval at positive sign (receiver phase follows the refocusing
parity), matching the filter-function convention.  `evolve` and
`echo_points` raise a floating-point overflow, invalid result or
division by zero as NumericalError.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .core import (CoilCalibration, ConfigError, EnsembleConfig,
                   NumericalError, PulseMode, SpinSystem)
from .rf import RFWaveform, zero_field
from .sequence import PulseSequence

#: a finite pulse's RK4 step turns no packet by more than this angle (rad)
_ANGLE_CAP = 0.05
_MAX_STEPS_PER_PULSE = 20_000_000
#: packet-points (points x packets) that `echo_points` evolves together.
#: Its working arrays scale with the block: fig2's 73-point, 300-packet
#: phase sweep peaks at 1.59 MB (tracemalloc) with this bound, 0.37 MB at
#: a quarter of it and 4.26 MB as one block.  Each finite block runs one
#: RK4 loop, so the bound is set to hold every bundled-size finite
#: simulation (fig4's 21 fields at 200 packets, 5 fields at 1000) in one
#: block.  No result depends on it: see `_readout_state`.
_BLOCK_PACKET_POINTS = 8192


def point_seed(base: int, *idx: int) -> int:
    """Ensemble seed of one grid point, derived from a base seed and the
    point's indices; every sweep seeds its points through this."""
    return int(np.random.SeedSequence((base, *idx)).generate_state(1)[0])


@dataclass(frozen=True)
class SimulationTrace:
    """Ensemble transverse magnetization sampled around the echo."""

    times: np.ndarray
    ensemble_mxy: np.ndarray

    def __post_init__(self) -> None:
        if len(self.times) < 2:
            raise ConfigError("echo window must contain at least two samples")
        if np.any(np.diff(self.times) <= 0):
            raise ConfigError("trace times must be strictly increasing")


def _pulse(m: np.ndarray, mz: np.ndarray, angle: float, axis_phase: float):
    """Ideal rotation by `angle` about the transverse axis at azimuth
    `axis_phase` (generator Omega x M), on m = Mx + iMy and Mz."""
    c, s = math.cos(angle), math.sin(angle)
    u = complex(math.cos(axis_phase), math.sin(axis_phase))
    # coefficient * conj(m) as an explicit multiply, so that its operands
    # keep their order at any size (see `_readout_state`); the sum then
    # accumulates in its buffer
    m_new = np.conj(m)
    np.multiply(0.5 * (1 - c) * u * u, m_new, out=m_new)
    m_new += (0.5 * (1 + c)) * m
    m_new -= (1j * s * u) * mz
    mz_new = c * mz + s * (u.conjugate() * m).imag
    return m_new, mz_new


def _trace_window(seq: PulseSequence,
                  trace_points: int) -> tuple[float, float]:
    """Echo window, for `trace_points` >= 2 samples, of half-width
    min(tau/4, 0.8 * the room after the last pulse), centred on the echo."""
    if trace_points < 2:
        raise ConfigError("echo window must contain at least two samples")
    last_end = seq.pi_centers[-1] + seq.pulses[-1].duration / 2
    room = seq.echo_time - last_end
    if room <= 0:
        raise ConfigError("no free evolution left after the last pulse")
    hw = min(seq.tau / 4, 0.8 * room)
    return seq.echo_time - hw, seq.echo_time + hw


def _raise_fp_errors(fn):
    """fn, raising floating-point errors as NumericalError, not warnings."""
    @functools.wraps(fn)
    def checked(*args, **kwargs):
        try:
            with np.errstate(over="raise", invalid="raise", divide="raise"):
                return fn(*args, **kwargs)
        except FloatingPointError as e:
            raise NumericalError(f"non-finite simulation result: {e}") from e
    return checked


def _envelope(sys: SpinSystem, t: float) -> float:
    return math.exp(-((t / sys.t_m) ** sys.stretch_beta))


@_raise_fp_errors
def evolve(sys: SpinSystem, seq: PulseSequence, wave: RFWaveform | None,
           ens: EnsembleConfig, mode: PulseMode = PulseMode.IDEAL,
           cal: CoilCalibration | None = None,
           trace_points: int = 61) -> SimulationTrace:
    """Evolve the ensemble, its packets drawn from `ens.seed`, through the
    sequence and sample the echo.

    `wave` is in protocol time (t=0 at the first pulse center); None means
    no RF.  `cal` supplies coupling_eta (default 1).
    """
    mode = PulseMode(mode)
    if wave is None:
        wave = zero_field()
    eta = 1.0 if cal is None else cal.coupling_eta
    geff = sys.gamma * eta
    times = np.linspace(*_trace_window(seq, trace_points), trace_points)
    det, fac = ens.draw(ens.seed)

    mxy = (_evolve_trace(seq, mode, wave, geff, det, fac, times)
           * _envelope(sys, seq.echo_time))
    return SimulationTrace(times, mxy)


def _free_edges(seq: PulseSequence, mode: PulseMode):
    """(edges, stride): free interval k, after pulse k, is
    [edges[stride*k], edges[stride*k + 1]] in protocol time, and the last
    one ends at the echo time.  Ideal pulses act at their centers, so the
    intervals tile [0, echo_time] (stride 1); finite pulses hold the state
    for their drive, with the RF gated off, so the intervals run from the
    end of one pulse to the start of the next (stride 2)."""
    if mode is PulseMode.IDEAL:
        return (0.0, *seq.pi_centers, seq.echo_time), 1
    spans = [t - seq.origin for p in seq.pulses for t in (p.start, p.end)]
    return (*spans[1:], seq.echo_time), 2


def _drive(m: np.ndarray, mz: np.ndarray, det, k: int, p):
    """Fixed-step RK4 of dM/dt = Omega x M across finite pulse `p` (the
    k-th of its sequence) with the constant Omega = (rabi*cos(phase),
    rabi*sin(phase), det), on m = Mx + iMy and Mz:
    dm/dt = i*det*m - i*rabi*u*mz and dMz/dt = rabi*Im(conj(u)*m) with
    u = exp(i*phase).  Returns the new (m, mz), of the shape that m and
    mz broadcast to, stepping in place an input already of that shape
    (the caller rebinds both); their last axes, like `det`'s, run over
    points and the packets of each point.

    A point's step is at most 1/50 of the pulse and turns none of its
    packets by more than `_ANGLE_CAP`, so it follows that point's largest
    |det|.  All points are stepped together, in place on one set of
    buffers, until each has taken its own step count: a point that is
    done takes zero-length steps, which leave it unchanged, so no point's
    result depends on the points it is stepped with."""
    rabi = p.nominal_angle / p.duration
    dmax = np.max(np.abs(det), axis=-1, keepdims=True)
    steps = p.duration * (abs(rabi) + dmax) / _ANGLE_CAP
    over = ~(steps <= _MAX_STEPS_PER_PULSE)
    if over.any():
        i = np.argmax(over)
        raise ConfigError(
            f"finite pulse {k} ({p.duration:.3e} s) needs "
            f"{steps.flat[i]:.3g} RK4 steps at max |detuning| "
            f"{dmax.flat[i]:.3e} rad/s, over the limit of "
            f"{_MAX_STEPS_PER_PULSE}; narrow the detuning distribution")
    n = np.maximum(50, np.ceil(steps)).astype(int)
    h = p.duration / n
    u = complex(math.cos(p.axis_phase), math.sin(p.axis_phase))
    a, b, c = 1j * det, -1j * rabi * u, rabi * u.conjugate()
    # a state that only broadcasts to the block's shape (Mz while the
    # signal and reference still share it) is copied; the rest is stepped
    # in place
    shape = np.broadcast_shapes(m.shape, mz.shape)
    m, mz = (x if x.shape == shape else np.broadcast_to(x, shape).copy()
             for x in (m, mz))
    km, tm, sm, buf = (np.empty_like(m) for _ in range(4))
    kz, tz, sz = (np.empty_like(mz) for _ in range(3))

    def f(xm, xz):
        # (km, kz) = (a*xm + b*xz, Im(c*xm))
        np.multiply(a, xm, out=km)
        np.multiply(b, xz, out=buf)
        np.add(km, buf, out=km)
        np.multiply(c, xm, out=buf)
        np.copyto(kz, buf.imag)

    def stage(hk):
        # (tm, tz) = state + hk*k, the input of the next slope
        np.multiply(hk, km, out=tm)
        np.add(tm, m, out=tm)
        np.multiply(hk, kz, out=tz)
        np.add(tz, mz, out=tz)

    done = 0
    for stop in sorted(set(n.flat)):
        # steps done..stop-1: the points with fewer steps are finished
        hs = np.where(n >= stop, h, 0.0)
        half, sixth = hs / 2, hs / 6
        for _ in range(stop - done):
            # the slopes k1..k4 pass through (km, kz) in turn, and their
            # sum accumulates as ((k1 + 2k2) + 2k3) + k4
            f(m, mz)
            np.copyto(sm, km)
            np.copyto(sz, kz)
            for _ in range(2):
                stage(half)
                f(tm, tz)
                # (tm, tz) is free until the next stage
                np.multiply(2, km, out=tm)
                sm += tm
                np.multiply(2, kz, out=tz)
                sz += tz
            stage(hs)
            f(tm, tz)
            sm += km
            sz += kz
            np.multiply(sixth, sm, out=sm)
            m += sm
            np.multiply(sixth, sz, out=sz)
            mz += sz
        done = stop
    return m, mz


def _readout_state(seq: PulseSequence, mode: PulseMode, det, grf, waves,
                   t0: float):
    """m = Mx + iMy at time t0 after the last pulse, of packets of
    detuning `det` whose RF phase over each free interval is grf times
    the integral of their unit-amplitude wave over it.  grf = geff*fac*A
    sets the state's shape; its second-last axis runs over `waves`."""
    edges, stride = _free_edges(seq, mode)
    free = list(zip(edges[:-1:stride], edges[1::stride]))
    # each wave's integrals over the free intervals from one walk over its
    # RF windows; a zero-amplitude wave contributes nothing, so its
    # integrals are never evaluated
    unit = np.array([[v / wave.amplitude
                      for v in wave.integrals(edges)[::stride]]
                     if wave.amplitude != 0.0 else [0.0] * len(free)
                     for wave in waves])
    # before any RF acts every row of grf starts from the same state, so
    # the first pulse acts once, on det's shape, and the first free
    # interval broadcasts its result to grf's.  Each free interval's
    # m * exp(...) is an explicit multiply into the factor's buffer, which
    # becomes m: numpy may swap the operands of `m * temporary` to reuse
    # the temporary (its temporary elision, above 256 KiB), and complex
    # products are not bit-commutative, so m stays on the left at any
    # block size.
    m = np.zeros(det.shape, dtype=complex)
    mz = np.ones(det.shape)
    for k, p in enumerate(seq.pulses):
        if k:
            a, b = free[k - 1]
            e = np.exp(1j * (det * (b - a) + grf * unit[:, k - 1, None]))
            m = np.multiply(m, e, out=e)
            del e  # frees the old state once the pulse has replaced m
        if mode is PulseMode.IDEAL:
            m, mz = _pulse(m, mz, p.nominal_angle, p.axis_phase)
        else:
            m, mz = _drive(m, mz, det, k, p)
    # Readout: detuning keeps evolving across the acquisition window, but
    # the RF phase is referred to the echo time (acquisition happens with
    # the signal field's job done; the filter domain ends at the echo).
    e = np.exp(1j * (det * (t0 - free[-1][0]) + grf * unit[:, -1, None]))
    m = np.multiply(m, e, out=e)
    if not np.isfinite(m).all():
        raise NumericalError("non-finite magnetization after the last pulse")
    return m


def _evolve_trace(seq: PulseSequence, mode: PulseMode, wave: RFWaveform,
                  geff: float, det, fac, times) -> np.ndarray:
    """Ensemble trace on `times`, the packets precessing after times[0];
    each packet weighs 1/P."""
    m = _readout_state(seq, mode, det, geff * fac[None] * wave.amplitude,
                       [wave], times[0])[0]
    out = (np.exp(1j * np.outer(times - times[0], det))
           @ ((1.0 / len(det)) * m))
    # odd refocusing count: the receiver phase follows the parity
    return np.conj(out) if seq.n_pi % 2 == 1 else out


def echo_observable(trace: SimulationTrace,
                    reference: SimulationTrace | None = None) -> complex:
    """Window-averaged complex echo; divided by the no-RF reference when given."""
    span = trace.times[-1] - trace.times[0]
    z = complex(np.trapezoid(trace.ensemble_mxy, trace.times) / span)
    if reference is not None:
        zr = echo_observable(reference)
        if zr == 0:
            raise NumericalError("zero-RF reference echo vanished")
        z = z / zr
    return z


@_raise_fp_errors
def echo_points(sys: SpinSystem, seq: PulseSequence, waves,
                ens: EnsembleConfig, seeds, mode: PulseMode,
                cal: CoilCalibration | None,
                trace_points: int) -> list[complex]:
    """The points of one sweep: for each (wave, seed) pair, the echo
    observable of `wave` divided by the zero-RF reference, both evolved
    with the packets that `ens.draw(seed)` gives and the same trace grid.

    The points run in blocks of at most `_BLOCK_PACKET_POINTS`
    packet-points, each point's packets drawn once; a finite point
    keeps the RK4 step count of its own detunings, so every result is
    that of the point run alone.  There is one seed per wave.
    """
    if len(waves) != len(seeds):
        raise ConfigError(f"{len(waves)} waves but {len(seeds)} seeds: one "
                          "seed per wave")
    mode = PulseMode(mode)
    win = _trace_window(seq, trace_points)
    geff = sys.gamma * (1.0 if cal is None else cal.coupling_eta)
    # the readout's trapezoid mean, times the T2 envelope: a reference
    # that the envelope underflows to zero must still be caught below
    scale = _envelope(sys, seq.echo_time) / (trace_points - 1)
    n = max(1, _BLOCK_PACKET_POINTS // ens.n_packets)
    out = []
    for i in range(0, len(waves), n):
        z = _block(seq, mode, waves[i:i + n], ens, seeds[i:i + n], geff,
                   win, trace_points) * scale
        if np.any(z[0] == 0):
            raise NumericalError("zero-RF reference echo vanished")
        out += (z[1] / z[0]).tolist()
    return out


def _block(seq: PulseSequence, mode: PulseMode, waves, ens: EnsembleConfig,
           seeds, geff: float, win: tuple[float, float],
           n_t: int) -> np.ndarray:
    """(2, n) window sums of the n points' reference (row 0) and signal
    (row 1) traces on n_t uniform samples of `win`, before the envelope
    and the 1/(n_t - 1) of the trapezoid mean."""
    det, fac = (np.stack(x) for x in zip(*map(ens.draw, seeds)))  # (n, P)
    # reference and signal share the ensemble and differ only in the RF
    # coupling, zero for the reference: one stacked (2, n, P) state
    grf = np.zeros((2, *det.shape))
    grf[1] = geff * fac * np.array([[wave.amplitude] for wave in waves])
    m = _readout_state(seq, mode, det, grf, waves, win[0])
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
    g *= 1.0 / ens.n_packets  # each packet's weight
    m *= g
    z = m.sum(axis=-1)
    # odd refocusing count: the receiver phase follows the parity
    return np.conj(z) if seq.n_pi % 2 == 1 else z
