"""End-to-end acceptance gate.

Each test prints one PASS line with the measured figure of merit so the
suite output doubles as an acceptance report.  Tolerances are part of
the contract; do not loosen them to make a failure go away.
"""

import math
import time

import numpy as np
import pytest

from echosense import (CoilCalibration, EnsembleConfig, PulseMode, ResetMode,
                       SpinSystem, accumulate_phase,
                       accumulate_phase_quadrature, build_cp, build_hahn,
                       build_pdd, build_synchronized, pulse_gated,
                       dd_sensitivity_sweep,
                       dipole_field, echo_observable, evolve, filter_function,
                       gyromagnetic_ratio, experiments, phase_vs_rf_phase,
                       split_interval_decomposition, spectral_sensitivity,
                       concentration_sensitivity)
from echosense.core import MU_B, SampleSpec
from echosense.sequence import SequenceKind

T_PI2 = 80e-9
T_PI = 160e-9
SYS = SpinSystem(g=2.0, t_m=1e-4)
CAL = CoilCalibration(coupling_eta=1.0)


def _random_cases(rng, count):
    """Shared randomized case family: sequence kind, pulse count, harmonic,
    tau, RF phase, field amplitude, reset mode."""
    kinds = ["hahn"] + [f"pdd{n}" for n in range(1, 6)] + \
            [f"cp{n}" for n in range(1, 6)]
    modes = [ResetMode.CONTINUOUS, ResetMode.PER_WINDOW_RESET]
    for _ in range(count):
        kind = kinds[rng.integers(len(kinds))]
        tau = rng.uniform(0.9e-6, 1.7e-6)
        n = int(rng.integers(1, 5))
        phi0 = rng.uniform(0.0, 2 * math.pi)
        b1 = rng.uniform(0.0, 1.8e-3)
        mode = modes[rng.integers(2)]
        if kind == "hahn":
            seq = build_hahn(tau, T_PI2, T_PI)
        elif kind.startswith("pdd"):
            seq = build_pdd(int(kind[3:]), tau, T_PI2, T_PI)
        else:
            seq = build_cp(int(kind[2:]), tau, T_PI2, T_PI)
        yield seq, build_synchronized(seq, b1, n, phi0, mode)


def test_acceptance_1_oracle_equivalence():
    """Closed-form phase vs adaptive quadrature, 1000 randomized cases."""
    rng = np.random.default_rng(2026)
    t0 = time.perf_counter()
    worst = 0.0
    for seq, wave in _random_cases(rng, 1000):
        filt = filter_function(seq)
        closed = accumulate_phase(SYS, CAL, filt, wave).phi
        oracle = accumulate_phase_quadrature(SYS, CAL, filt, wave)
        # relative error with a 1 rad floor so exact-zero cases compare
        # on the same absolute scale
        err = abs(closed - oracle) / max(abs(oracle), 1.0)
        worst = max(worst, err)
    elapsed = time.perf_counter() - t0
    assert worst < 1e-9, f"worst relative error {worst:.2e}"
    assert elapsed < 10.0, f"runtime {elapsed:.1f} s exceeds 10 s budget"
    print(f"\nACCEPTANCE 1 PASS: oracle equivalence, worst rel err "
          f"{worst:.2e} over 1000 cases in {elapsed:.1f} s")


def test_acceptance_2_simulator_analytic_equivalence():
    """Bloch simulator vs closed-form phase for both pulse models."""
    t0 = time.perf_counter()
    ens = EnsembleConfig(n_packets=1000)

    def sim_phase(seq, wave, mode, cal):
        ref = evolve(SYS, seq, None, ens, mode, cal)
        tr = evolve(SYS, seq, wave, ens, mode, cal)
        return np.angle(echo_observable(tr, ref))

    def wrapped_diff(a, b):
        return abs((a - b + math.pi) % (2 * math.pi) - math.pi)

    rng = np.random.default_rng(11)
    worst_ideal = 0.0
    for seq, wave in _random_cases(rng, 60):
        phi = accumulate_phase(SYS, CAL, filter_function(seq), wave).phi
        worst_ideal = max(worst_ideal,
                          wrapped_diff(sim_phase(seq, wave,
                                                 PulseMode.IDEAL, CAL), phi))
    assert worst_ideal < 1e-6, f"ideal-pulse worst error {worst_ideal:.2e}"

    # finite-pulse model: short pulses keep the RF-gating deadtime small
    cal = CoilCalibration(coupling_eta=6.682e-3)
    rngf = np.random.default_rng(13)
    worst_finite = 0.0
    for kind, n_pi, mode in [("hahn", 1, ResetMode.CONTINUOUS),
                             ("pdd", 2, ResetMode.CONTINUOUS),
                             ("pdd", 3, ResetMode.PER_WINDOW_RESET),
                             ("cp", 2, ResetMode.PER_WINDOW_RESET),
                             ("cp", 3, ResetMode.CONTINUOUS)]:
        tau = rngf.uniform(0.9e-6, 1.7e-6)
        b1 = rngf.uniform(0.1e-3, 1.8e-3)
        if kind == "hahn":
            seq = build_hahn(tau, 10e-9, 20e-9)
        elif kind == "pdd":
            seq = build_pdd(n_pi, tau, 10e-9, 20e-9)
        else:
            seq = build_cp(n_pi, tau, 10e-9, 20e-9)
        # gate the field off during the pulse spans on both sides of the
        # comparison: the finite-pulse model never sees RF while the
        # microwave drive is on
        wave = pulse_gated(
            build_synchronized(seq, b1, 1, rngf.uniform(0, 2 * math.pi),
                               mode), seq)
        phi = accumulate_phase(SYS, cal, filter_function(seq), wave).phi
        worst_finite = max(worst_finite,
                           wrapped_diff(sim_phase(seq, wave,
                                                  PulseMode.FINITE, cal),
                                        phi))
    elapsed = time.perf_counter() - t0
    assert worst_finite < 1e-3, f"finite-pulse worst error {worst_finite:.2e}"
    assert elapsed < 120.0, f"runtime {elapsed:.1f} s exceeds 2 min budget"
    print(f"\nACCEPTANCE 2 PASS: simulator-analytic equivalence, ideal "
          f"{worst_ideal:.2e} rad, finite {worst_finite:.2e} rad "
          f"in {elapsed:.1f} s")


def test_acceptance_3_harmonic_symmetry_selection():
    """Even RF harmonics decouple; phi(n=3)/phi(n=1) = 1/3."""
    tau = 1.2e-6
    seq = build_hahn(tau, T_PI2, T_PI)
    filt = filter_function(seq)

    def phi(n):
        return accumulate_phase(
            SYS, CAL, filt, build_synchronized(seq, 1e-3, n, 0.0)).phi

    worst_even = max(abs(phi(n)) for n in (2, 4))
    ratio = phi(3) / phi(1)
    assert worst_even < 1e-12, f"even-harmonic residual {worst_even:.2e}"
    assert abs(ratio - 1 / 3) < 1e-9, f"phi(3)/phi(1) = {ratio}"
    print(f"\nACCEPTANCE 3 PASS: even harmonics |phi| < {worst_even:.1e} "
          f"rad, phi(3)/phi(1) = {ratio:.12f}")


def test_acceptance_4_phase_sweep_nodes():
    """RF phase 90/270 deg: analytic phase exactly zero; simulated echo
    indistinguishable from the zero-RF reference."""
    tau = 1.2e-6
    seq = build_hahn(tau, T_PI2, T_PI)
    filt = filter_function(seq)
    template = build_synchronized(seq, 1.8e-3, 1, 0.0)
    worst_analytic = max(
        abs(p) for _, p in phase_vs_rf_phase(
            SYS, CAL, filt, template, [math.pi / 2, 3 * math.pi / 2]))
    assert worst_analytic < 1e-12

    ens = EnsembleConfig(n_packets=300, detuning_sigma=2e6,
                         rf_amplitude_spread=0.3, seed=21)
    ref = evolve(SYS, seq, None, ens, PulseMode.IDEAL, CAL)
    worst_sim = 0.0
    for phi0 in (math.pi / 2, 3 * math.pi / 2):
        tr = evolve(SYS, seq, template.with_phase(phi0), ens,
                    PulseMode.IDEAL, CAL)
        z = echo_observable(tr, ref)
        worst_sim = max(worst_sim, abs(z - 1.0))
    assert worst_sim < 1e-9, f"node echo deviates {worst_sim:.2e}"
    print(f"\nACCEPTANCE 4 PASS: quadrature RF nodes, analytic "
          f"{worst_analytic:.1e} rad, simulated echo deviation "
          f"{worst_sim:.1e}")


def test_acceptance_5_split_interval_additivity():
    """First-lobe + second-lobe phases reassemble the full waveform."""
    tau = 1.2e-6
    grid = np.radians(np.linspace(0.0, 360.0, 37))
    worst = 0.0
    for phi0 in grid:
        first, second, full = split_interval_decomposition(
            SYS, CAL, tau, 1.8e-3, (float(phi0), float(phi0)))
        worst = max(worst, abs(first + second - full))
    assert worst < 1e-9, f"additivity residual {worst:.2e} rad"
    print(f"\nACCEPTANCE 5 PASS: split-interval additivity, worst residual "
          f"{worst:.1e} rad over a 37-point phase grid")


def test_acceptance_6_pdd_scaling():
    """phi_PDD(N) = 2 (N+1) gamma eta B tau / pi, analytic and simulated."""
    tau, b1 = 1.2e-6, 1e-5
    gamma = gyromagnetic_ratio(SYS.g)
    ens = EnsembleConfig(n_packets=1)
    worst_analytic, worst_sim = 0.0, 0.0
    for n_pi in (1, 2, 3, 4, 5):
        seq = build_pdd(n_pi, tau, T_PI2, T_PI)
        wave = build_synchronized(seq, b1, 1, 0.0)
        expected = 2 * (n_pi + 1) * gamma * b1 * tau / math.pi
        phi = accumulate_phase(SYS, CAL, filter_function(seq), wave).phi
        worst_analytic = max(worst_analytic, abs(phi / expected - 1))
        ref = evolve(SYS, seq, None, ens, PulseMode.IDEAL, CAL)
        tr = evolve(SYS, seq, wave, ens, PulseMode.IDEAL, CAL)
        sim = np.angle(echo_observable(tr, ref))
        # expected can exceed pi at high N; compare modulo 2*pi
        worst_sim = max(worst_sim,
                        abs(math.remainder(sim - expected, 2 * math.pi)))
    assert worst_analytic < 1e-9
    assert worst_sim < 1e-4
    print(f"\nACCEPTANCE 6 PASS: PDD scaling 2(N+1) gamma B tau / pi, "
          f"analytic rel {worst_analytic:.1e}, simulated abs "
          f"{worst_sim:.1e} rad")


def test_acceptance_7_measured_sensitivity_chain():
    """Arithmetic chain through the published operating numbers."""
    inverse_slope = 9.8e-6        # T per degree
    b_min = 1.0 * inverse_slope   # 1 degree resolution
    assert b_min == pytest.approx(9.8e-6, rel=1e-12)

    s = spectral_sensitivity(b_min, 0.375)
    assert s == pytest.approx(6.0e-6, rel=0.03)

    density = 2.3e19 * 1e6        # spins / m^3
    s_vol = concentration_sensitivity(s, density)
    assert s_vol == pytest.approx(1.2e-9, rel=0.05)

    s_min = 1.5e-6
    s_min_vol = concentration_sensitivity(s_min, density)
    assert s_min_vol / s_min == pytest.approx(s_vol / s, rel=0.05)
    print(f"\nACCEPTANCE 7 PASS: b_min = {b_min:.2e} T, S = {s:.3e} "
          f"T/sqrt(Hz), S_vol = {s_vol:.3e}, bound ratio consistent")


def test_acceptance_8_dipole_scale():
    """Single Bohr magneton at 5 nm: ~7e-6 T."""
    b = dipole_field(MU_B, 5e-9)
    assert 6.3e-6 <= b <= 7.7e-6
    print(f"\nACCEPTANCE 8 PASS: dipole field at 5 nm = {b:.3e} T")


def test_acceptance_9_dd_sensitivity_trend():
    """More CP pulses -> better (non-increasing) spectral sensitivity;
    PDD(1) and CP(1) reports coincide."""
    t0 = time.perf_counter()
    sample = SampleSpec(spin_density=1e21, sensing_volume=1.75e-12)
    cal = CoilCalibration(coupling_eta=6.682e-3)
    ens = EnsembleConfig(n_packets=200, detuning_sigma=2 * math.pi * 0.02e6,
                         rf_amplitude_spread=0.2, seed=4321)
    amps = np.linspace(0, 0.5e-3, 41)

    def run(protocol, n_pi_list):
        return dd_sensitivity_sweep(
            protocol, n_pi_list, 1.7e-6, SYS, cal, sample, amps, ens,
            T_PI2, T_PI, reset_mode=ResetMode.PER_WINDOW_RESET)

    cp = run(SequenceKind.CP, [1, 2, 3, 4, 5])
    s = [r.s_spectral for r in cp]
    assert all(b <= a for a, b in zip(s, s[1:])), f"not non-increasing: {s}"
    assert all(b < a for a, b in zip(s, s[1:])), f"not strictly so: {s}"

    pdd1 = run(SequenceKind.PDD, [1])[0]
    cp1 = cp[0]
    assert pdd1.fit.slope == cp1.fit.slope
    assert pdd1.s_spectral == cp1.s_spectral
    assert pdd1.b_min == cp1.b_min
    elapsed = time.perf_counter() - t0
    assert elapsed < 300.0, f"runtime {elapsed:.1f} s exceeds 5 min budget"
    print(f"\nACCEPTANCE 9 PASS: CP s_spectral {s[0]:.2e} -> {s[-1]:.2e} "
          f"T/sqrt(Hz) strictly improving over n_pi=1..5; PDD(1) == CP(1); "
          f"{elapsed:.0f} s")


def test_acceptance_10_reproduce_determinism(tmp_path):
    """Two fig2 regenerations produce byte-identical CSV bodies."""
    a = experiments.reproduce("fig2", outroot=tmp_path / "a")
    b = experiments.reproduce("fig2", outroot=tmp_path / "b")
    assert [p.name for p in a] == [p.name for p in b] and a
    for pa, pb in zip(a, b):
        assert pa.read_bytes() == pb.read_bytes(), f"{pa.name} differs"
    print(f"\nACCEPTANCE 10 PASS: reproduce fig2 byte-identical across "
          f"runs ({len(a)} files)")
