"""Every subcommand's CSV rows rebuilt point by point, for checking
`harness.run_experiment` against.

Each design is built from the config.  Point i of a sweep tagged `tag`
evolves the signal and the zero-RF reference one by one with the
ensemble reseeded from point_seed(ensemble seed, *tag, i), takes their
`echo_observable`, and adds noise drawn from point_seed(ensemble seed,
7919, *noise_tag, i).  The phases are unwrapped along the sweep with
numpy, and the closed form is pulse-gated for finite pulses.  No plan,
executor, shared simulation or block rule is used.
"""

import math
from dataclasses import replace

import numpy as np

from echosense import (ConfigError, NumericalError, PulseMode, ResetMode,
                       SequenceKind, accumulate_phase, build_cp, build_pdd,
                       build_split_interval, build_synchronized,
                       filter_function, pulse_gated)
from echosense.blochsim import echo_observable, evolve, point_seed
from echosense.echo import noisy_echo, wrap_phase
from echosense.sensitivity import (build_report, fit_transduction,
                                   reports_to_rows)


def sweep(cfg, seq, waves, tag, noise_tag, axis, values, md) -> list[dict]:
    """The rows of one sweep of `waves` on the sequence `seq`."""
    base = cfg.ensemble
    zs, phis = [], []
    for i, wave in enumerate(waves):
        ens = replace(base, seed=point_seed(base.seed, *tag, i))
        signal, reference = (evolve(cfg.spin_system, seq, w, ens,
                                    cfg.pulse_mode, cfg.calibration,
                                    cfg.trace_points) for w in (wave, None))
        zs.append(noisy_echo(echo_observable(signal, reference),
                             cfg.noise_sigma, cfg.n_averages,
                             point_seed(base.seed, 7919, *noise_tag, i)))
        gated = (pulse_gated(wave, seq)
                 if cfg.pulse_mode is PulseMode.FINITE else wave)
        phis.append(accumulate_phase(cfg.spin_system, cfg.calibration,
                                     filter_function(seq), gated).phi)
    unwrapped = np.degrees(np.unwrap(np.angle(zs))).tolist()
    return [{"index": i, axis: float(x), "amplitude_norm": abs(z),
             "phase_wrapped_deg": wrap_phase(ph), "phase_unwrapped_deg": ph,
             "analytic_phase_rad": a, "analytic_phase_deg": math.degrees(a),
             "config_hash": cfg.hash, "seed": cfg.seed, **md}
            for i, (x, z, ph, a) in enumerate(zip(values, zs, unwrapped,
                                                 phis))]


def _phase_sweeps(cfg, command, harmonics) -> list[dict]:
    seq = cfg.build_sequence()
    return [row for n in harmonics for row in sweep(
        cfg, seq, [build_synchronized(seq, cfg.rf_amplitude, n,
                                      math.radians(p), cfg.reset_mode)
                   for p in cfg.phase_grid],
        (n,), (n,), "phi_rf_deg", cfg.phase_grid,
        {"experiment": command, "n": n})]


def _split(cfg) -> list[dict]:
    seq, amp = cfg.build_sequence(SequenceKind.HAHN), cfg.rf_amplitude
    rads = [math.radians(p) for p in cfg.split_grid]
    variants = {
        "first": [build_split_interval(seq.tau, amp, r, enable_second=False)
                  for r in rads],
        "second": [build_split_interval(seq.tau, amp, 0.0, r,
                                        enable_first=False) for r in rads],
        "both": [build_split_interval(seq.tau, amp, r) for r in rads],
        "full": [build_synchronized(seq, amp, 1, r, ResetMode.CONTINUOUS)
                 for r in rads]}
    rows = [{"index": i, "phi_rf_deg": float(p)}
            for i, p in enumerate(cfg.split_grid)]
    for v, (name, waves) in enumerate(variants.items(), 1):
        for row, r in zip(rows, sweep(cfg, seq, waves, (v,), (v,),
                                      "phi_rf_deg", cfg.split_grid, {})):
            row.update({f"analytic_{name}_rad": r["analytic_phase_rad"],
                        f"phase_{name}_deg": r["phase_unwrapped_deg"],
                        f"amplitude_{name}": r["amplitude_norm"]})
    for row in rows:
        row["analytic_removed_rad"] = (row["analytic_full_rad"]
                                       - row["analytic_first_rad"])
        row.update(config_hash=cfg.hash, seed=cfg.seed)
    return rows


def _dd_sweeps(cfg) -> list[list[dict]]:
    t_pi2, t_pi = (cfg.sequence[k] * 1e-9 for k in ("t_pi2_ns", "t_pi_ns"))
    sweeps = []
    for p, protocol in enumerate(cfg.dd_protocols):
        build = build_pdd if protocol is SequenceKind.PDD else build_cp
        for t, tau in enumerate(cfg.dd_taus):
            for n_pi in cfg.dd_n_pi:
                seq = build(n_pi, tau, t_pi2, t_pi)
                sweeps.append(sweep(
                    cfg, seq, [build_synchronized(seq, a, 1, 0.0,
                                                  cfg.dd_reset_mode)
                               for a in cfg.dd_amplitudes],
                    (n_pi,), (n_pi, p, t), "b1_t", cfg.dd_amplitudes,
                    {"experiment": "dd-sweep", "protocol": protocol.value,
                     "n_pi": n_pi, "tau_s": tau}))
    return sweeps


def _sensitivity(cfg) -> list[dict]:
    reports = []
    for rows in _dd_sweeps(cfg):
        md = rows[0]
        try:
            reports.append(build_report(
                fit_transduction([(r["b1_t"], r["phase_unwrapped_deg"])
                                  for r in rows]),
                cfg.measurement["phase_resolution_deg"],
                cfg.measurement["t_meas_s"], cfg.sample, md["protocol"],
                md["n_pi"], md["tau_s"]))
        except ConfigError as e:  # the simulated phases defeat the fit
            raise NumericalError(str(e)) from e
    return [{**row, "config_hash": cfg.hash, "seed": cfg.seed}
            for row in reports_to_rows(reports)]


def experiment_rows(command: str, cfg) -> list[dict]:
    """`command`'s CSV rows on cfg, as `harness.run_experiment` gives them."""
    if command == "sweep-amplitude":
        seq = cfg.build_sequence()
        return sweep(cfg, seq, [build_synchronized(seq, a, cfg.rf_n,
                                                   cfg.rf_phase,
                                                   cfg.reset_mode)
                                for a in cfg.amplitude_grid],
                     (), (), "b1_t", cfg.amplitude_grid,
                     {"experiment": "sweep-amplitude"})
    if command in ("sweep-phase", "symmetry"):
        return _phase_sweeps(cfg, command, (cfg.rf_n,)
                             if command == "sweep-phase" else cfg.n_list)
    if command == "split-interval":
        return _split(cfg)
    if command == "dd-sweep":
        return [row for rows in _dd_sweeps(cfg) for row in rows]
    return _sensitivity(cfg)
