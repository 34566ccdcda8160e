"""Each subcommand's experiment: its plan, its execution, its CSV rows.

A run is reproducible from (config, seed): point seeds derive from
(ensemble seed, sweep tag, grid index), results keep grid order, and
the config hash and seed are stamped into every row.

`EXPERIMENTS` maps each subcommand to a plan of `Grid` records
(sequence, waves, seed and noise tags, axis, metadata), a row builder
of CSV rows from the grids and their rows, and a CSV stem;
`FIGURE_TABLES` maps each figure to its CSVs, each a selection of one
command's rows.  `write`, the one emission path, runs each command that
a command or figure reads once and writes its CSVs (`harness.emit`).
`run_grids`, the one executor, checks every grid's closed-form phases
(`_closed_forms`) before it simulates each distinct (sequence, seed
tag) once, and turns every grid into noisy rows stamped with the
caller's config hash and seed; `validate` runs the same check on every
command whose grids the config gives.  The library's
`dd_sensitivity_sweep` is the `sensitivity` command without a config:
the same dd grids (`_dd_grids`), executor and fit (`_dd_reports`).
`run_grids` loads `blochsim` and numpy on first use, so planning and
checking a config loads neither.  Configs and CSVs are `harness`'s.
Calls into the other layers go through their modules
(`rf.build_synchronized`), so a wrapper bound on a module is what runs.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import replace
from itertools import chain, product
from pathlib import Path

from . import analytic, echo, harness, rf, sensitivity, sequence
from .core import (CoilCalibration, ConfigError, NumericalError, PulseMode,
                   ResetMode, SampleSpec, SequenceKind, SpinSystem)
from .harness import NS, ExperimentConfig, _bad_values, _check_fields, _num

#: the largest float spacing (rad) of a planned closed-form phase and of
#: a 10-sigma detuning drift; the bundled configs peak near 16 rad,
#: spaced 3.6e-15 rad
_PHASE_ULP_MAX = 1e-6

#: one grid of a plan: point i runs waves[i] on the sequence `seq`, with
#: the ensemble's packets drawn from the seed of (*seed_tag, i) and noise
#: drawn from (7919, *noise_tag, i); its CSV row holds axis_values[i] as
#: `axis_name`, and the metadata
Grid = namedtuple("Grid", "seq waves seed_tag noise_tag axis_name "
                  "axis_values metadata")


#: the process pool class, imported by the first parallel `_map`, so that
#: serial runs load neither concurrent.futures.process nor multiprocessing
ProcessPoolExecutor = None


def _map(fn, tasks, workers: int = 1) -> list:
    """fn(*task) for every task, in order; over a process pool of at most
    one process per task when workers > 1."""
    global ProcessPoolExecutor
    workers = min(workers, len(tasks))
    if workers > 1:
        if ProcessPoolExecutor is None:
            from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=workers) as ex:
            return list(ex.map(fn, *zip(*tasks)))
    return [fn(*task) for task in tasks]


def _point_seeds(base: int, tag, n: int) -> list[int]:
    """The seeds of the n points of a grid seeded from `tag` and `base`."""
    from .blochsim import point_seed

    return [point_seed(base, *tag, i) for i in range(n)]


def _closed_forms(sim, grids) -> list[list[float]]:
    """Each grid's closed-form phases (rad), pulse-gated for finite pulses,
    which hold the state with the RF off during each drive.  Each phase,
    and the drift of a packet 10 detuning sigmas out over the echo time,
    must be finite and resolved to `_PHASE_ULP_MAX` by float spacing."""
    finite, out = sim.pulse_mode is PulseMode.FINITE, []
    with _bad_values():
        for g in grids:
            filt = sequence.filter_function(g.seq)
            phis = [analytic.accumulate_phase(
                sim.spin_system, sim.calibration, filt,
                rf.pulse_gated(w, g.seq) if finite else w).phi
                for w in g.waves]
            drift = 10 * sim.ensemble.detuning_sigma * g.seq.echo_time
            ok = math.isfinite(drift) and math.ulp(drift) <= _PHASE_ULP_MAX
            for x, phi in zip(g.axis_values, phis):
                if not (ok and math.ulp(phi) <= _PHASE_ULP_MAX):
                    where = " ".join(
                        f"{k}={v:.6g}" if isinstance(v, float) else f"{k}={v}"
                        for k, v in {**g.metadata, g.axis_name: x}.items())
                    raise ConfigError(
                        f"{where}: closed-form phase {phi:.3g} rad, 10-sigma "
                        f"detuning drift {drift:.3g} rad; float spacing must "
                        f"resolve both to {_PHASE_ULP_MAX} rad: lower the "
                        "field or ensemble.detuning_sigma_mhz")
            out.append(phis)
    return out


def run_grids(sim, grids, stamp: dict, workers: int = 1) -> list:
    """Each grid's rows, one per point: its noisy echo's amplitude and
    phase, unwrapped along the grid, its closed-form phase, `stamp` and
    the grid's metadata.  `sim` is a config or a `_Sim`.

    Every grid's closed forms are checked (`_closed_forms`) before the
    first simulation.  Each worker runs one slice of a grid through
    `blochsim.echo_points`.  Grids that share their sequence, seed tag
    and waves share one simulation (PDD(1) and CP(1) are the same Hahn
    train); each still draws its own noise."""
    import numpy as np

    from . import blochsim

    simulated, out, sigma = {}, [], sim.noise_sigma
    for g, phis in zip(grids, _closed_forms(sim, grids)):
        hit = simulated.get((g.seq, g.seed_tag))
        if hit is None or hit[0] != g.waves:
            n = len(g.waves)
            seeds = _point_seeds(sim.ensemble.seed, g.seed_tag, n)
            k = max(1, min(workers, n))
            cuts = [n * j // k for j in range(k + 1)]
            tasks = [(sim.spin_system, g.seq, g.waves[a:b], sim.ensemble,
                      seeds[a:b], sim.pulse_mode, sim.calibration,
                      sim.trace_points)
                     for a, b in zip(cuts, cuts[1:])]
            zs = list(chain(*_map(blochsim.echo_points, tasks, workers)))
            hit = simulated[g.seq, g.seed_tag] = g.waves, zs
        zs = hit[1]
        if sigma > 0:  # noise-free grids skip the per-point seed derivation
            seeds = _point_seeds(sim.ensemble.seed, (7919, *g.noise_tag),
                                 len(zs))
            zs = [echo.noisy_echo(z, sigma, sim.n_averages, s)
                  for z, s in zip(zs, seeds)]
        unwrapped = np.degrees(np.unwrap(np.angle(np.asarray(zs)))).tolist()
        md = {**stamp, **g.metadata}
        out.append([{"index": i, g.axis_name: float(x),
                     "amplitude_norm": abs(z),
                     "phase_wrapped_deg": echo.wrap_phase(ph),
                     "phase_unwrapped_deg": ph, "analytic_phase_rad": a,
                     "analytic_phase_deg": math.degrees(a), **md}
                    for i, (x, z, ph, a) in enumerate(zip(
                        g.axis_values, zs, unwrapped, phis))])
    return out


# ---------------------------------------------------------------------------
# plans: each subcommand's grids

class _MissingGrid(ConfigError):
    """The config gives no grid for a command: `validate` skips it."""


def _amplitude_plan(cfg: ExperimentConfig) -> list[Grid]:
    """Echo vs RF field amplitude at fixed RF phase."""
    if cfg.amplitude_grid is None:
        raise _MissingGrid("sweep-amplitude needs rf.amplitude_sweep_mt")
    seq = cfg.build_sequence()
    return [Grid(seq, [rf.build_synchronized(seq, a, cfg.rf_n, cfg.rf_phase,
                                             cfg.reset_mode)
                       for a in cfg.amplitude_grid],
                 (), (), "b1_t", cfg.amplitude_grid,
                 {"experiment": "sweep-amplitude"})]


def dump_trace(cfg: ExperimentConfig, outdir: Path) -> Path:
    """Write outdir/trace.csv: time_s, mx, my of the echo window of point 0
    of the amplitude plan, with that point's wave and ensemble."""
    from . import blochsim

    [g] = _amplitude_plan(cfg)
    [seed] = _point_seeds(cfg.ensemble.seed, g.seed_tag, 1)
    tr = blochsim.evolve(cfg.spin_system, g.seq, g.waves[0],
                         replace(cfg.ensemble, seed=seed), cfg.pulse_mode,
                         cfg.calibration, cfg.trace_points)
    path = outdir / "trace.csv"
    harness.write_csv(path, [{"time_s": t, "mx": m.real, "my": m.imag}
                             for t, m in zip(tr.times.tolist(),
                                             tr.ensemble_mxy.tolist())])
    return path


def _phase_plan(cfg: ExperimentConfig, experiment: str,
                harmonics) -> list[Grid]:
    """Echo vs RF phase offset at fixed amplitude, a grid per harmonic."""
    if cfg.phase_grid is None:
        raise _MissingGrid("sweep-phase and symmetry need rf.phase_sweep_deg")
    seq = cfg.build_sequence()
    return [Grid(seq, [rf.build_synchronized(seq, cfg.rf_amplitude, n,
                                             math.radians(p), cfg.reset_mode)
                       for p in cfg.phase_grid],
                 (n,), (n,), "phi_rf_deg", cfg.phase_grid,
                 {"experiment": experiment, "n": n}) for n in harmonics]


def _split_plan(cfg: ExperimentConfig) -> list[Grid]:
    """Half-period gating on the first, second and both tau intervals of a
    Hahn sequence, and the full synchronized field, each swept over the
    gated lobe's phase: a grid per variant."""
    phis, amp = cfg.split_grid, cfg.rf_amplitude
    seq = cfg.build_sequence(kind=SequenceKind.HAHN)
    rads = [math.radians(p) for p in phis]
    variants = {
        "first": [rf.build_split_interval(seq.tau, amp, r, enable_second=False)
                  for r in rads],
        "second": [rf.build_split_interval(seq.tau, amp, 0.0, r,
                                           enable_first=False) for r in rads],
        "both": [rf.build_split_interval(seq.tau, amp, r) for r in rads],
        "full": [rf.build_synchronized(seq, amp, 1, r, ResetMode.CONTINUOUS)
                 for r in rads],
    }
    return [Grid(seq, waves, (v,), (v,), "phi_rf_deg", phis,
                 {"experiment": "split-interval", "variant": name})
            for v, (name, waves) in enumerate(variants.items(), 1)]


def _dd_grids(protocols, taus, n_pi_list, amplitudes, t_pi2: float,
              t_pi: float, reset_mode: ResetMode, md: dict) -> list[Grid]:
    """An amplitude grid per (protocol, tau, n_pi) with refocusing-locked
    RF, tagged with `md` and its protocol, n_pi and tau; the grids of one
    n_pi share their point seeds."""
    grids = []
    for (p, protocol), (t, tau), n_pi in product(
            enumerate(protocols), enumerate(taus), n_pi_list):
        seq = sequence.DD_BUILDERS[protocol](n_pi, tau, t_pi2, t_pi)
        n_pi = seq.n_pi  # an int, whatever integer type the caller gave
        grids.append(Grid(
            seq, [rf.build_synchronized(seq, a, 1, 0.0, reset_mode)
                  for a in amplitudes],
            (n_pi,), (n_pi, p, t), "b1_t", amplitudes,
            {**md, "protocol": protocol.value, "n_pi": n_pi, "tau_s": tau}))
    return grids


def _dd_plan(cfg: ExperimentConfig,
             experiment: str = "dd-sweep") -> list[Grid]:
    """The dd grids of the config's protocols, taus and pulse counts."""
    sq = cfg.sequence
    return _dd_grids(cfg.dd_protocols, cfg.dd_taus, cfg.dd_n_pi,
                     cfg.dd_amplitudes, sq["t_pi2_ns"] * NS,
                     sq["t_pi_ns"] * NS, cfg.dd_reset_mode,
                     {"experiment": experiment})


def _sensitivity_plan(cfg: ExperimentConfig) -> list[Grid]:
    """The dd grids, whose fits each need 3 fields: checked unsimulated."""
    if len(cfg.dd_amplitudes) < 3:
        raise _MissingGrid("sensitivity needs at least 3 dd fields, got "
                           f"{len(cfg.dd_amplitudes)}")
    return _dd_plan(cfg, "sensitivity")


# ---------------------------------------------------------------------------
# rows: each subcommand's CSV rows from its grids and their rows

def _concat(cfg: ExperimentConfig, grids, per_grid) -> list[dict]:
    return list(chain(*per_grid))


def _split_rows(cfg: ExperimentConfig, grids, per_grid) -> list[dict]:
    """One row per gated-lobe phase, with the columns of every variant side
    by side, in plan order."""
    rows = []
    for i, points in enumerate(zip(*per_grid)):
        row = {"index": i, "phi_rf_deg": points[0]["phi_rf_deg"]}
        for r in points:
            name = r["variant"]
            row[f"analytic_{name}_rad"] = r["analytic_phase_rad"]
            row[f"phase_{name}_deg"] = r["phase_unwrapped_deg"]
            row[f"amplitude_{name}"] = r["amplitude_norm"]
        row["analytic_removed_rad"] = (row["analytic_full_rad"]
                                       - row["analytic_first_rad"])
        rows.append(row)
    return rows


def _dd_reports(grids, per_grid, resolution: float, t_meas: float,
               sample: SampleSpec, ens) -> list[sensitivity.SensitivityReport]:
    """The transduction fit and report of each dd grid from its rows,
    simulated with `ens`.  Its inputs were checked before it ran, so a
    failed fit or report is a NumericalError naming the sweep; a failed
    fit notes if the train leaves a net free time t_net (the filter's
    signed sum of intervals)."""
    reports = []
    for g, rows in zip(grids, per_grid):
        seq, protocol = g.seq, g.metadata["protocol"]
        n_pi, tau, fit = seq.n_pi, seq.tau, None
        try:
            fit = sensitivity.fit_transduction(
                (r["b1_t"], r["phase_unwrapped_deg"]) for r in rows)
            reports.append(sensitivity.build_report(
                fit, resolution, t_meas, sample, protocol, n_pi, tau))
        except ConfigError as err:
            e = sequence.filter_function(seq).edges
            t_net = sum((-1) ** k * (e[k + 1] - e[k])
                        for k in range(len(e) - 1))
            # a net free time explains a failed fit, not a failed report
            unrefocused = fit is None and abs(t_net) > 1e-12 * seq.echo_time
            note = (f"; the train is unrefocused, with a net free time of "
                    f"{t_net:.3g} s: its predicted zero-field reference "
                    f"exp(-(sigma_Delta * t_net)^2 / 2) = "
                    f"{math.exp(-(ens.detuning_sigma * t_net) ** 2 / 2):.3g}"
                    f", against 1/sqrt(P) = {ens.n_packets ** -0.5:.3g}"
                    ) if unrefocused else ""
            raise NumericalError(
                f"the simulated {protocol}({n_pi}) sweep at tau {tau:.6g} s "
                f"has no sensitivity: {err}{note}") from err
    return reports


def _sensitivity_rows(cfg: ExperimentConfig, grids, per_grid) -> list[dict]:
    """A transduction fit and sensitivity report per dd grid."""
    ms = cfg.measurement
    return sensitivity.reports_to_rows(_dd_reports(
        grids, per_grid, ms["phase_resolution_deg"], ms["t_meas_s"],
        cfg.sample, cfg.ensemble))


#: what `run_grids` reads of an `ExperimentConfig`, for a run without one
_Sim = namedtuple("_Sim", "spin_system calibration ensemble pulse_mode "
                  "trace_points noise_sigma n_averages")


def dd_sensitivity_sweep(protocol: SequenceKind, n_pi_list, tau: float,
                         sys: SpinSystem, cal: CoilCalibration,
                         sample: SampleSpec, amplitudes, ens_base,
                         t_pi2: float, t_pi: float,
                         phase_resolution: float = 1.0, t_meas: float = 0.375,
                         reset_mode: ResetMode = ResetMode.PER_WINDOW_RESET,
                         mode: PulseMode = PulseMode.IDEAL,
                         trace_points: int = 61,
                         ) -> list[sensitivity.SensitivityReport]:
    """Simulated amplitude sweep -> transduction fit -> report, per pulse
    count of one protocol: the `sensitivity` command without a config or
    noise.  Point i of the n_pi sweep draws the packets of `ens_base` from
    the seed of (n_pi, i), so PDD and CP runs of the same n_pi draw
    identical packets.

    The inputs and closed-form phases are checked before any simulation,
    as a config's are: a bad one is a ConfigError.  A sweep whose
    simulated phases defeat the fit is a NumericalError naming it.
    """
    with _bad_values():
        protocol = SequenceKind(protocol)
        if protocol not in sequence.DD_BUILDERS:
            raise ConfigError(f"protocol must be PDD or CP, got {protocol}")
        amplitudes = [float(a) for a in amplitudes]
        if len(amplitudes) < 3:
            raise ConfigError("need at least 3 amplitude grid points")
        _check_fields(amplitudes, "amplitudes", amplitudes)
        _num(float(phase_resolution), "phase_resolution", "> 0")
        _num(float(t_meas), "t_meas", "> 0")
        grids = _dd_grids((protocol,), (tau,), n_pi_list, amplitudes, t_pi2,
                          t_pi, reset_mode, {})
    per_grid = run_grids(_Sim(sys, cal, ens_base, mode, trace_points, 0.0, 1),
                         grids, {})
    return _dd_reports(grids, per_grid, phase_resolution, t_meas, sample,
                       ens_base)


#: CLI subcommand -> (plan(cfg): its grids, rows(cfg, grids, each grid's
#: `run_grids` rows): its CSV rows, stem of the CSV they go to)
EXPERIMENTS = {
    "sweep-amplitude": (_amplitude_plan, _concat, "sweep_amplitude"),
    "sweep-phase": (lambda cfg: _phase_plan(cfg, "sweep-phase", (cfg.rf_n,)),
                    _concat, "sweep_phase"),
    "symmetry": (lambda cfg: _phase_plan(cfg, "symmetry", cfg.n_list),
                 _concat, "symmetry"),
    "split-interval": (_split_plan, _split_rows, "split"),
    "dd-sweep": (_dd_plan, _concat, "dd_sweep"),
    "sensitivity": (_sensitivity_plan, _sensitivity_rows, "sensitivity"),
}


def run_experiment(command: str, cfg: ExperimentConfig,
                   workers: int = 1) -> list[dict]:
    """`command`'s CSV rows on `cfg`, each ending in cfg's hash and seed."""
    plan, rows, _ = EXPERIMENTS[command]
    with _bad_values():
        grids = plan(cfg)
    stamp = {"config_hash": cfg.hash, "seed": cfg.seed}
    return [{**row, **stamp}
            for row in rows(cfg, grids, run_grids(cfg, grids, stamp, workers))]


def _validate(cfg: ExperimentConfig) -> None:
    """Check every command whose grids cfg gives, as its run would."""
    for plan, _, _ in EXPERIMENTS.values():
        try:
            with _bad_values():
                grids = plan(cfg)
        except _MissingGrid:
            continue
        _closed_forms(cfg, grids)


# the row selections of the figure CSVs: fig3's projections of symmetry
# rows on some columns, and fig4's dd rows of one protocol

def _columns(*cols):
    keys = ("index", "phi_rf_deg", *cols, "n", "config_hash", "seed")
    return lambda rows: [{k: r[k] for k in keys} for r in rows]


def _protocol(p: str):
    return lambda rows: [r for r in rows if r["protocol"] == p]


#: figure -> {CSV stem: (command, row selection)}: each CSV of a figure's
#: bundle is a selection of one command's rows on the figure's bundled
#: config (`list`: all of them)
FIGURE_TABLES = {
    "fig2": {"fig2_amplitude": ("sweep-amplitude", list),
             "fig2_phase": ("sweep-phase", list)},
    "fig3": {"fig3_amplitude": ("symmetry", _columns("amplitude_norm")),
             "fig3_phase": ("symmetry", _columns("phase_wrapped_deg",
                                                 "phase_unwrapped_deg")),
             "fig3_simulation": ("symmetry", _columns("analytic_phase_rad",
                                                      "analytic_phase_deg")),
             "fig3_split": ("split-interval", list)},
    "fig4": {"fig4_pdd": ("dd-sweep", _protocol("pdd")),
             "fig4_cp": ("dd-sweep", _protocol("cp"))},
    "fig5": {"fig5_sensitivity": ("sensitivity", list)},
}
FIGURES = tuple(FIGURE_TABLES)


def write(name: str, cfg: ExperimentConfig, outroot=None,
          workers: int = 1) -> list[Path]:
    """Write the CSVs of `name`, a command or a figure, on cfg; return
    their paths.  The output root is made first, so that a bad one fails
    before any simulation, and each command the CSVs read runs once."""
    outroot = harness.output_root(outroot)
    table = FIGURE_TABLES.get(name) or {EXPERIMENTS[name][2]: (name, list)}
    rows = {c: run_experiment(c, cfg, workers)
            for c in dict.fromkeys(c for c, _ in table.values())}
    return harness.emit(outroot, name, cfg, {
        stem: select(rows[c]) for stem, (c, select) in table.items()})


def reproduce(figure: str, outroot=None, workers: int = 1) -> list[Path]:
    """Regenerate a figure's CSV bundle from its bundled default config."""
    if figure not in FIGURES:
        raise ConfigError(f"unknown figure {figure!r}; choose from {FIGURES}")
    return write(figure, harness.bundled_config(figure), outroot, workers)
