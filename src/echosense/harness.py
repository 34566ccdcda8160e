"""Config-driven experiment catalog and result emission.

Configs are JSON with bench units (mT, MHz, ns, degrees) converted to SI
here, at the boundary.  Every run is reproducible from (config, seed):
per-point ensemble seeds derive from (ensemble seed, sweep tag, grid
index), the ensemble seed defaulting to the top-level seed, results are
gathered in grid order, and the canonical config hash is stamped into
every CSV row and into the run directory name.  Every experiment runs
its points through one sweep and writes its CSVs through one emitter.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from . import blochsim
from .analytic import accumulate_phase
from .core import CoilCalibration, ConfigError, SampleSpec, SpinSystem
from .echo import EchoResult, noisy_echo, wrap_phase
from .rf import ResetMode, build_split_interval, build_synchronized
from .sensitivity import (SensitivityReport, build_report, fit_transduction,
                          reports_to_rows)
from .sequence import (SequenceKind, build_cp, build_hahn, build_pdd,
                       filter_function)

OUTPUT_ROOT_ENV = "ECHOSENSE_OUTPUT_ROOT"

NS = 1e-9
US = 1e-6
MS = 1e-3
MT = 1e-3
MHZ_TO_RAD = 2 * math.pi * 1e6


def config_hash(raw: dict) -> str:
    blob = json.dumps(raw, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()[:12]


def _grid(spec, scale: float = 1.0) -> np.ndarray:
    """Sweep spec {start, stop, points} or explicit list -> array (scaled)."""
    if isinstance(spec, dict):
        try:
            return np.linspace(float(spec["start"]) * scale,
                               float(spec["stop"]) * scale,
                               int(spec["points"]))
        except KeyError as e:
            raise ConfigError(f"sweep spec missing key {e}") from e
    if isinstance(spec, (list, tuple)):
        return np.asarray([float(x) * scale for x in spec])
    raise ConfigError(f"bad sweep spec {spec!r}")


@dataclass(frozen=True)
class ExperimentConfig:
    spin_system: SpinSystem
    sample: SampleSpec
    calibration: CoilCalibration
    sequence: dict
    rf: dict
    ensemble: blochsim.EnsembleConfig
    noise: dict
    measurement: dict
    dd: dict
    simulation: dict
    seed: int
    raw: dict
    hash: str = field(init=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "hash", config_hash(self.raw))

    def build_sequence(self, kind=None, n_pi=None, tau=None):
        sq = self.sequence
        kind = SequenceKind(kind or sq.get("kind", "hahn"))
        tau = tau if tau is not None else float(sq["tau_ns"]) * NS
        t_pi2 = float(sq.get("t_pi2_ns", 80)) * NS
        t_pi = float(sq.get("t_pi_ns", 160)) * NS
        n_pi = n_pi if n_pi is not None else int(sq.get("n_pi", 1))
        if kind is SequenceKind.HAHN:
            return build_hahn(tau, t_pi2, t_pi)
        if kind is SequenceKind.PDD:
            return build_pdd(n_pi, tau, t_pi2, t_pi)
        if kind is SequenceKind.CP:
            return build_cp(n_pi, tau, t_pi2, t_pi)
        raise ConfigError(f"cannot build sequence of kind {kind}")

    def pulse_mode(self) -> blochsim.PulseMode:
        return blochsim.PulseMode(self.simulation.get("pulse_mode", "ideal"))

    def reset_mode(self) -> ResetMode:
        return ResetMode(self.rf.get("reset_mode", "continuous"))

    def trace_points(self) -> int:
        return int(self.simulation.get("trace_points", 61))

    def point_seed(self, *idx) -> int:
        return blochsim.point_seed(self.ensemble.seed, *idx)


def load_config(source) -> ExperimentConfig:
    """Parse and validate a config dict or JSON file (fail-fast)."""
    if isinstance(source, (str, Path)):
        with open(source) as fh:
            raw = json.load(fh)
    else:
        raw = dict(source)

    try:
        ss = raw.get("spin_system", {})
        spin = SpinSystem(
            g=float(ss.get("g", 2.0)),
            t_m=float(ss.get("t_m_us", 10.0)) * US,
            stretch_beta=float(ss.get("stretch_beta", 1.0)),
            inhomogeneous_sigma=float(ss.get("inhomogeneous_sigma_mhz", 0.0))
            * MHZ_TO_RAD,
            label=ss.get("label", ""),
        )
        sm = raw.get("sample", {})
        sample = SampleSpec(
            spin_density=(float(sm["spin_density_per_cm3"]) * 1e6
                          if "spin_density_per_cm3" in sm else None),
            active_spin_count=(float(sm["active_spin_count"])
                               if "active_spin_count" in sm else None),
            sensing_volume=(float(sm["sensing_volume_mm3"]) * 1e-9
                            if "sensing_volume_mm3" in sm else None),
        )
        cb = raw.get("calibration", {})
        cal = CoilCalibration(
            field_per_volt=float(cb.get("field_per_volt_mt", 0.72)) * MT,
            max_voltage=float(cb.get("max_voltage_v", 2.5)),
            coupling_eta=float(cb.get("coupling_eta", 1.0)),
        )
        en = raw.get("ensemble", {})
        seed = int(raw.get("seed", 0))
        if seed < 0:
            raise ConfigError(f"seed must be >= 0, got {seed}")
        ens = blochsim.EnsembleConfig(
            n_packets=int(en.get("n_packets", 200)),
            detuning_sigma=float(en.get("detuning_sigma_mhz", 0.0)) * MHZ_TO_RAD,
            rf_amplitude_spread=float(en.get("rf_amplitude_spread", 0.0)),
            seed=int(en.get("seed", seed)),
        )
        cfg = ExperimentConfig(
            spin_system=spin, sample=sample, calibration=cal,
            sequence=dict(raw.get("sequence", {})),
            rf=dict(raw.get("rf", {})),
            ensemble=ens,
            noise=dict(raw.get("noise", {})),
            measurement=dict(raw.get("measurement", {})),
            dd=dict(raw.get("dd", {})),
            simulation=dict(raw.get("simulation", {})),
            seed=seed, raw=raw,
        )
        cfg.build_sequence()           # sequence spec must validate up front
        cfg.pulse_mode()
        cfg.reset_mode()
        if float(cfg.noise.get("sigma", 0.0)) < 0:
            raise ConfigError("noise.sigma must be >= 0")
        if int(cfg.noise.get("n_averages", 1)) < 1:
            raise ConfigError("noise.n_averages must be >= 1")
        if cfg.trace_points() < 2:
            raise ConfigError("simulation.trace_points must be >= 2")
        return cfg
    except ConfigError:
        raise
    except (KeyError, TypeError, ValueError) as e:
        raise ConfigError(f"invalid config: {e}") from e


@dataclass
class SweepResult:
    axis_name: str
    axis_values: list
    echo_results: list[EchoResult]
    analytic_phases: list[float]  # rad
    metadata: dict

    def __post_init__(self) -> None:
        n = len(self.axis_values)
        if len(self.echo_results) != n or len(self.analytic_phases) != n:
            raise ConfigError("SweepResult lists must have equal lengths")


def _map(fn, tasks, workers: int = 1) -> list:
    """fn(*task) for every task, in order; over a process pool when
    workers > 1."""
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as ex:
            return list(ex.map(fn, *zip(*tasks)))
    return [fn(*task) for task in tasks]


def _results_from_observables(cfg: ExperimentConfig, zs, seed_tag: int = 7919):
    """EchoResults with `noisy_echo` noise and grid-level phase unwrapping."""
    sigma = float(cfg.noise.get("sigma", 0.0))
    n_avg = int(cfg.noise.get("n_averages", 1))
    # noise-free sweeps skip the per-point seed derivation
    noisy = ([noisy_echo(z, sigma, n_avg, cfg.point_seed(seed_tag, i))
              for i, z in enumerate(zs)] if sigma > 0
             else [(z, math.inf) for z in zs])
    zs = [z for z, _ in noisy]
    unwrapped = np.degrees(np.unwrap(np.angle(np.asarray(zs))))
    return [EchoResult(abs(z), wrap_phase(float(ph)), float(ph), snr, n_avg)
            for (z, snr), ph in zip(noisy, unwrapped)]


def _sweep(cfg: ExperimentConfig, seq, waves, axis_name, axis_values,
           metadata, workers: int = 1, seed_offset=()) -> SweepResult:
    mode = cfg.pulse_mode()
    trace_points = cfg.trace_points()
    filt = filter_function(seq)
    tasks = []
    for i, wave in enumerate(waves):
        ens = replace(cfg.ensemble, seed=cfg.point_seed(*seed_offset, i))
        tasks.append((cfg.spin_system, seq, wave, ens, mode, cfg.calibration,
                      trace_points))
    zs = _map(blochsim.echo_point, tasks, workers)
    analytic = [accumulate_phase(cfg.spin_system, cfg.calibration, filt, w).phi
                for w in waves]
    md = {"config_hash": cfg.hash, "seed": cfg.seed, **metadata}
    return SweepResult(axis_name, list(axis_values),
                       _results_from_observables(cfg, zs), analytic, md)


def run_sweep_amplitude(cfg: ExperimentConfig, workers: int = 1) -> SweepResult:
    """Echo amplitude/phase vs RF field amplitude at fixed RF phase."""
    if "amplitude_sweep_mt" not in cfg.rf:
        raise ConfigError("rf.amplitude_sweep_mt required for sweep-amplitude")
    amps = _grid(cfg.rf["amplitude_sweep_mt"], MT)
    seq = cfg.build_sequence()
    n = int(cfg.rf.get("n", 1))
    phase = math.radians(float(cfg.rf.get("phase_deg", 0.0)))
    waves = [build_synchronized(seq, float(a), n, phase, cfg.reset_mode())
             for a in amps]
    return _sweep(cfg, seq, waves, "b1_t", list(amps),
                  {"experiment": "sweep-amplitude"}, workers)


def run_sweep_phase(cfg: ExperimentConfig, workers: int = 1,
                    n: int | None = None) -> SweepResult:
    """Echo amplitude/phase vs RF phase offset at fixed amplitude."""
    if "phase_sweep_deg" not in cfg.rf:
        raise ConfigError("rf.phase_sweep_deg required for sweep-phase")
    phis = _grid(cfg.rf["phase_sweep_deg"])
    amp = float(cfg.rf.get("amplitude_mt", 1.8)) * MT
    seq = cfg.build_sequence()
    n = n if n is not None else int(cfg.rf.get("n", 1))
    waves = [build_synchronized(seq, amp, n, math.radians(float(p)),
                                cfg.reset_mode()) for p in phis]
    return _sweep(cfg, seq, waves, "phi_rf_deg", list(phis),
                  {"experiment": "sweep-phase", "n": n}, workers,
                  seed_offset=(n,))


def run_symmetry(cfg: ExperimentConfig, workers: int = 1) -> list[SweepResult]:
    """Phase sweeps for a grid of harmonic indices n (odd vs even symmetry)."""
    n_list = [int(x) for x in cfg.rf.get("n_list", [1, 2, 3, 4])]
    return [run_sweep_phase(cfg, workers, n=n) for n in n_list]


def run_split_interval(cfg: ExperimentConfig, workers: int = 1) -> SweepResult:
    """Half-period gating on the first/second/both tau intervals of a Hahn
    sequence, swept over the gated lobe's phase."""
    phis = _grid(cfg.rf.get("phase_sweep_deg",
                            {"start": 0, "stop": 360, "points": 37}))
    amp = float(cfg.rf.get("amplitude_mt", 1.8)) * MT
    seq = cfg.build_sequence(kind="hahn")
    tau = seq.tau

    def gated(phi0, first, second, phase_second=0.0):
        return build_split_interval(tau, amp, phi0, phase_second,
                                    enable_first=first, enable_second=second)

    variants = {
        "first": [gated(math.radians(p), True, False) for p in phis],
        "second": [build_split_interval(tau, amp, 0.0, math.radians(p),
                                        enable_first=False, enable_second=True)
                   for p in phis],
        "both": [gated(math.radians(p), True, True) for p in phis],
        "full": [build_synchronized(seq, amp, 1, math.radians(p),
                                    ResetMode.CONTINUOUS) for p in phis],
    }
    results = {}
    variant_ids = {"first": 1, "second": 2, "both": 3, "full": 4}
    for name, waves in variants.items():
        results[name] = _sweep(cfg, seq, waves, "phi_rf_deg", list(phis),
                               {"experiment": "split-interval",
                                "variant": name}, workers,
                               seed_offset=(variant_ids[name],))
    combined = results["both"]
    combined.metadata["variants"] = {
        name: {"analytic_phases": r.analytic_phases,
               "echo_results": r.echo_results}
        for name, r in results.items()}
    return combined


def run_dd_sweep(cfg: ExperimentConfig, workers: int = 1) -> list[SweepResult]:
    """Amplitude sweep per (protocol, n_pi, tau) with refocusing-locked RF."""
    dd = cfg.dd
    protocols = [SequenceKind(p) for p in dd.get("protocols", ["pdd", "cp"])]
    n_pi_list = [int(n) for n in dd.get("n_pi_list", [1, 2, 3, 4, 5])]
    taus = [float(t) * US for t in dd.get("tau_us_list",
                                          [float(cfg.sequence.get("tau_ns", 1700))
                                           * NS / US])]
    amps = _grid(dd.get("amplitude_sweep_mt",
                        cfg.rf.get("amplitude_sweep_mt",
                                   {"start": 0, "stop": 0.5, "points": 41})), MT)
    reset = ResetMode(dd.get("reset_mode", "per-window-reset"))
    out = []
    for protocol in protocols:
        for tau in taus:
            for n_pi in n_pi_list:
                seq = cfg.build_sequence(kind=protocol.value, n_pi=n_pi, tau=tau)
                waves = [build_synchronized(seq, float(a), 1, 0.0, reset)
                         for a in amps]
                res = _sweep(cfg, seq, waves, "b1_t", list(amps),
                             {"experiment": "dd-sweep",
                              "protocol": protocol.value,
                              "n_pi": n_pi, "tau_s": tau},
                             workers, seed_offset=(n_pi,))
                out.append(res)
    return out


def run_sensitivity(cfg: ExperimentConfig,
                    workers: int = 1) -> list[SensitivityReport]:
    """The dd-sweep, then a transduction fit and a sensitivity report per
    (protocol, n_pi, tau) sweep."""
    resolution = float(cfg.measurement.get("phase_resolution_deg", 1.0))
    t_meas = float(cfg.measurement.get("t_meas_s", 0.375))
    reports = []
    for res in run_dd_sweep(cfg, workers):
        md = res.metadata
        fit = fit_transduction(zip(res.axis_values, (
            er.phase_unwrapped for er in res.echo_results)))
        reports.append(build_report(fit, resolution, t_meas, cfg.sample,
                                    md["protocol"], md["n_pi"], md["tau_s"]))
    return reports


#: CLI subcommand -> experiment runner(cfg, workers)
EXPERIMENTS = {
    "sweep-amplitude": run_sweep_amplitude,
    "sweep-phase": run_sweep_phase,
    "symmetry": run_symmetry,
    "split-interval": run_split_interval,
    "dd-sweep": run_dd_sweep,
    "sensitivity": run_sensitivity,
}


# ---------------------------------------------------------------------------
# emission

def write_csv(path, rows: list[dict]) -> None:
    if not rows:
        raise ConfigError("refusing to write an empty CSV")
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        wr = csv.DictWriter(fh, fieldnames=list(rows[0].keys()),
                            quoting=csv.QUOTE_MINIMAL)
        wr.writeheader()
        wr.writerows(rows)


def sweep_rows(res: SweepResult) -> list[dict]:
    rows = []
    for i, (x, er, ph) in enumerate(zip(res.axis_values, res.echo_results,
                                        res.analytic_phases)):
        rows.append({
            "index": i,
            res.axis_name: float(x),
            "amplitude_norm": er.amplitude,
            "phase_wrapped_deg": er.phase_wrapped,
            "phase_unwrapped_deg": er.phase_unwrapped,
            "analytic_phase_rad": ph,
            "analytic_phase_deg": math.degrees(ph),
            **{k: v for k, v in res.metadata.items()
               if isinstance(v, (int, float, str))},
        })
    return rows


def split_rows(res: SweepResult) -> list[dict]:
    variants = res.metadata["variants"]
    rows = []
    for i, phi0 in enumerate(res.axis_values):
        row = {"index": i, "phi_rf_deg": float(phi0)}
        for name in ("first", "second", "both", "full"):
            v = variants[name]
            row[f"analytic_{name}_rad"] = v["analytic_phases"][i]
            row[f"phase_{name}_deg"] = v["echo_results"][i].phase_unwrapped
            row[f"amplitude_{name}"] = v["echo_results"][i].amplitude
        row["analytic_removed_rad"] = (row["analytic_full_rad"]
                                       - row["analytic_first_rad"])
        row["config_hash"] = res.metadata["config_hash"]
        row["seed"] = res.metadata["seed"]
        rows.append(row)
    return rows


def experiment_rows(cfg: ExperimentConfig, result) -> list[dict]:
    """CSV rows of any experiment's result: a sweep, a list of sweeps, or a
    list of sensitivity reports (stamped with the config hash and seed)."""
    if isinstance(result, SweepResult):
        if "variants" in result.metadata:
            return split_rows(result)
        return sweep_rows(result)
    if result and isinstance(result[0], SensitivityReport):
        return [{**row, "config_hash": cfg.hash, "seed": cfg.seed}
                for row in reports_to_rows(result)]
    return [row for res in result for row in experiment_rows(cfg, res)]


def emit(outdir: Path, tables: dict, plot: bool = False) -> list[Path]:
    """Write each {stem: rows} table to outdir/<stem>.csv, plus an SVG of
    each when `plot`; return the written paths, CSVs first."""
    written = []
    for stem, rows in tables.items():
        path = outdir / f"{stem}.csv"
        write_csv(path, rows)
        written.append(path)
    if plot:
        from .svgplot import plot_csv

        for path in list(written):
            plot_csv(path, path.with_suffix(".svg"))
            written.append(path.with_suffix(".svg"))
    return written


def output_root(override=None) -> Path:
    if override:
        return Path(override)
    return Path(os.environ.get(OUTPUT_ROOT_ENV, "runs"))


def run_directory(name: str, cfg: ExperimentConfig, outroot=None) -> Path:
    d = output_root(outroot) / f"{name}_{cfg.hash}"
    d.mkdir(parents=True, exist_ok=True)
    return d


def bundled_config(name: str) -> ExperimentConfig:
    from importlib import resources

    ref = resources.files("echosense").joinpath(f"configs/{name}.json")
    if not ref.is_file():
        raise ConfigError(f"bundled config {name}.json is missing from the "
                          "package installation")
    return load_config(json.loads(ref.read_text()))


FIGURES = ("fig2", "fig3", "fig4", "fig5")


def reproduce(figure: str, outroot=None, workers: int = 1,
              plot: bool = False) -> list[Path]:
    """Regenerate a figure's CSV bundle from its bundled default config."""
    if figure not in FIGURES:
        raise ConfigError(f"unknown figure {figure!r}; choose from {FIGURES}")
    cfg = bundled_config(figure)

    def rows(experiment):
        return experiment_rows(cfg, EXPERIMENTS[experiment](cfg, workers))

    if figure == "fig2":
        tables = {"amplitude": rows("sweep-amplitude"),
                  "phase": rows("sweep-phase")}
    elif figure == "fig3":
        sym = rows("symmetry")

        def project(*cols):
            keys = ("index", "phi_rf_deg", *cols, "n", "config_hash", "seed")
            return [{k: r[k] for k in keys} for r in sym]

        tables = {
            "amplitude": project("amplitude_norm"),
            "phase": project("phase_wrapped_deg", "phase_unwrapped_deg"),
            "simulation": project("analytic_phase_rad", "analytic_phase_deg"),
            "split": rows("split-interval")}
    elif figure == "fig4":
        dd = rows("dd-sweep")
        by_protocol = {p: [r for r in dd if r["protocol"] == p]
                       for p in ("pdd", "cp")}
        tables = {p: r for p, r in by_protocol.items() if r}
    else:
        tables = {"sensitivity": rows("sensitivity")}
    return emit(run_directory(figure, cfg, outroot),
                {f"{figure}_{stem}": r for stem, r in tables.items()}, plot)
