"""Config-driven experiment catalog and result emission.

Configs are JSON with bench units (mT, MHz, ns, degrees).  `load_config`
is the only code that knows that format: it parses every section once
against `SCHEMA`, which holds each key's default and check, and converts
to SI.  Every run is reproducible from (config, seed): per-point
ensemble seeds derive from (ensemble seed, sweep tag, grid index), the
ensemble seed defaulting to the top-level seed, results are gathered in
grid order, and the canonical config hash is stamped into every CSV row
and into the run directory name.  Every experiment runs
its points through one sweep and writes its CSVs through one emitter.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
from dataclasses import dataclass, field, replace
from itertools import product
from pathlib import Path

import numpy as np

from . import blochsim
from .analytic import accumulate_phase
from .core import CoilCalibration, ConfigError, SampleSpec, SpinSystem
from .echo import EchoResult, noisy_echo, wrap_phase
from .rf import (ResetMode, build_split_interval, build_synchronized,
                 pulse_gated)
from .sensitivity import (SensitivityReport, build_report, fit_transduction,
                          reports_to_rows)
from .sequence import (SequenceKind, build_cp, build_hahn, build_pdd,
                       filter_function)

OUTPUT_ROOT_ENV = "ECHOSENSE_OUTPUT_ROOT"

NS = 1e-9
US = 1e-6
MT = 1e-3
MHZ_TO_RAD = 2 * math.pi * 1e6
#: a key with no default, which every config must give
REQUIRED = object()


def config_hash(raw: dict) -> str:
    blob = json.dumps(raw, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()[:12]


def _bad(where: str, what: str, v) -> ConfigError:
    return ConfigError(f"{where} must be {what}, got {v!r}")


def _num(v, where: str, bound: str = "") -> float:
    """A finite JSON number for which `bound` ("", ">= 0" or "> 0") holds."""
    if (type(v) not in (int, float) or not math.isfinite(v)
            or (bound == ">= 0" and v < 0) or (bound == "> 0" and v <= 0)):
        raise _bad(where, f"a finite number {bound}".rstrip(), v)
    return float(v)


def _count(v, where: str, low: int = 0) -> int:
    if type(v) is not int or v < low:
        raise _bad(where, f"an integer >= {low}", v)
    return v


def _text(v, where: str) -> str:
    if not isinstance(v, str):
        raise _bad(where, "a string", v)
    return v


def _choice(v, where: str, members):
    for m in members:
        if v == m.value:
            return m
    raise _bad(where, f"one of {[m.value for m in members]}", v)


def _list(v, where: str, parse, *args) -> tuple:
    """A non-empty JSON list, each item parsed as parse(item, where, *args)."""
    if not isinstance(v, list) or not v:
        raise _bad(where, "a non-empty list", v)
    return tuple(parse(x, f"{where}[{i}]", *args) for i, x in enumerate(v))


def _grid(spec, where: str = "sweep spec", scale: float = 1.0,
          bound: str = "") -> tuple[float, ...]:
    """Sweep spec {start, stop, points} or explicit list -> scaled values."""
    if isinstance(spec, list):
        return tuple(x * scale for x in _list(spec, where, _num, bound))
    sp = _section(spec, where, {"start": (REQUIRED, _num, bound),
                                "stop": (REQUIRED, _num, bound),
                                "points": (REQUIRED, _count, 1)})
    return tuple(np.linspace(sp["start"] * scale, sp["stop"] * scale,
                             sp["points"]).tolist())


def _section(sec, where: str, schema: dict) -> dict:
    """The JSON object `sec` parsed key by key: {key: parse(value, where,
    *args)} for each key: (default, parse, *args) of `schema`; an
    optional key (default None) that is absent or null stays None."""
    if not isinstance(sec, dict):
        raise _bad(where or "config", "a JSON object", sec)
    unknown = sorted(set(sec) - set(schema))
    if unknown:
        raise ConfigError(f"unknown key(s) in {where or 'config'}: "
                          f"{', '.join(map(repr, unknown))}")
    out = {}
    for key, (default, parse, *args) in schema.items():
        at = f"{where}.{key}" if where else key
        v = sec.get(key, default)
        if v is REQUIRED:
            raise ConfigError(f"{at} is required")
        out[key] = (None if v is None and default is None
                    else parse(v, at, *args))
    return out


_DD_KINDS = (SequenceKind.PDD, SequenceKind.CP)
#: every key a config may hold, by section ("" is the top level), as
#: (default in bench units, parser, *parser args); a default of None
#: marks an optional key whose absence `load_config` resolves.  Sweep
#: grids come out of their parser in SI units.
SCHEMA = {
    "": {"seed": (0, _count), "label": ("", _text)},
    "spin_system": {"g": (2.0, _num), "t_m_us": (10.0, _num),
                    "stretch_beta": (1.0, _num), "label": ("", _text),
                    "inhomogeneous_sigma_mhz": (0.0, _num)},
    "sample": dict.fromkeys(("spin_density_per_cm3", "active_spin_count",
                             "sensing_volume_mm3"), (None, _num)),
    "calibration": {"field_per_volt_mt": (0.72, _num),
                    "max_voltage_v": (2.5, _num),
                    "coupling_eta": (1.0, _num)},
    "ensemble": {"n_packets": (200, _count, 1),
                 "detuning_sigma_mhz": (0.0, _num),
                 "rf_amplitude_spread": (0.0, _num), "seed": (None, _count)},
    "sequence": {"kind": ("hahn", _choice, (SequenceKind.HAHN, *_DD_KINDS)),
                 "tau_ns": (REQUIRED, _num), "t_pi2_ns": (80, _num),
                 "t_pi_ns": (160, _num), "n_pi": (1, _count, 1)},
    "rf": {"n": (1, _count, 1), "phase_deg": (0.0, _num),
           "amplitude_mt": (1.8, _num, ">= 0"),
           "reset_mode": ("continuous", _choice, ResetMode),
           "n_list": ([1, 2, 3, 4], _list, _count, 1),
           "amplitude_sweep_mt": (None, _grid, MT, ">= 0"),
           "phase_sweep_deg": (None, _grid)},
    "dd": {"protocols": (["pdd", "cp"], _list, _choice, _DD_KINDS),
           "n_pi_list": ([1, 2, 3, 4, 5], _list, _count),
           "tau_us_list": (None, _list, _num),
           "amplitude_sweep_mt": (None, _grid, MT, ">= 0"),
           "reset_mode": ("per-window-reset", _choice, ResetMode)},
    "noise": {"sigma": (0.0, _num, ">= 0"), "n_averages": (1, _count, 1),
              "t_relax_ms": (None, _num, "> 0")},
    "measurement": {"phase_resolution_deg": (1.0, _num, "> 0"),
                    "t_meas_s": (0.375, _num, "> 0")},
    "simulation": {"pulse_mode": ("ideal", _choice, blochsim.PulseMode),
                   "trace_points": (61, _count, 2)},
}


@dataclass(frozen=True)
class ExperimentConfig:
    """A parsed config, defaults filled in, in SI units (phase grids in
    degrees); `sequence` and `measurement` are keyed in bench units."""

    spin_system: SpinSystem
    sample: SampleSpec
    calibration: CoilCalibration
    ensemble: blochsim.EnsembleConfig
    sequence: dict       # kind, tau_ns, t_pi2_ns, t_pi_ns, n_pi
    measurement: dict    # phase_resolution_deg, t_meas_s
    rf_n: int
    rf_phase: float      # rad
    rf_amplitude: float  # T
    reset_mode: ResetMode
    n_list: tuple[int, ...]
    amplitude_grid: tuple[float, ...] | None  # T
    phase_grid: tuple[float, ...] | None      # deg
    split_grid: tuple[float, ...]             # deg
    dd_protocols: tuple[SequenceKind, ...]
    dd_n_pi: tuple[int, ...]
    dd_taus: tuple[float, ...]                # s
    dd_amplitudes: tuple[float, ...]          # T
    dd_reset_mode: ResetMode
    noise_sigma: float
    n_averages: int
    pulse_mode: blochsim.PulseMode
    trace_points: int
    seed: int
    raw: dict
    hash: str = field(init=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "hash", config_hash(self.raw))

    def build_sequence(self, kind=None, n_pi=None, tau=None):
        sq = self.sequence
        kind = SequenceKind(kind or sq["kind"])
        tau = tau if tau is not None else sq["tau_ns"] * NS
        t_pi2, t_pi = sq["t_pi2_ns"] * NS, sq["t_pi_ns"] * NS
        if kind is SequenceKind.HAHN:
            return build_hahn(tau, t_pi2, t_pi)
        if kind is SequenceKind.CUSTOM:
            raise ConfigError("a custom sequence cannot be built from a config")
        build = build_pdd if kind is SequenceKind.PDD else build_cp
        return build(n_pi if n_pi is not None else sq["n_pi"], tau, t_pi2, t_pi)

    def point_seed(self, *idx) -> int:
        return blochsim.point_seed(self.ensemble.seed, *idx)


def read_json(path):
    """The JSON document in the file `path`; a file that cannot be read or
    parsed is a ConfigError."""
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, ValueError) as e:
        raise ConfigError(f"cannot read {path}: {e}") from e


def load_config(source) -> ExperimentConfig:
    """Parse and check a config dict or JSON file (fail-fast): a config
    that loads fails later only on what one experiment alone needs (a
    sweep grid, three points for a fit) or on numerical trouble."""
    try:
        if isinstance(source, (str, Path)):
            source = read_json(source)
        top = _section(source, "", {**SCHEMA[""], **{
            name: ({}, _section, SCHEMA[name]) for name in SCHEMA if name}})
        ss, sm, cb, en, sq, rf, dd = (top[name] for name in (
            "spin_system", "sample", "calibration", "ensemble", "sequence",
            "rf", "dd"))
        rho, volume = sm["spin_density_per_cm3"], sm["sensing_volume_mm3"]
        dd_taus = dd["tau_us_list"] or (sq["tau_ns"] * NS / US,)
        cfg = ExperimentConfig(
            spin_system=SpinSystem(
                g=ss["g"], t_m=ss["t_m_us"] * US,
                stretch_beta=ss["stretch_beta"],
                inhomogeneous_sigma=ss["inhomogeneous_sigma_mhz"] * MHZ_TO_RAD,
                label=ss["label"]),
            sample=SampleSpec(
                spin_density=None if rho is None else rho * 1e6,
                active_spin_count=sm["active_spin_count"],
                sensing_volume=None if volume is None else volume * 1e-9),
            calibration=CoilCalibration(
                field_per_volt=cb["field_per_volt_mt"] * MT,
                max_voltage=cb["max_voltage_v"],
                coupling_eta=cb["coupling_eta"]),
            ensemble=blochsim.EnsembleConfig(
                n_packets=en["n_packets"],
                detuning_sigma=en["detuning_sigma_mhz"] * MHZ_TO_RAD,
                rf_amplitude_spread=en["rf_amplitude_spread"],
                seed=top["seed"] if en["seed"] is None else en["seed"]),
            sequence=sq, measurement=top["measurement"],
            rf_n=rf["n"], rf_phase=math.radians(rf["phase_deg"]),
            rf_amplitude=rf["amplitude_mt"] * MT,
            reset_mode=rf["reset_mode"], n_list=rf["n_list"],
            amplitude_grid=rf["amplitude_sweep_mt"],
            phase_grid=rf["phase_sweep_deg"],
            split_grid=rf["phase_sweep_deg"] or _grid(
                {"start": 0, "stop": 360, "points": 37}),
            dd_protocols=dd["protocols"], dd_n_pi=dd["n_pi_list"],
            dd_taus=tuple(t * US for t in dd_taus),
            dd_amplitudes=(dd["amplitude_sweep_mt"] or rf["amplitude_sweep_mt"]
                           or _grid({"start": 0, "stop": 0.5, "points": 41},
                                    scale=MT)),
            dd_reset_mode=dd["reset_mode"],
            noise_sigma=top["noise"]["sigma"],
            n_averages=top["noise"]["n_averages"],
            pulse_mode=top["simulation"]["pulse_mode"],
            trace_points=top["simulation"]["trace_points"],
            seed=top["seed"], raw=dict(source))
        # every sequence a run can build must build; the timing checks do
        # not depend on n_pi, so the smallest n_pi stands for every sweep
        cfg.build_sequence()
        for kind, tau in product(cfg.dd_protocols, cfg.dd_taus):
            cfg.build_sequence(kind, min(cfg.dd_n_pi), tau)
        return cfg
    except ConfigError:
        raise
    except (TypeError, ValueError, OverflowError) as e:
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


def _results_from_observables(cfg: ExperimentConfig, zs, noise_tag=()):
    """EchoResults with `noisy_echo` noise and grid-level phase unwrapping;
    point i's noise is seeded from (7919, *noise_tag, i)."""
    sigma, n_avg = cfg.noise_sigma, cfg.n_averages
    # noise-free sweeps skip the per-point seed derivation
    noisy = ([noisy_echo(z, sigma, n_avg, cfg.point_seed(7919, *noise_tag, i))
              for i, z in enumerate(zs)] if sigma > 0
             else [(z, math.inf) for z in zs])
    zs = [z for z, _ in noisy]
    unwrapped = np.degrees(np.unwrap(np.angle(np.asarray(zs))))
    return [EchoResult(abs(z), wrap_phase(float(ph)), float(ph), snr, n_avg)
            for (z, snr), ph in zip(noisy, unwrapped)]


def _sweep(cfg: ExperimentConfig, seq, waves, axis_name, axis_values,
           metadata, workers: int = 1, seed_offset=(),
           noise_tag=()) -> SweepResult:
    """Simulate one grid.  Point i's ensemble is seeded from
    (*seed_offset, i) and its noise from (*seed_offset, *noise_tag, i):
    every sweep of a run has its own noise tag, so none share noise."""
    filt = filter_function(seq)
    ensembles = [replace(cfg.ensemble, seed=cfg.point_seed(*seed_offset, i))
                 for i in range(len(waves))]
    # one echo_points call per contiguous slice, one slice per worker
    k = max(1, min(workers, len(waves)))
    cuts = [len(waves) * j // k for j in range(k + 1)]
    tasks = [(cfg.spin_system, seq, waves[a:b], ensembles[a:b],
              cfg.pulse_mode, cfg.calibration, cfg.trace_points)
             for a, b in zip(cuts, cuts[1:])]
    zs = [z for part in _map(blochsim.echo_points, tasks, workers)
          for z in part]
    # finite pulses hold the state with the RF off during each drive, so
    # the closed form they match is that of the pulse-gated field
    if cfg.pulse_mode is blochsim.PulseMode.FINITE:
        waves = [pulse_gated(w, seq) for w in waves]
    analytic = [accumulate_phase(cfg.spin_system, cfg.calibration, filt, w).phi
                for w in waves]
    md = {"config_hash": cfg.hash, "seed": cfg.seed, **metadata}
    return SweepResult(axis_name, list(axis_values),
                       _results_from_observables(
                           cfg, zs, (*seed_offset, *noise_tag)),
                       analytic, md)


def run_sweep_amplitude(cfg: ExperimentConfig, workers: int = 1) -> SweepResult:
    """Echo amplitude/phase vs RF field amplitude at fixed RF phase."""
    if cfg.amplitude_grid is None:
        raise ConfigError("rf.amplitude_sweep_mt required for sweep-amplitude")
    seq = cfg.build_sequence()
    waves = [build_synchronized(seq, a, cfg.rf_n, cfg.rf_phase,
                                cfg.reset_mode) for a in cfg.amplitude_grid]
    return _sweep(cfg, seq, waves, "b1_t", cfg.amplitude_grid,
                  {"experiment": "sweep-amplitude"}, workers)


def run_sweep_phase(cfg: ExperimentConfig, workers: int = 1,
                    n: int | None = None) -> SweepResult:
    """Echo amplitude/phase vs RF phase offset at fixed amplitude."""
    if cfg.phase_grid is None:
        raise ConfigError("rf.phase_sweep_deg required for sweep-phase")
    seq = cfg.build_sequence()
    n = n if n is not None else cfg.rf_n
    waves = [build_synchronized(seq, cfg.rf_amplitude, n, math.radians(p),
                                cfg.reset_mode) for p in cfg.phase_grid]
    return _sweep(cfg, seq, waves, "phi_rf_deg", cfg.phase_grid,
                  {"experiment": "sweep-phase", "n": n}, workers,
                  seed_offset=(n,))


def run_symmetry(cfg: ExperimentConfig, workers: int = 1) -> list[SweepResult]:
    """Phase sweeps for a grid of harmonic indices n (odd vs even symmetry)."""
    return [run_sweep_phase(cfg, workers, n=n) for n in cfg.n_list]


def run_split_interval(cfg: ExperimentConfig, workers: int = 1) -> SweepResult:
    """Half-period gating on the first/second/both tau intervals of a Hahn
    sequence, swept over the gated lobe's phase."""
    phis, amp = cfg.split_grid, cfg.rf_amplitude
    seq = cfg.build_sequence(kind=SequenceKind.HAHN)
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
        results[name] = _sweep(cfg, seq, waves, "phi_rf_deg", phis,
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
    """Amplitude sweep per (protocol, n_pi, tau) with refocusing-locked RF;
    the PDD and CP sweeps of one n_pi share their ensembles."""
    out = []
    for p, protocol in enumerate(cfg.dd_protocols):
        for t, tau in enumerate(cfg.dd_taus):
            for n_pi in cfg.dd_n_pi:
                seq = cfg.build_sequence(protocol, n_pi, tau)
                waves = [build_synchronized(seq, a, 1, 0.0, cfg.dd_reset_mode)
                         for a in cfg.dd_amplitudes]
                out.append(_sweep(
                    cfg, seq, waves, "b1_t", cfg.dd_amplitudes,
                    {"experiment": "dd-sweep", "protocol": protocol.value,
                     "n_pi": n_pi, "tau_s": tau},
                    workers, seed_offset=(n_pi,), noise_tag=(p, t)))
    return out


def run_sensitivity(cfg: ExperimentConfig,
                    workers: int = 1) -> list[SensitivityReport]:
    """The dd-sweep, then a transduction fit and a sensitivity report per
    (protocol, n_pi, tau) sweep."""
    resolution = cfg.measurement["phase_resolution_deg"]
    t_meas = cfg.measurement["t_meas_s"]
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
