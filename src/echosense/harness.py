"""Config-driven experiment catalog and result emission.

Configs are JSON with bench units (mT, MHz, ns, degrees).  `load_config`
is the only code that knows that format: it parses every section once
against `SCHEMA`, which holds each key's default and check, and converts
to SI.  Every run is reproducible from (config, seed): per-point
ensemble seeds derive from (ensemble seed, sweep tag, grid index), the
ensemble seed defaulting to the top-level seed, results are gathered in
grid order, and the canonical config hash is stamped into every CSV row
and into the run directory name.

Every subcommand is a plan: `EXPERIMENTS` maps it to a planner, which
returns its `Grid` records (sequence, waves, seed and noise tags, axis,
metadata), a row builder and a CSV stem.  `run_grids`, the one executor,
simulates each distinct (sequence, seed tag) once through `_grid_echoes`,
adds each grid's noise and turns every grid straight into CSV rows; the
row builder then concatenates, pivots (split-interval) or fits
(sensitivity) them.  `dd_sensitivity_sweep` seeds and simulates its
grids through the same `_point_ensembles` and `_grid_echoes`.  Those
load `blochsim` and numpy on first use, so loading and checking a config
loads neither.  `write_csv` writes every CSV, `dump_trace`'s included.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
from collections import namedtuple
from dataclasses import dataclass, field, replace
from itertools import chain, product
from pathlib import Path

from .analytic import accumulate_phase
from .core import (CoilCalibration, ConfigError, EnsembleConfig,
                   NumericalError, PulseMode, SampleSpec, SpinSystem)
from .echo import noisy_echo, wrap_phase
from .rf import (ResetMode, build_split_interval, build_synchronized,
                 pulse_gated)
from .sensitivity import (SensitivityReport, _centred, build_report,
                          fit_transduction, reports_to_rows)
from .sequence import (SequenceKind, build_cp, build_hahn, build_pdd,
                       filter_function)

OUTPUT_ROOT_ENV = "ECHOSENSE_OUTPUT_ROOT"

NS = 1e-9
US = 1e-6
MT = 1e-3
MHZ_TO_RAD = 2 * math.pi * 1e6
#: a key with no default, which every config must give
REQUIRED = object()
#: the largest float spacing (rad) of a configured design's closed-form
#: phase; the bundled configs peak near 16 rad, spaced 3.6e-15 rad
_PHASE_ULP_MAX = 1e-6


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
    """Sweep spec {start, stop, points} or explicit list -> scaled values.

    A spec's points are numpy.linspace's, float for float, from the same
    arithmetic: point k is k * step + start, or (k / (n - 1)) * delta +
    start when the step rounds to zero, and the last point is stop."""
    if isinstance(spec, list):
        return tuple(x * scale for x in _list(spec, where, _num, bound))
    sp = _section(spec, where, {"start": (REQUIRED, _num, bound),
                                "stop": (REQUIRED, _num, bound),
                                "points": (REQUIRED, _count, 1)})
    start, stop, n = sp["start"] * scale, sp["stop"] * scale, sp["points"]
    delta = stop - start
    if n == 1:
        return (0.0 * delta + start,)
    step = delta / (n - 1)
    if step == 0:  # linspace's branch for a step that underflows to zero
        points = [k / (n - 1) * delta + start for k in range(n)]
    else:
        points = [k * step + start for k in range(n)]
    points[-1] = stop
    return tuple(points)


def _increasing(grid) -> bool:
    """Whether the field grid is strictly increasing, as the transduction
    fit needs it."""
    return all(a < b for a, b in zip(grid, grid[1:]))


def _phase_grid(spec, where: str) -> tuple[float, ...]:
    """A phase grid in degrees (spec or list) of finite points: a spec's
    stop - start can overflow although both ends are finite."""
    grid = _grid(spec, where)
    if not all(map(math.isfinite, grid)):
        raise _bad(where, "a sweep whose stop - start is finite", spec)
    return grid


def _field_grid(spec, where: str) -> tuple[float, ...]:
    """An amplitude grid in mT (spec or list) -> strictly increasing,
    non-negative fields in T, whose spread the transduction fit can
    divide by: fields of 1e-203 T are increasing, but their centred sum
    of squares underflows to zero."""
    grid = _grid(spec, where, MT, ">= 0")
    if not _increasing(grid):
        raise _bad(where, "strictly increasing", spec)
    if len(grid) > 1 and not 0.0 < _centred(grid)[2] < math.inf:
        raise _bad(where, "a grid whose centred sum of squares in T^2 is "
                   "positive and finite", spec)
    return grid


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


#: the builder of each DD protocol, from its pulse count, tau, t_pi2, t_pi
_DD_BUILDERS = {SequenceKind.PDD: build_pdd, SequenceKind.CP: build_cp}
#: every key a config may hold, by section ("" is the top level), as
#: (default in bench units, parser, *parser args); a default of None
#: marks an optional key whose absence `load_config` resolves.  Sweep
#: grids come out of their parser in SI units.  The labels,
#: `inhomogeneous_sigma_mhz`, the coil's `field_per_volt_mt` and
#: `max_voltage_v`, and `t_relax_ms` are checked and recorded in the
#: config hash, but not simulated: no record holds them.
SCHEMA = {
    "": {"seed": (0, _count), "label": ("", _text)},
    "spin_system": {"g": (2.0, _num), "t_m_us": (10.0, _num),
                    "stretch_beta": (1.0, _num), "label": ("", _text),
                    "inhomogeneous_sigma_mhz": (0.0, _num, ">= 0")},
    "sample": dict.fromkeys(("spin_density_per_cm3", "active_spin_count",
                             "sensing_volume_mm3"), (None, _num)),
    "calibration": {"field_per_volt_mt": (0.72, _num, "> 0"),
                    "max_voltage_v": (2.5, _num, "> 0"),
                    "coupling_eta": (1.0, _num)},
    "ensemble": {"n_packets": (200, _count, 1),
                 "detuning_sigma_mhz": (0.0, _num),
                 "rf_amplitude_spread": (0.0, _num), "seed": (None, _count)},
    "sequence": {"kind": ("hahn", _choice, (SequenceKind.HAHN, *_DD_BUILDERS)),
                 "tau_ns": (REQUIRED, _num), "t_pi2_ns": (80, _num),
                 "t_pi_ns": (160, _num), "n_pi": (1, _count, 1)},
    "rf": {"n": (1, _count, 1), "phase_deg": (0.0, _num),
           "amplitude_mt": (1.8, _num, ">= 0"),
           "reset_mode": ("continuous", _choice, ResetMode),
           "n_list": ([1, 2, 3, 4], _list, _count, 1),
           "amplitude_sweep_mt": (None, _field_grid),
           "phase_sweep_deg": (None, _phase_grid)},
    "dd": {"protocols": (["pdd", "cp"], _list, _choice, _DD_BUILDERS),
           "n_pi_list": ([1, 2, 3, 4, 5], _list, _count),
           "tau_us_list": (None, _list, _num),
           "amplitude_sweep_mt": (None, _field_grid),
           "reset_mode": ("per-window-reset", _choice, ResetMode)},
    "noise": {"sigma": (0.0, _num, ">= 0"), "n_averages": (1, _count, 1),
              "t_relax_ms": (None, _num, "> 0")},
    "measurement": {"phase_resolution_deg": (1.0, _num, "> 0"),
                    "t_meas_s": (0.375, _num, "> 0")},
    "simulation": {"pulse_mode": ("ideal", _choice, PulseMode),
                   "trace_points": (61, _count, 2)},
}


@dataclass(frozen=True)
class ExperimentConfig:
    """A parsed config, defaults filled in, in SI units (phase grids in
    degrees); `sequence` and `measurement` are keyed in bench units."""

    spin_system: SpinSystem
    sample: SampleSpec
    calibration: CoilCalibration
    ensemble: EnsembleConfig
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
    pulse_mode: PulseMode
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
        return _DD_BUILDERS[kind](n_pi if n_pi is not None else sq["n_pi"],
                                  tau, t_pi2, t_pi)


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
                stretch_beta=ss["stretch_beta"]),
            sample=SampleSpec(
                spin_density=None if rho is None else rho * 1e6,
                active_spin_count=sm["active_spin_count"],
                sensing_volume=None if volume is None else volume * 1e-9),
            calibration=CoilCalibration(coupling_eta=cb["coupling_eta"]),
            ensemble=EnsembleConfig(
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
        _check_designs(cfg)
        return cfg
    except ConfigError:
        raise
    except (TypeError, ValueError, OverflowError) as e:
        raise ConfigError(f"invalid config: {e}") from e


def _check_designs(cfg: ExperimentConfig) -> None:
    """Every design a run can build must build, and its closed-form phase
    at the largest field a command gives it must be finite and resolved
    to `_PHASE_ULP_MAX`: each DD design at the top dd field, and the
    configured sequence at each harmonic of rf.n and rf.n_list and
    split-interval's Hahn train at the top rf field.  The phase is
    sinusoidal in the RF phase, so its largest magnitude is
    hypot(phase at 0, phase at pi/2).  So must the phase by which a
    packet 10 detuning sigmas out precesses over the design's echo time."""
    top_rf = max((cfg.rf_amplitude, *(cfg.amplitude_grid or ())))
    seq = cfg.build_sequence()
    designs = [(f"sequence at harmonic {n}", seq, n, cfg.reset_mode, top_rf)
               for n in sorted({cfg.rf_n, *cfg.n_list})]
    designs.append(("split-interval Hahn train",
                    cfg.build_sequence(SequenceKind.HAHN), 1,
                    ResetMode.CONTINUOUS, top_rf))
    designs += [(f"{kind.value}({n_pi}) at tau {tau:.6g} s",
                 cfg.build_sequence(kind, n_pi, tau), 1, cfg.dd_reset_mode,
                 cfg.dd_amplitudes[-1])
                for kind, tau, n_pi in product(cfg.dd_protocols, cfg.dd_taus,
                                               cfg.dd_n_pi)]
    for name, seq, n, reset, amp in designs:
        filt = filter_function(seq)
        phi = math.hypot(*[accumulate_phase(
            cfg.spin_system, cfg.calibration, filt,
            build_synchronized(seq, amp, n, rf_phase, reset)).phi
            for rf_phase in (0.0, math.pi / 2)])
        drift = 10 * cfg.ensemble.detuning_sigma * seq.echo_time
        if not all(math.isfinite(p) and math.ulp(p) <= _PHASE_ULP_MAX
                   for p in (phi, drift)):
            raise ConfigError(
                f"the {name} accumulates a closed-form phase of {phi:.3g} "
                f"rad at {amp:.3g} T, and a packet 10 detuning sigmas out "
                f"precesses by {drift:.3g} rad; float spacing must resolve "
                f"both to {_PHASE_ULP_MAX} rad: lower the field or "
                f"ensemble.detuning_sigma_mhz")


#: one grid of a plan: point i runs waves[i] on the sequence `seq`, with
#: the ensemble reseeded from (*seed_tag, i) and noise drawn from (7919,
#: *noise_tag, i); its CSV row holds axis_values[i] as `axis_name`, and
#: the metadata
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


def _point_ensembles(ens, tag, n: int) -> list:
    """`ens` reseeded for each of the n points of a grid seeded from `tag`."""
    return [replace(ens, seed=seed) for seed in _point_seeds(ens.seed, tag, n)]


def _grid_echoes(sys: SpinSystem, cal: CoilCalibration, ens, mode,
                 trace_points: int, seq, waves, tag=(),
                 workers: int = 1) -> list[complex]:
    """The clean echoes of one grid: point i runs the i-th of
    _point_ensembles(ens, tag, len(waves)), and each worker runs one
    contiguous slice of the grid through `blochsim.echo_points`."""
    from . import blochsim

    ensembles = _point_ensembles(ens, tag, len(waves))
    k = max(1, min(workers, len(waves)))
    cuts = [len(waves) * j // k for j in range(k + 1)]
    tasks = [(sys, seq, waves[a:b], ensembles[a:b], mode, cal, trace_points)
             for a, b in zip(cuts, cuts[1:])]
    return list(chain(*_map(blochsim.echo_points, tasks, workers)))


def _unwrapped_deg(zs):
    """The phases (deg) of one grid's echoes, unwrapped along the grid, as
    a numpy array."""
    import numpy as np

    return np.degrees(np.unwrap(np.angle(np.asarray(zs))))


def run_grids(cfg: ExperimentConfig, grids, workers: int = 1) -> list:
    """Each grid's CSV rows, one per point: its noisy echo's amplitude and
    phase, unwrapped along the grid, and its closed-form phase.

    Grids that share their sequence, seed tag and waves share one
    simulation (PDD(1) and CP(1) are the same Hahn train); each still
    draws its own noise.  Finite pulses hold the state with the RF
    off during each drive, so their closed form is the pulse-gated one."""
    simulated, out = {}, []
    sigma, finite = cfg.noise_sigma, cfg.pulse_mode is PulseMode.FINITE
    for g in grids:
        hit = simulated.get((g.seq, g.seed_tag))
        if hit is None or hit[0] != g.waves:
            zs = _grid_echoes(cfg.spin_system, cfg.calibration, cfg.ensemble,
                              cfg.pulse_mode, cfg.trace_points, g.seq,
                              g.waves, g.seed_tag, workers)
            filt = filter_function(g.seq)
            analytic = [accumulate_phase(
                cfg.spin_system, cfg.calibration, filt,
                pulse_gated(w, g.seq) if finite else w).phi for w in g.waves]
            hit = simulated[g.seq, g.seed_tag] = g.waves, zs, analytic
        _, zs, analytic = hit
        if sigma > 0:  # noise-free grids skip the per-point seed derivation
            seeds = _point_seeds(cfg.ensemble.seed, (7919, *g.noise_tag),
                                 len(zs))
            zs = [noisy_echo(z, sigma, cfg.n_averages, s)
                  for z, s in zip(zs, seeds)]
        md = {"config_hash": cfg.hash, "seed": cfg.seed, **g.metadata}
        out.append([{"index": i, g.axis_name: float(x),
                     "amplitude_norm": abs(z),
                     "phase_wrapped_deg": wrap_phase(ph),
                     "phase_unwrapped_deg": ph, "analytic_phase_rad": a,
                     "analytic_phase_deg": math.degrees(a), **md}
                    for i, (x, z, ph, a) in enumerate(zip(
                        g.axis_values, zs, _unwrapped_deg(zs).tolist(),
                        analytic))])
    return out


# ---------------------------------------------------------------------------
# plans: each subcommand's grids

def _amplitude_plan(cfg: ExperimentConfig) -> list[Grid]:
    """Echo vs RF field amplitude at fixed RF phase."""
    if cfg.amplitude_grid is None:
        raise ConfigError("rf.amplitude_sweep_mt required for sweep-amplitude")
    seq = cfg.build_sequence()
    return [Grid(seq, [build_synchronized(seq, a, cfg.rf_n, cfg.rf_phase,
                                          cfg.reset_mode)
                       for a in cfg.amplitude_grid],
                 (), (), "b1_t", cfg.amplitude_grid,
                 {"experiment": "sweep-amplitude"})]


def dump_trace(cfg: ExperimentConfig, outdir: Path) -> Path:
    """Write outdir/trace.csv: time_s, mx, my of the echo window of point 0
    of the amplitude plan, with that point's wave and ensemble."""
    from . import blochsim

    [g] = _amplitude_plan(cfg)
    tr = blochsim.evolve(cfg.spin_system, g.seq, g.waves[0],
                         _point_ensembles(cfg.ensemble, g.seed_tag, 1)[0],
                         cfg.pulse_mode, cfg.calibration, cfg.trace_points)
    path = outdir / "trace.csv"
    write_csv(path, [{"time_s": t, "mx": m.real, "my": m.imag} for t, m
                     in zip(tr.times.tolist(), tr.ensemble_mxy.tolist())])
    return path


def _phase_plan(cfg: ExperimentConfig, harmonics) -> list[Grid]:
    """Echo vs RF phase offset at fixed amplitude, a grid per harmonic."""
    if cfg.phase_grid is None:
        raise ConfigError("rf.phase_sweep_deg required for sweep-phase")
    seq = cfg.build_sequence()
    return [Grid(seq, [build_synchronized(seq, cfg.rf_amplitude, n,
                                          math.radians(p), cfg.reset_mode)
                       for p in cfg.phase_grid],
                 (n,), (n,), "phi_rf_deg", cfg.phase_grid,
                 {"experiment": "sweep-phase", "n": n}) for n in harmonics]


def _split_plan(cfg: ExperimentConfig) -> list[Grid]:
    """Half-period gating on the first, second and both tau intervals of a
    Hahn sequence, and the full synchronized field, each swept over the
    gated lobe's phase: a grid per variant."""
    phis, amp = cfg.split_grid, cfg.rf_amplitude
    seq = cfg.build_sequence(kind=SequenceKind.HAHN)
    rads = [math.radians(p) for p in phis]
    variants = {
        "first": [build_split_interval(seq.tau, amp, r, enable_second=False)
                  for r in rads],
        "second": [build_split_interval(seq.tau, amp, 0.0, r,
                                        enable_first=False) for r in rads],
        "both": [build_split_interval(seq.tau, amp, r) for r in rads],
        "full": [build_synchronized(seq, amp, 1, r, ResetMode.CONTINUOUS)
                 for r in rads],
    }
    return [Grid(seq, waves, (v,), (v,), "phi_rf_deg", phis,
                 {"experiment": "split-interval", "variant": name})
            for v, (name, waves) in enumerate(variants.items(), 1)]


def _dd_plan(cfg: ExperimentConfig) -> list[Grid]:
    """An amplitude grid per (protocol, tau, n_pi) with refocusing-locked
    RF; the grids of one n_pi share their ensembles."""
    grids = []
    for (p, protocol), (t, tau), n_pi in product(
            enumerate(cfg.dd_protocols), enumerate(cfg.dd_taus), cfg.dd_n_pi):
        seq = cfg.build_sequence(protocol, n_pi, tau)
        grids.append(Grid(
            seq, [build_synchronized(seq, a, 1, 0.0, cfg.dd_reset_mode)
                  for a in cfg.dd_amplitudes],
            (n_pi,), (n_pi, p, t), "b1_t", cfg.dd_amplitudes,
            {"experiment": "dd-sweep", "protocol": protocol.value,
             "n_pi": n_pi, "tau_s": tau}))
    return grids


def _sensitivity_plan(cfg: ExperimentConfig) -> list[Grid]:
    """The dd grids, whose fits each need 3 fields: checked unsimulated."""
    if len(cfg.dd_amplitudes) < 3:
        raise ConfigError("sensitivity needs at least 3 dd fields, got "
                          f"{len(cfg.dd_amplitudes)}")
    return _dd_plan(cfg)


# ---------------------------------------------------------------------------
# rows: each subcommand's CSV rows from its grids' rows

def _concat(cfg: ExperimentConfig, per_grid) -> list[dict]:
    return list(chain(*per_grid))


def _split_rows(cfg: ExperimentConfig, per_grid) -> list[dict]:
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


def _sensitivity_rows(cfg: ExperimentConfig, per_grid) -> list[dict]:
    """A transduction fit and sensitivity report per dd grid.  Its fields
    were checked before the grid ran, so a fit or report that fails here
    fails on the simulated phases: a NumericalError naming the sweep."""
    resolution = cfg.measurement["phase_resolution_deg"]
    t_meas = cfg.measurement["t_meas_s"]
    reports = []
    for rows in per_grid:
        md = rows[0]
        try:
            fit = fit_transduction((r["b1_t"], r["phase_unwrapped_deg"])
                                   for r in rows)
            reports.append(build_report(fit, resolution, t_meas, cfg.sample,
                                        md["protocol"], md["n_pi"],
                                        md["tau_s"]))
        except ConfigError as e:
            raise NumericalError(
                f"the simulated {md['protocol']}({md['n_pi']}) sweep at tau "
                f"{md['tau_s']:.6g} s has no sensitivity: {e}") from e
    return reports_to_rows(reports)


def dd_sensitivity_sweep(protocol: SequenceKind, n_pi_list, tau: float,
                         sys: SpinSystem, cal: CoilCalibration,
                         sample: SampleSpec, amplitudes, ens_base,
                         t_pi2: float, t_pi: float,
                         phase_resolution: float = 1.0, t_meas: float = 0.375,
                         reset_mode: ResetMode = ResetMode.PER_WINDOW_RESET,
                         mode: PulseMode = PulseMode.IDEAL,
                         trace_points: int = 61,
                         ) -> list[SensitivityReport]:
    """Simulated amplitude sweep -> transduction fit -> report, per pulse
    count of one protocol, without a config.

    Point i of the n_pi sweep runs `ens_base` reseeded from (n_pi, i), as
    in the dd plan, so PDD and CP runs of the same n_pi share identical
    ensembles.  `trace_points` is the echo-window sampling of every point.
    """
    protocol = SequenceKind(protocol)
    if protocol not in _DD_BUILDERS:
        raise ConfigError(f"protocol must be PDD or CP, got {protocol}")
    build = _DD_BUILDERS[protocol]
    amplitudes = [float(a) for a in amplitudes]
    if len(amplitudes) < 3:
        raise ConfigError("need at least 3 amplitude grid points")
    if not _increasing(amplitudes):
        raise ConfigError("amplitudes must be strictly increasing")

    reports = []
    for n_pi in n_pi_list:
        seq = build(n_pi, tau, t_pi2, t_pi)
        waves = [build_synchronized(seq, a, 1, 0.0, reset_mode)
                 for a in amplitudes]
        zs = _grid_echoes(sys, cal, ens_base, mode, trace_points, seq, waves,
                          (int(n_pi),))
        fit = fit_transduction(zip(amplitudes, _unwrapped_deg(zs)))
        reports.append(build_report(fit, phase_resolution, t_meas, sample,
                                    protocol.value, int(n_pi), tau))
    return reports


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


#: CLI subcommand -> (plan(cfg): its grids, rows(cfg, each grid's
#: `run_grids` rows): its CSV rows, stem of the CSV they go to)
EXPERIMENTS = {
    "sweep-amplitude": (_amplitude_plan, _concat, "sweep_amplitude"),
    "sweep-phase": (lambda cfg: _phase_plan(cfg, (cfg.rf_n,)), _concat,
                    "sweep_phase"),
    "symmetry": (lambda cfg: _phase_plan(cfg, cfg.n_list), _concat,
                 "symmetry"),
    "split-interval": (_split_plan, _split_rows, "split"),
    "dd-sweep": (_dd_plan, _concat, "dd_sweep"),
    "sensitivity": (_sensitivity_plan, _sensitivity_rows, "sensitivity"),
}


def run_experiment(command: str, cfg: ExperimentConfig,
                   workers: int = 1) -> list[dict]:
    """`command`'s CSV rows on `cfg`, each ending in cfg's hash and seed."""
    plan, rows, _ = EXPERIMENTS[command]
    return [{**row, "config_hash": cfg.hash, "seed": cfg.seed}
            for row in rows(cfg, run_grids(cfg, plan(cfg), workers))]


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
    """The output root (`override`, else $ECHOSENSE_OUTPUT_ROOT, else
    ./runs), created if missing.  Runs call it before their first sweep,
    so that a root that cannot be created fails before any simulation."""
    root = Path(override or os.environ.get(OUTPUT_ROOT_ENV, "runs"))
    root.mkdir(parents=True, exist_ok=True)
    return root


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
    outroot = output_root(outroot)

    def rows(experiment):
        return run_experiment(experiment, cfg, workers)

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
