"""Config-driven experiment catalog and result emission.

Configs are JSON with bench units (mT, MHz, ns, degrees).  `load_config`
alone knows that format: it parses each section against `SCHEMA` (each
key's default and check) into SI units, and builds no design.  A run is
reproducible from (config, seed): point seeds derive from (ensemble
seed, sweep tag, grid index), results keep grid order, and the config
hash is stamped into every CSV row and into the run directory name.

`EXPERIMENTS` maps each subcommand to a plan, which returns its `Grid`
records (sequence, waves, seed and noise tags, axis, metadata), a row
builder, which turns the grids and their rows into CSV rows, and a CSV
stem.  `run_grids`, the one executor, checks every grid's closed-form
phases (`_closed_forms`) before it simulates each distinct (sequence,
seed tag) once, and turns every grid into noisy rows stamped with the
caller's config hash and seed; `validate` runs the same check on every
command whose grids the config gives.  The library's
`dd_sensitivity_sweep` is the `sensitivity` command without a config:
the same dd grids (`_dd_grids`), executor and fit (`_dd_reports`).
`run_grids` loads `blochsim` and numpy on first use, so loading and
checking a config loads neither.  `write_csv` writes every CSV.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
from collections import namedtuple
from contextlib import contextmanager
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
#: the largest float spacing (rad) of a planned closed-form phase and of
#: a 10-sigma detuning drift; the bundled configs peak near 16 rad,
#: spaced 3.6e-15 rad
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


def _field_grid(spec, where: str) -> tuple[float, ...]:
    """An amplitude grid in mT (spec or list) -> `_check_fields` fields."""
    grid = _grid(spec, where, MT, ">= 0")
    _check_fields(grid, where, spec)
    return grid


def _check_fields(fields, where: str, shown) -> None:
    """Strictly increasing fields (T) whose spread the transduction fit
    can divide by: fields of 1e-203 T increase, but their centred sum of
    squares underflows to zero."""
    if not all(a < b for a, b in zip(fields, fields[1:])):
        raise _bad(where, "strictly increasing", shown)
    if len(fields) > 1 and not 0.0 < _centred(fields)[2] < math.inf:
        raise _bad(where, "a grid whose centred sum of squares in T^2 is "
                   "positive and finite", shown)


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
           "phase_sweep_deg": (None, _grid)},
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

    def build_sequence(self, kind=None):
        sq = self.sequence
        kind = SequenceKind(kind or sq["kind"])
        tau, t_pi2, t_pi = (sq[k] * NS for k in ("tau_ns", "t_pi2_ns",
                                                  "t_pi_ns"))
        if kind is SequenceKind.HAHN:
            return build_hahn(tau, t_pi2, t_pi)
        return _DD_BUILDERS[kind](sq["n_pi"], tau, t_pi2, t_pi)


def read_json(path):
    """The JSON document in the file `path`; a file that cannot be read or
    parsed is a ConfigError."""
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, ValueError) as e:
        raise ConfigError(f"cannot read {path}: {e}") from e


@contextmanager
def _bad_values():
    """Report the errors that a bad config value raises as a ConfigError."""
    try:
        yield
    except ConfigError:
        raise
    except (TypeError, ValueError, OverflowError) as e:
        raise ConfigError(f"invalid config: {e}") from e


def load_config(source) -> ExperimentConfig:
    """Parse a config dict or JSON file against `SCHEMA` (fail-fast).  It
    builds no design: each run checks its own plan, `validate` them all."""
    with _bad_values():
        if isinstance(source, (str, Path)):
            source = read_json(source)
        top = _section(source, "", {**SCHEMA[""], **{
            name: ({}, _section, SCHEMA[name]) for name in SCHEMA if name}})
        ss, sm, cb, en, sq, rf, dd = (top[name] for name in (
            "spin_system", "sample", "calibration", "ensemble", "sequence",
            "rf", "dd"))
        rho, volume = sm["spin_density_per_cm3"], sm["sensing_volume_mm3"]
        dd_taus = dd["tau_us_list"] or (sq["tau_ns"] * NS / US,)
        return ExperimentConfig(
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


def _closed_forms(sim, grids) -> list[list[float]]:
    """Each grid's closed-form phases (rad), pulse-gated for finite pulses,
    which hold the state with the RF off during each drive.  Each phase,
    and the drift of a packet 10 detuning sigmas out over the echo time,
    must be finite and resolved to `_PHASE_ULP_MAX` by float spacing."""
    finite, out = sim.pulse_mode is PulseMode.FINITE, []
    with _bad_values():
        for g in grids:
            filt = filter_function(g.seq)
            phis = [accumulate_phase(
                sim.spin_system, sim.calibration, filt,
                pulse_gated(w, g.seq) if finite else w).phi for w in g.waves]
            drift = 10 * sim.ensemble.detuning_sigma * g.seq.echo_time
            ok = math.isfinite(drift) and math.ulp(drift) <= _PHASE_ULP_MAX
            for x, phi in zip(g.axis_values, phis):
                if not (ok and math.isfinite(phi)
                        and math.ulp(phi) <= _PHASE_ULP_MAX):
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
            ensembles = _point_ensembles(sim.ensemble, g.seed_tag, n)
            k = max(1, min(workers, n))
            cuts = [n * j // k for j in range(k + 1)]
            tasks = [(sim.spin_system, g.seq, g.waves[a:b], ensembles[a:b],
                      sim.pulse_mode, sim.calibration, sim.trace_points)
                     for a, b in zip(cuts, cuts[1:])]
            zs = list(chain(*_map(blochsim.echo_points, tasks, workers)))
            hit = simulated[g.seq, g.seed_tag] = g.waves, zs
        zs = hit[1]
        if sigma > 0:  # noise-free grids skip the per-point seed derivation
            seeds = _point_seeds(sim.ensemble.seed, (7919, *g.noise_tag),
                                 len(zs))
            zs = [noisy_echo(z, sigma, sim.n_averages, s)
                  for z, s in zip(zs, seeds)]
        unwrapped = np.degrees(np.unwrap(np.angle(np.asarray(zs)))).tolist()
        md = {**stamp, **g.metadata}
        out.append([{"index": i, g.axis_name: float(x),
                     "amplitude_norm": abs(z),
                     "phase_wrapped_deg": wrap_phase(ph),
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


def _phase_plan(cfg: ExperimentConfig, experiment: str,
                harmonics) -> list[Grid]:
    """Echo vs RF phase offset at fixed amplitude, a grid per harmonic."""
    if cfg.phase_grid is None:
        raise _MissingGrid("sweep-phase and symmetry need rf.phase_sweep_deg")
    seq = cfg.build_sequence()
    return [Grid(seq, [build_synchronized(seq, cfg.rf_amplitude, n,
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


def _dd_grids(protocols, taus, n_pi_list, amplitudes, t_pi2: float,
              t_pi: float, reset_mode: ResetMode, md: dict) -> list[Grid]:
    """An amplitude grid per (protocol, tau, n_pi) with refocusing-locked
    RF, tagged with `md` and its protocol, n_pi and tau; the grids of one
    n_pi share their ensembles."""
    grids = []
    for (p, protocol), (t, tau), n_pi in product(
            enumerate(protocols), enumerate(taus), n_pi_list):
        seq = _DD_BUILDERS[protocol](n_pi, tau, t_pi2, t_pi)
        n_pi = seq.n_pi  # an int, whatever integer type the caller gave
        grids.append(Grid(
            seq, [build_synchronized(seq, a, 1, 0.0, reset_mode)
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
               sample: SampleSpec, ens) -> list[SensitivityReport]:
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
            fit = fit_transduction((r["b1_t"], r["phase_unwrapped_deg"])
                                   for r in rows)
            reports.append(build_report(fit, resolution, t_meas, sample,
                                        protocol, n_pi, tau))
        except ConfigError as err:
            e = filter_function(seq).edges
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
    return reports_to_rows(_dd_reports(
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
                         ) -> list[SensitivityReport]:
    """Simulated amplitude sweep -> transduction fit -> report, per pulse
    count of one protocol: the `sensitivity` command without a config or
    noise.  Point i of the n_pi sweep runs `ens_base` reseeded from (n_pi,
    i), so PDD and CP runs of the same n_pi share identical ensembles.

    The inputs and closed-form phases are checked before any simulation,
    as a config's are: a bad one is a ConfigError.  A sweep whose
    simulated phases defeat the fit is a NumericalError naming it.
    """
    with _bad_values():
        protocol = SequenceKind(protocol)
        if protocol not in _DD_BUILDERS:
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


def emit(outdir: Path, tables: dict) -> list[Path]:
    """Write each {stem: rows} table to outdir/<stem>.csv; return the
    written paths."""
    written = []
    for stem, rows in tables.items():
        path = outdir / f"{stem}.csv"
        write_csv(path, rows)
        written.append(path)
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


def reproduce(figure: str, outroot=None, workers: int = 1) -> list[Path]:
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
                {f"{figure}_{stem}": r for stem, r in tables.items()})
