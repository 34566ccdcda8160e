"""Config parsing and result emission.

Configs are JSON with bench units (mT, MHz, ns, degrees).  `load_config`
alone knows that format: it parses each section against `SCHEMA` (each
key's default and check) into SI units, and builds no design.  The
config hash names each run directory, and `write_csv` writes every CSV.

This module imports only `core` when it loads.  Each subcommand's plan
and its run are `experiments`'s, and `ExperimentConfig.build_sequence`
loads the sequence builders on first use, so `import echosense` and
`load_config` load neither the simulator nor its closed-form layers.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

from .core import (CoilCalibration, ConfigError, EnsembleConfig, PulseMode,
                   ResetMode, SampleSpec, SequenceKind, SpinSystem, _centred)

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
    "sequence": {"kind": ("hahn", _choice, SequenceKind),
                 "tau_ns": (REQUIRED, _num), "t_pi2_ns": (80, _num),
                 "t_pi_ns": (160, _num), "n_pi": (1, _count, 1)},
    "rf": {"n": (1, _count, 1), "phase_deg": (0.0, _num),
           "amplitude_mt": (1.8, _num, ">= 0"),
           "reset_mode": ("continuous", _choice, ResetMode),
           "n_list": ([1, 2, 3, 4], _list, _count, 1),
           "amplitude_sweep_mt": (None, _field_grid),
           "phase_sweep_deg": (None, _grid)},
    "dd": {"protocols": (["pdd", "cp"], _list, _choice,
                         (SequenceKind.PDD, SequenceKind.CP)),
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
        from .sequence import DD_BUILDERS, build_hahn

        sq = self.sequence
        kind = SequenceKind(kind or sq["kind"])
        tau, t_pi2, t_pi = (sq[k] * NS for k in ("tau_ns", "t_pi2_ns",
                                                  "t_pi_ns"))
        if kind is SequenceKind.HAHN:
            return build_hahn(tau, t_pi2, t_pi)
        return DD_BUILDERS[kind](sq["n_pi"], tau, t_pi2, t_pi)


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
