"""Seeded inputs for the three benchmark workloads.

Everything here is plain JSON and the standard library: the parent process
generates the inputs without importing echosense, so that the set-up time
it measures in fresh interpreters is the program's alone.

A workload spec is a JSON-able dict the worker reads back:

* ``configs``: generated config files, loaded during set-up;
* ``ops``: for ``figures`` and ``finite_dd``, one entry per CLI invocation
  with its argv and the CSV row and simulated-point counts the generated
  grids imply;
* ``designs``: for ``design_scan``, the drawn (protocol, n_pi, tau) designs,
  the amplitude grid and the indices re-checked against the quadrature
  oracle.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

WORKLOADS = ("figures", "finite_dd", "design_scan")

#: (CLI subcommand, bundled config) pairs behind the paper's fig2-fig5
FIGURE_COMMANDS = (
    ("sweep-amplitude", "fig2"),
    ("sweep-phase", "fig2"),
    ("symmetry", "fig3"),
    ("split-interval", "fig3"),
    ("dd-sweep", "fig4"),
    ("sensitivity", "fig5"),
)

#: designs drawn per design_scan pass, and how many are re-checked
#: against the adaptive-quadrature oracle after each run
N_DESIGNS = 2000
N_ORACLE_DESIGNS = 24
DESIGN_AMPLITUDES = 21
DESIGN_B_MAX_MT = 0.5
DESIGN_PROTOCOLS = ("hahn", "pdd", "cp")


def grid_len(spec, default: int) -> int:
    """Number of points of a sweep spec ({start, stop, points} or a list)."""
    if spec is None:
        return default
    if isinstance(spec, dict):
        return int(spec["points"])
    return len(spec)


def _bundled(root: Path, name: str, seed: int) -> dict:
    path = root / "src" / "echosense" / "configs" / f"{name}.json"
    raw = json.loads(path.read_text())
    raw["seed"] = seed
    return raw


def _dd_counts(raw: dict) -> tuple[int, int]:
    """(sweeps, amplitude points per sweep) of a dd-sweep/sensitivity run."""
    dd = raw["dd"]
    sweeps = (len(dd.get("protocols", ["pdd", "cp"]))
              * len(dd.get("n_pi_list", [1, 2, 3, 4, 5]))
              * len(dd.get("tau_us_list", [1.7])))
    return sweeps, grid_len(dd.get("amplitude_sweep_mt"), 41)


def _counts(command: str, raw: dict) -> tuple[int, int]:
    """(CSV rows, simulated points) one CLI invocation produces."""
    rf = raw["rf"]
    if command == "sweep-amplitude":
        n = grid_len(rf["amplitude_sweep_mt"], 0)
        return n, n
    if command == "sweep-phase":
        n = grid_len(rf["phase_sweep_deg"], 0)
        return n, n
    if command == "symmetry":
        n = len(rf.get("n_list", [1, 2, 3, 4])) * grid_len(
            rf["phase_sweep_deg"], 0)
        return n, n
    if command == "split-interval":
        n = grid_len(rf.get("phase_sweep_deg"), 37)
        return n, 4 * n  # first, second, both and full variants per row
    sweeps, amps = _dd_counts(raw)
    if command == "dd-sweep":
        return sweeps * amps, sweeps * amps
    if command == "sensitivity":
        return sweeps, sweeps * amps
    raise ValueError(f"no point count for {command!r}")


def _write(path: Path, raw: dict) -> str:
    path.write_text(json.dumps(raw, indent=1, sort_keys=True))
    return str(path)


def _cli_op(command: str, config: str, raw: dict, outroot: Path) -> dict:
    rows, points = _counts(command, raw)
    return {"command": command,
            "argv": [command, "-c", config, "-o", str(outroot)],
            "rows": rows, "points": points}


def _figures(root: Path, seed: int, indir: Path, outroot: Path) -> dict:
    raws = {name: _bundled(root, name, seed)
            for name in sorted({c for _, c in FIGURE_COMMANDS})}
    paths = {name: _write(indir / f"{name}.json", raw)
             for name, raw in raws.items()}
    ops = [_cli_op(cmd, paths[name], raws[name], outroot)
           for cmd, name in FIGURE_COMMANDS]
    return {"configs": list(paths.values()), "ops": ops}


def _finite_dd(root: Path, seed: int, indir: Path, outroot: Path) -> dict:
    raw = _bundled(root, "fig4", seed)
    raw["simulation"]["pulse_mode"] = "finite"
    raw["ensemble"]["n_packets"] = 1000
    raw["dd"]["n_pi_list"] = [1, 3]
    raw["dd"]["amplitude_sweep_mt"]["points"] = 5
    path = _write(indir / "fig4_finite.json", raw)
    return {"configs": [path], "ops": [_cli_op("dd-sweep", path, raw, outroot)]}


def _design_scan(root: Path, seed: int, indir: Path, outroot: Path) -> dict:
    raw = _bundled(root, "fig4", seed)
    path = _write(indir / "design_base.json", raw)
    rng = random.Random(seed)
    designs = []
    for _ in range(N_DESIGNS):
        protocol = DESIGN_PROTOCOLS[int(rng.random() * len(DESIGN_PROTOCOLS))]
        n_pi = 1 if protocol == "hahn" else 1 + int(rng.random() * 8)
        tau = 0.9e-6 + 0.8e-6 * rng.random()
        designs.append([protocol, n_pi, tau])
    step = DESIGN_B_MAX_MT * 1e-3 / (DESIGN_AMPLITUDES - 1)
    return {"configs": [path],
            "designs": designs,
            "amplitudes_t": [k * step for k in range(DESIGN_AMPLITUDES)],
            "oracle_designs": sorted(rng.sample(range(N_DESIGNS),
                                                N_ORACLE_DESIGNS))}


def generate(workload: str, seed: int, root: Path, rundir: Path) -> dict:
    """Write the workload's inputs under ``rundir`` and return its spec."""
    indir = rundir / "inputs"
    outroot = rundir / "runs"
    indir.mkdir(parents=True)
    make = {"figures": _figures, "finite_dd": _finite_dd,
            "design_scan": _design_scan}[workload]
    spec = make(root, seed, indir, outroot)
    spec.update(workload=workload, seed=seed, rundir=str(rundir),
                src=str(root / "src"))
    if "ops" in spec:
        spec["points_per_pass"] = sum(op["points"] for op in spec["ops"])
    else:
        spec["points_per_pass"] = len(spec["designs"]) * len(
            spec["amplitudes_t"])
    return spec
