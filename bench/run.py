"""echosense benchmark.

    python3 bench/run.py --workload figures --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; echosense is imported from its
``src/`` directory (nothing is installed).  Inputs are generated from
``--seed`` under ``.bench_out/``, and every run's CLI output goes there too.

``--trace 0`` prints the end-to-end metrics: set-up time (median of fresh
interpreters that import echosense and load the generated configs), and,
from a fresh worker interpreter that repeats the workload for ``--seconds``
of timed wall clock, the median per-pass throughput and CPU per point and
the worker's peak RSS.  Throughput and CPU are given in reference seconds
(``reference.py``), which takes out the drift of the host's speed; the
plain per-second figures are printed too.  ``--trace 1`` prints the
per-layer metrics of ``tracing.layer_metrics`` plus import-time, pool and
tracing-overhead numbers.  Both check every pass's outputs; an op (one CLI
invocation or one design) fails on an exception, a nonzero exit code or a
failed check.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it are a
readable report that also gives ``fail_ratio`` and the host record.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import inputs

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
#: timed fresh-interpreter set-ups per run, after one untimed warm-up that
#: fills the page cache and writes the bytecode caches
SETUP_RUNS = 5
IMPORTTIME_RUNS = 3
WORKER_TIMEOUT_S = 150

#: end-to-end metric each per-layer metric should move, and on which
#: workloads; "-" marks a metric meant to stay put
LAYER_TARGETS = {
    "import.echosense_s": ("setup_s", "all"),
    "import.scipy_s": ("setup_s", "all"),
    "harness.load_config_ms": ("setup_s", "all"),
    "core.calls": ("points_per_s", "design_scan"),
    "core.self_ms": ("points_per_s", "design_scan"),
    "sequence.calls": ("points_per_s", "design_scan"),
    "sequence.self_ms": ("points_per_s", "design_scan"),
    "rf.build_calls": ("points_per_s", "design_scan"),
    "rf.build_self_ms": ("points_per_s", "design_scan"),
    "rf.integral_calls": ("points_per_s", "design_scan"),
    "rf.integral_self_ms": ("points_per_s", "design_scan"),
    "analytic.calls": ("points_per_s", "design_scan"),
    "analytic.self_ms": ("points_per_s", "design_scan"),
    "blochsim.evolve_calls": ("points_per_s", "figures"),
    "blochsim.evolves_per_point": ("points_per_s", "figures"),
    "blochsim.ideal_self_ms": ("points_per_s", "figures"),
    "blochsim.ideal_call_p50_ms": ("points_per_s", "figures"),
    "blochsim.ideal_call_p90_ms": ("points_per_s", "figures"),
    "blochsim.echo_observable_self_ms": ("points_per_s", "figures"),
    "blochsim.ideal_ns_per_packet_interval": ("points_per_s", "figures"),
    "blochsim.finite_self_ms": ("points_per_s, cpu_ms_per_point",
                                "finite_dd"),
    "blochsim.finite_call_p50_ms": ("points_per_s, cpu_ms_per_point",
                                    "finite_dd"),
    "blochsim.finite_call_p90_ms": ("points_per_s, cpu_ms_per_point",
                                    "finite_dd"),
    "blochsim.finite_ns_per_packet_interval": ("points_per_s", "finite_dd"),
    "blochsim.packet_intervals": ("points_per_s", "figures, finite_dd"),
    "echo.calls": ("- (stays small)", "figures"),
    "echo.self_ms": ("- (stays small)", "figures"),
    "sensitivity.fit_calls": ("points_per_s", "design_scan"),
    "sensitivity.fit_self_ms": ("points_per_s", "design_scan"),
    "sensitivity.dd_sweep_self_ms": ("points_per_s", "figures"),
    "harness.sweep_self_ms": ("points_per_s", "figures"),
    "harness.emit_ms": ("points_per_s", "figures"),
    "harness.csv_rows": ("- (fixed by the grids)", "figures"),
    "harness.csv_bytes": ("- (fixed by the grids)", "figures"),
    "harness.pool2_speedup": ("- (side measurement)", "figures, finite_dd"),
    "cli.self_ms": ("points_per_s", "figures"),
    "trace.overhead_ratio": ("- (tracing cost)", "all"),
    "trace.spans": ("- (tracing cost)", "all"),
}
UNITS = {"points_per_s": "1/s", "cpu_ms_per_point": "ms", "setup_s": "s",
         "points_per_ref_s": "1/ref_s", "cpu_ref_ms_per_point": "ref_ms",
         "peak_rss_mb": "MB", "blochsim.evolves_per_point": "1/point"}


def _unit(name: str) -> str:
    if name in UNITS:
        return UNITS[name]
    for suffix, unit in (("_ms", "ms"), ("_s", "s"),
                         ("_ns_per_packet_interval", "ns"),
                         ("_bytes", "B")):
        if name.endswith(suffix):
            return unit
    return "ratio" if name.endswith(("_ratio", "_speedup")) else "count"


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    return env


def _python(args, timeout=WORKER_TIMEOUT_S, **kw) -> subprocess.CompletedProcess:
    """Run a fresh interpreter in the checkout; it is waited for, and
    killed on timeout."""
    return subprocess.run([sys.executable, *args], cwd=ROOT, env=_env(),
                          timeout=timeout, check=True, **kw)


def _setup_s(spec_path: Path) -> list[float]:
    args = [str(BENCH / "worker.py"), "setup", str(spec_path)]
    _python(args)  # warm-up
    times = []
    for _ in range(SETUP_RUNS):
        t0 = time.perf_counter()
        # no timeout: with one, subprocess polls for the exit every 50 ms
        _python(args, timeout=None)
        times.append(time.perf_counter() - t0)
    return times


def _import_times() -> dict:
    """Cumulative import time of echosense and of scipy from
    ``python -X importtime``, median of IMPORTTIME_RUNS fresh runs."""
    runs = []
    for _ in range(IMPORTTIME_RUNS):
        err = _python(["-X", "importtime", "-c", "import echosense"],
                      capture_output=True, text=True).stderr
        runs.append(parse_importtime(err))
    return {k: statistics.median(r[k] for r in runs) for k in runs[0]}


def parse_importtime(text: str) -> dict:
    """echosense's cumulative import time, and the summed cumulative time
    of the outermost scipy imports (those not nested in another scipy
    import), in seconds."""
    entries = []
    for line in text.splitlines():
        m = re.match(r"import time:\s+(\d+) \|\s+(\d+) \|( *)(\S+)", line)
        if m:
            entries.append((len(m.group(3)), int(m.group(2)), m.group(4)))
    # importtime lists a module after everything it imported, indented
    # one step less; walk backwards to see parents before children
    stack, echosense_us, scipy_us = [], 0, 0
    for depth, cum, name in reversed(entries):
        while stack and stack[-1][0] >= depth:
            stack.pop()
        in_scipy = any(n.split(".")[0] == "scipy" for _, n in stack)
        if name == "echosense":
            echosense_us = cum
        elif name.split(".")[0] == "scipy" and not in_scipy:
            scipy_us += cum
        stack.append((depth, name))
    return {"import.echosense_s": echosense_us / 1e6,
            "import.scipy_s": scipy_us / 1e6}


def _git_commit() -> str:
    """HEAD of the checkout, if the checkout is itself a git work tree."""
    try:
        out = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"],
                             cwd=ROOT, capture_output=True, text=True,
                             timeout=30).stdout.split()
    except OSError:
        return "unknown"
    if len(out) == 2 and Path(out[0]).resolve() == ROOT:
        return out[1]
    return "unknown (not a git checkout)"


def _host(spec, versions: dict) -> dict:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "echosense").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(path.relative_to(ROOT).as_posix().encode())
            digest.update(path.read_bytes())
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            **versions, "git_commit": _git_commit(),
            "src_sha256": digest.hexdigest()[:16],
            "workload": spec["workload"], "seed": spec["seed"],
            "points_per_pass": spec["points_per_pass"]}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=inputs.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "echosense" / "__init__.py").is_file():
        print(f"error: no echosense source under {ROOT / 'src'}; run from "
              "the root of a source checkout", file=sys.stderr)
        return 2

    rundir = ROOT / ".bench_out" / (
        f"{args.workload}-seed{args.seed}-trace{args.trace}")
    shutil.rmtree(rundir, ignore_errors=True)
    spec = inputs.generate(args.workload, args.seed, ROOT, rundir)
    spec["seconds"] = args.seconds
    spec_path = rundir / "spec.json"
    spec_path.write_text(json.dumps(spec))

    mode = "trace" if args.trace else "measure"
    setup = [] if args.trace else _setup_s(spec_path)
    result_path = rundir / "result.json"
    _python([str(BENCH / "worker.py"), mode, str(spec_path),
             str(result_path)])
    res = json.loads(result_path.read_text())
    host = _host(spec, res.pop("versions"))
    passes = res["passes"]
    points = res["points_per_pass"]
    attempted = sum(p["ops"] for p in passes)
    failed = sum(p["failed"] for p in passes)

    raw = {}
    if args.trace:
        metrics = {**_import_times(), **res["layers"]}
        metrics = {k: metrics[k] for k in LAYER_TARGETS}
    else:
        # reference seconds per second of this pass (reference.py)
        speed = [res["ref_nominal_s"] / p["ref_s"] for p in passes]
        raw = {
            "points_per_s": statistics.median(points / p["wall_s"]
                                              for p in passes),
            "cpu_ms_per_point": statistics.median(1e3 * p["cpu_s"] / points
                                                  for p in passes),
        }
        metrics = {
            "points_per_ref_s": statistics.median(
                points / (p["wall_s"] * s) for p, s in zip(passes, speed)),
            "cpu_ref_ms_per_point": statistics.median(
                1e3 * p["cpu_s"] * s / points for p, s in zip(passes, speed)),
            "peak_rss_mb": res["peak_rss_mb"],
            "setup_s": statistics.median(setup),
        }

    report = {"host": host, "passes": passes, "setup_runs_s": setup,
              "fail_ratio": failed / attempted, "attempted": attempted,
              "failed": failed, "metrics": metrics, "raw_metrics": raw,
              **{k: v for k, v in res.items() if k not in ("passes", "layers")}}
    (rundir / "report.json").write_text(json.dumps(report, indent=1))

    print(f"# echosense benchmark: workload={args.workload} "
          f"seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print("# host " + json.dumps(host))
    walls = ", ".join(f"{p['wall_s']:.3f}" for p in passes)
    print(f"# {len(passes)} passes x {points} points; wall per pass "
          f"{walls} s")
    print(f"# fail_ratio {failed / attempted:.6g} ratio "
          f"({failed} failed of {attempted} ops)")
    for p in passes:
        for msg in p["errors"]:
            print(f"# FAILED {msg}")
    for name, value in raw.items():
        print(f"# (not normalised) {name} {value:.6g} {_unit(name)}")
    for name, value in metrics.items():
        target = LAYER_TARGETS.get(name)
        moves = f"  -> {target[0]} on {target[1]}" if target else ""
        print(f"# {name} {value:.6g} {_unit(name)}{moves}")
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": _unit(k)}
                    for k, v in metrics.items()}}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
