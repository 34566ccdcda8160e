"""Benchmark worker: one workload in a fresh interpreter.

    python3 bench/worker.py setup   SPEC.json
    python3 bench/worker.py measure SPEC.json RESULT.json
    python3 bench/worker.py trace   SPEC.json RESULT.json

``setup`` imports echosense and loads the generated configs, nothing else;
the parent times it from spawn to exit.  ``measure`` runs untraced passes
over the workload for ``spec["seconds"]`` of timed wall clock, sampling
the host-speed reference of ``reference.py`` as it goes, and checks every
pass's outputs outside the timed region.  ``trace`` runs two untraced
passes, then traced passes, then (for the CLI workloads) one pass with a
process pool, and reports per-layer numbers.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import os
import resource
import statistics
import sys
import time
from pathlib import Path

#: Worst |simulated - analytic| echo phase of a sweep, as a share of the
#: sweep's largest |analytic| phase.  The simulated phase is the phase of
#: an average over P packets whose RF amplitude factor has a relative
#: spread sigma (0.3 at P=300 in fig2/fig3, 0.2 at P=200 in fig4/fig5,
#: 0.2 at P=1000 in finite_dd), so it scatters about the closed form by
#: a few sigma/sqrt(P) (0.6-1.7%); finite pulses add their RF-gating
#: dead time.  Seeds 1-30 gave at most 6.5% (ideal, split-interval) and
#: seeds 1-20 at most 2.3% (finite).
#: A sign, harmonic or factor-of-two error moves it by 50-200%.
PHASE_REL_TOL = 0.15
#: even RF harmonics integrate to zero over every tau window; observed
#: |phase| is rounding, ~1e-14 deg
NULL_PHASE_DEG = 1e-6
NULL_ANALYTIC_RAD = 1e-9
#: closed form vs the adaptive-quadrature oracle (acceptance-1 tolerance)
ORACLE_REL_TOL = 1e-9
SLOPE_REL_TOL = 1e-9
#: reference passes and the pool size of the trace run
TRACE_REF_PASSES = 2
POOL_WORKERS = 2


def _load_configs(spec) -> list:
    from echosense import harness

    return [harness.load_config(path) for path in spec["configs"]]


# ---------------------------------------------------------------------------
# output checks


def _wrapped(d: float) -> float:
    return abs((d + math.pi) % (2 * math.pi) - math.pi)


def _residual(rows, sim_col: str, ana_col: str) -> list[str]:
    """Simulated phase of every row vs the analytic phase in that row."""
    ana = [float(r[ana_col]) for r in rows]
    scale = max(abs(a) for a in ana)
    if scale < NULL_ANALYTIC_RAD:
        return [f"{ana_col}: analytic phase vanishes over the sweep"]
    worst = max(_wrapped(math.radians(float(r[sim_col])) - a)
                for r, a in zip(rows, ana)) / scale
    if worst > PHASE_REL_TOL:
        return [f"{sim_col}: worst residual {worst:.3g} of the sweep's "
                f"max analytic phase exceeds {PHASE_REL_TOL}"]
    return []


def _groups(rows, *keys) -> dict:
    out: dict = {}
    for r in rows:
        out.setdefault(tuple(r[k] for k in keys), []).append(r)
    return out


def _check_symmetry(rows) -> list[str]:
    bad = []
    for (n,), grp in _groups(rows, "n").items():
        if int(n) % 2 == 0:
            sim = max(abs(float(r["phase_unwrapped_deg"])) for r in grp)
            ana = max(abs(float(r["analytic_phase_rad"])) for r in grp)
            if sim > NULL_PHASE_DEG or ana > NULL_ANALYTIC_RAD:
                bad.append(f"even harmonic n={n} not null: simulated "
                           f"{sim:.3g} deg, analytic {ana:.3g} rad")
        else:
            bad += _residual(grp, "phase_unwrapped_deg", "analytic_phase_rad")
    return bad


def _check_sensitivity(rows) -> list[str]:
    bad = []
    for r in rows:
        b_min = float(r["b_min_t"])
        if not (math.isfinite(b_min) and b_min > 0):
            bad.append(f"non-positive b_min {b_min}")
    ones = {r["protocol"]: {k: v for k, v in r.items() if k != "protocol"}
            for r in rows if r["n_pi"] == "1"}
    if len(ones) == 2 and ones.get("pdd") != ones.get("cp"):
        bad.append("PDD(1) and CP(1) sensitivity rows differ")
    elif len(ones) != 2:
        bad.append("missing PDD(1) or CP(1) sensitivity row")
    return bad


def check_csv(command: str, rows) -> list[str]:
    if command in ("sweep-amplitude", "sweep-phase"):
        return _residual(rows, "phase_unwrapped_deg", "analytic_phase_rad")
    if command == "symmetry":
        return _check_symmetry(rows)
    if command == "split-interval":
        return [msg for v in ("first", "second", "both", "full")
                for msg in _residual(rows, f"phase_{v}_deg",
                                     f"analytic_{v}_rad")]
    if command == "dd-sweep":
        return [msg for grp in _groups(rows, "protocol", "n_pi",
                                       "tau_s").values()
                for msg in _residual(grp, "phase_unwrapped_deg",
                                     "analytic_phase_rad")]
    if command == "sensitivity":
        return _check_sensitivity(rows)
    raise ValueError(command)


# ---------------------------------------------------------------------------
# workloads


class CliWorkload:
    """``figures`` and ``finite_dd``: generated configs through cli.main."""

    def __init__(self, spec, es):
        self.ops = spec["ops"]
        self.points = spec["points_per_pass"]
        self.cli = es.cli
        self.digests = None  # CSV digests of the first pass

    def run_pass(self, tracer=None, workers: int = 1) -> list:
        out = []
        for i, op in enumerate(self.ops):
            if tracer is not None:
                tracer.op = i
            argv = op["argv"] + (["--workers", str(workers)]
                                 if workers > 1 else [])
            buf = io.StringIO()
            try:
                with contextlib.redirect_stdout(buf):
                    rc = self.cli.main(argv)
                out.append((rc, buf.getvalue().split(), None))
            except Exception as e:  # an op that raises counts as failed
                out.append((None, [], repr(e)))
        if tracer is not None:
            tracer.op = -1
        return out

    def check(self, outputs) -> list[list[str]]:
        failures, digests = [], []
        for op, (rc, paths, err) in zip(self.ops, outputs):
            bad = [err] if err else []
            if rc != 0 and not err:
                bad.append(f"exit code {rc}")
            csvs = [p for p in paths if p.endswith(".csv")]
            digest = None
            if not bad and len(csvs) != 1:
                bad.append(f"expected one CSV, got {paths}")
            elif not bad:
                data = Path(csvs[0]).read_bytes()
                digest = hashlib.sha256(data).hexdigest()
                rows = list(csv.DictReader(io.StringIO(data.decode())))
                if len(rows) != op["rows"]:
                    bad.append(f"{len(rows)} CSV rows, grid has {op['rows']}")
                else:
                    bad += check_csv(op["command"], rows)
            digests.append(digest)
            failures.append([f"{op['command']}: {m}" for m in bad])
        if self.digests is None:
            self.digests = digests
        for f, d, d0 in zip(failures, digests, self.digests):
            if d is not None and d != d0:
                f.append("CSV bytes differ from the first pass")
        return failures


class DesignScan:
    """``design_scan``: closed-form design search through the library API.

    Names are looked up on the modules at call time, so that the trace
    wrappers see every call.
    """

    def __init__(self, spec, es, cfg):
        self.es = es
        self.cfg = cfg
        self.designs = spec["designs"]
        self.amps = spec["amplitudes_t"]
        self.points = spec["points_per_pass"]
        self.oracle = set(spec["oracle_designs"])
        self.slopes = None  # slopes of the first pass

    def _design(self, protocol, n_pi, tau):
        es, cfg = self.es, self.cfg
        sq, rf = cfg.sequence, es.rf
        t_pi2, t_pi = sq["t_pi2_ns"] * 1e-9, sq["t_pi_ns"] * 1e-9
        if protocol == "hahn":
            seq = es.sequence.build_hahn(tau, t_pi2, t_pi)
            reset = rf.ResetMode.CONTINUOUS
        else:
            build = (es.sequence.build_pdd if protocol == "pdd"
                     else es.sequence.build_cp)
            seq = build(n_pi, tau, t_pi2, t_pi)
            reset = rf.ResetMode.PER_WINDOW_RESET
        filt = es.sequence.filter_function(seq)
        phis = [es.analytic.accumulate_phase(
                    cfg.spin_system, cfg.calibration, filt,
                    rf.build_synchronized(seq, b, 1, 0.0, reset)).phi
                for b in self.amps]
        fit = es.sensitivity.fit_transduction(
            [(b, math.degrees(p)) for b, p in zip(self.amps, phis)])
        ms = cfg.measurement
        report = es.sensitivity.build_report(
            fit, float(ms["phase_resolution_deg"]), float(ms["t_meas_s"]),
            cfg.sample, protocol, n_pi, tau)
        return report, (seq, filt, reset, phis)

    def run_pass(self, tracer=None, workers: int = 1) -> list:
        out = []
        for i, (protocol, n_pi, tau) in enumerate(self.designs):
            if tracer is not None:
                tracer.op = i
            try:
                report, detail = self._design(protocol, n_pi, tau)
                out.append((report, detail if i in self.oracle else None,
                            None))
            except Exception as e:  # an op that raises counts as failed
                out.append((None, None, repr(e)))
        if tracer is not None:
            tracer.op = -1
        return out

    def _expected_slope(self, protocol, n_pi, tau) -> float:
        """deg/T of a refocusing-locked n=1 field: the closed form
        gamma*eta*k*tau/pi with k = 4 (Hahn), 2(N+1) (PDD), 4N (CP)."""
        k = {"hahn": 4, "pdd": 2 * (n_pi + 1), "cp": 4 * n_pi}[protocol]
        cfg = self.cfg
        return math.degrees(cfg.spin_system.gamma
                            * cfg.calibration.coupling_eta * k * tau / math.pi)

    def _oracle(self, detail) -> list[str]:
        seq, filt, reset, phis = detail
        es, cfg = self.es, self.cfg
        bad = []
        for j in (len(self.amps) // 2, len(self.amps) - 1):
            wave = es.rf.build_synchronized(seq, self.amps[j], 1, 0.0, reset)
            ref = es.analytic.accumulate_phase_quadrature(
                cfg.spin_system, cfg.calibration, filt, wave)
            err = abs(phis[j] - ref) / max(abs(ref), 1.0)
            if err > ORACLE_REL_TOL:
                bad.append(f"quadrature oracle differs by {err:.3g}")
        return bad

    def check(self, outputs) -> list[list[str]]:
        linear = self.es.sensitivity.FitMethod.LINEAR_REGRESSION
        failures, slopes = [], []
        for design, (report, detail, err) in zip(self.designs, outputs):
            slopes.append(report.fit.slope if report else None)
            if err:
                failures.append([err])
                continue
            bad = []
            want = self._expected_slope(*design)
            got = report.fit.slope
            if abs(got - want) > SLOPE_REL_TOL * abs(want):
                bad.append(f"slope {got:.12g} deg/T, closed form {want:.12g}")
            if report.fit.method is not linear:
                bad.append(f"fit method {report.fit.method}")
            if not (math.isfinite(report.b_min) and report.b_min > 0):
                bad.append(f"b_min {report.b_min}")
            if detail is not None and self.slopes is None:
                bad += self._oracle(detail)  # later passes must match slopes
            failures.append([f"design {design}: {m}" for m in bad])
        if self.slopes is None:
            self.slopes = slopes
        elif slopes != self.slopes:
            failures[0].append("slopes differ from the first pass")
        return failures


# ---------------------------------------------------------------------------
# passes


def _cpu_s() -> float:
    """user+sys CPU seconds of this process and its waited-for children."""
    return sum(u.ru_utime + u.ru_stime
               for u in (resource.getrusage(resource.RUSAGE_SELF),
                         resource.getrusage(resource.RUSAGE_CHILDREN)))


def _timed_pass(wl, tracer=None, workers: int = 1, spans=None,
                sampler=None) -> dict:
    """One pass over the workload, then its output checks (untimed).
    With a tracer, the pass's per-layer numbers are taken (and its spans
    written to ``spans``, if given) before the checks can add spans.
    With a reference sampler, the time spent sampling is taken out of the
    pass and the median reference time of the pass is recorded."""
    if tracer is not None:
        tracer.clear()
    if sampler is not None:
        n0, spent0 = len(sampler.samples), sampler.spent_s
    c0 = _cpu_s()
    w0 = time.perf_counter()
    outputs = wl.run_pass(tracer, workers)
    wall = time.perf_counter() - w0
    cpu = _cpu_s() - c0
    out = {"wall_s": wall, "cpu_s": cpu}
    if sampler is not None:
        spent = sampler.spent_s - spent0
        out.update(wall_s=wall - spent, cpu_s=cpu - spent,
                   ref_s=sampler.median_since(n0))
    if tracer is not None:
        import numpy as np
        from tracing import layer_metrics

        cols = tracer.columns()
        out["layers"] = layer_metrics(tracer, cols, wl.points)
        if spans is not None:
            np.savez_compressed(spans, names=np.array(tracer.names), **cols)
    failures = wl.check(outputs)
    out.update(ops=len(failures), failed=sum(1 for f in failures if f),
               errors=[m for f in failures for m in f][:10])
    return out


def _measure(spec, wl) -> dict:
    import reference

    kernel, nominal = reference.KERNELS[spec["workload"]]
    passes = []
    with reference.Sampler(kernel) as sampler:
        while not passes or sum(p["wall_s"] for p in passes) < spec["seconds"]:
            passes.append(_timed_pass(wl, sampler=sampler))
    return {"passes": passes, "ref_nominal_s": nominal,
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024}


def _trace(spec, es, wl) -> dict:
    import numpy as np
    from tracing import Tracer

    ref = [_timed_pass(wl) for _ in range(TRACE_REF_PASSES)]
    tracer = Tracer()
    tracer.install(es)
    try:
        _load_configs(spec)
        cols = tracer.columns()
        load = tracer.mask(cols, ("harness.load_config",))
        load_config_ms = float(np.sum(cols["dur"][load])) / 1e6
        traced = [_timed_pass(wl, tracer,
                              spans=Path(spec["rundir"]) / "spans.npz")]
        while sum(p["wall_s"] for p in traced) < spec["seconds"]:
            traced.append(_timed_pass(wl, tracer))
    finally:
        tracer.uninstall()

    pool = []
    workers = min(POOL_WORKERS, os.cpu_count() or 1)
    if isinstance(wl, CliWorkload):
        pool.append(_timed_pass(wl, workers=workers))
    ref_wall = statistics.median(p["wall_s"] for p in ref)
    layers = [p.pop("layers") for p in traced]
    metrics = {k: statistics.median_low(m[k] for m, _ in layers)
               for k in layers[0][0]}
    for mode in ("ideal", "finite"):
        calls = sorted(ms for _, c in layers for ms in c[mode])
        for q in (50, 90):
            metrics[f"blochsim.{mode}_call_p{q}_ms"] = (
                calls[len(calls) * q // 100] if calls else 0.0)
    metrics["harness.load_config_ms"] = load_config_ms
    metrics["harness.pool2_speedup"] = (ref_wall / pool[0]["wall_s"]
                                        if pool else 0.0)
    metrics["trace.overhead_ratio"] = statistics.median(
        p["wall_s"] for p in traced) / ref_wall
    return {"passes": ref + traced + pool, "layers": metrics,
            "pool_workers": workers if pool else 0,
            "traced_passes": len(traced)}


def main(argv) -> int:
    mode, spec_path = argv[0], argv[1]
    spec = json.loads(Path(spec_path).read_text())
    if mode == "setup":
        import echosense  # noqa: F401  (the import is what is timed)

        _load_configs(spec)
        return 0

    import numpy
    import scipy

    import echosense as es
    import echosense.cli  # noqa: F401
    import echosense.harness  # noqa: F401

    src = Path(spec["src"]).resolve()
    if Path(es.__file__).resolve().parent.parent != src:
        raise SystemExit(f"echosense imported from {es.__file__}, not {src}")
    if spec["workload"] == "design_scan":
        wl = DesignScan(spec, es, _load_configs(spec)[0])
    else:
        wl = CliWorkload(spec, es)
    result = _trace(spec, es, wl) if mode == "trace" else _measure(spec, wl)
    result["points_per_pass"] = wl.points
    result["versions"] = {"numpy": numpy.__version__,
                          "scipy": scipy.__version__}
    Path(argv[2]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
