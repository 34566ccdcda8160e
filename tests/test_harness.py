"""Config loading, experiment catalog, CSV emission, CLI contract."""

import csv
import json
import math
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import harness_oracle
from echosense import (ConfigError, NumericalError, ResetMode, SequenceKind,
                       blochsim, build_synchronized, dd_sensitivity_sweep)
from echosense import experiments, harness
from echosense.cli import _apply_overrides, main
from echosense.echo import noisy_echo, wrap_phase
from echosense.sensitivity import reports_to_rows

FAST_RAW = {
    "spin_system": {"g": 2.0, "t_m_us": 100.0,
                    "inhomogeneous_sigma_mhz": 0.1},
    "sample": {"spin_density_per_cm3": 2.3e19, "sensing_volume_mm3": 1.75e-3},
    "calibration": {"field_per_volt_mt": 0.72, "max_voltage_v": 2.5,
                    "coupling_eta": 0.006682},
    "sequence": {"kind": "hahn", "tau_ns": 1200, "t_pi2_ns": 80,
                 "t_pi_ns": 160},
    "rf": {"n": 1, "phase_deg": 0.0, "reset_mode": "continuous",
           "amplitude_mt": 0.5,
           "amplitude_sweep_mt": {"start": 0.0, "stop": 0.5, "points": 5},
           "phase_sweep_deg": {"start": 0.0, "stop": 360.0, "points": 7}},
    "ensemble": {"n_packets": 20, "detuning_sigma_mhz": 0.1,
                 "rf_amplitude_spread": 0.1},
    "noise": {"sigma": 0.0, "n_averages": 1},
    "measurement": {"phase_resolution_deg": 1.0, "t_meas_s": 0.375},
    "simulation": {"pulse_mode": "ideal", "trace_points": 21},
    "seed": 99,
}


def _read_csv(path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _serial_pools(monkeypatch) -> list:
    """Replace the process pool with an in-process fake; the returned list
    collects the max_workers of every pool opened."""
    pools = []

    class SerialPool:
        def __init__(self, max_workers):
            pools.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    monkeypatch.setattr(experiments, "ProcessPoolExecutor", SerialPool)
    return pools


@pytest.fixture
def fast_cfg():
    return harness.load_config(FAST_RAW)


@pytest.fixture(autouse=True)
def _outroot(tmp_path, monkeypatch):
    monkeypatch.setenv(harness.OUTPUT_ROOT_ENV, str(tmp_path / "runs"))
    return tmp_path


class TestLoadConfig:
    def test_unit_conversions(self, fast_cfg):
        assert fast_cfg.spin_system.t_m == pytest.approx(1e-4)
        assert fast_cfg.sample.spin_density == pytest.approx(2.3e25)
        seq = fast_cfg.build_sequence()
        assert seq.tau == pytest.approx(1.2e-6)

    def test_bundled_config_hashes(self):
        # run directories and CSV rows carry these: a config key that
        # stops loading, or a hash of anything but the raw config, moves
        # them
        assert {name: harness.bundled_config(name).hash for name in (
            "default", "fig2", "fig3", "fig4", "fig5")} == {
            "default": "2a2a89f5250b", "fig2": "c0b4c0d71289",
            "fig3": "14ab2ea563cc", "fig4": "2fc67d25f916",
            "fig5": "f53022eb8ee3"}

    def test_invalid_sequence_fails_fast(self, tmp_path, capsys,
                                         monkeypatch):
        # a tau shorter than the pi pulse parses, but every command plans
        # a sequence on it: validate and every run exit 2, unsimulated
        calls = []
        monkeypatch.setattr(blochsim, "echo_points",
                            lambda *a: calls.append(a))
        raw = json.loads(json.dumps(FAST_RAW))
        raw["sequence"]["tau_ns"] = 10
        harness.load_config(raw)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(raw))
        for argv in (["validate", str(path)],
                     *([c, "-c", str(path), "-o", str(tmp_path / "out")]
                       for c in experiments.EXPERIMENTS)):
            assert main(argv) == 2, argv
            err = capsys.readouterr().err
            assert "must exceed t_pi" in err, argv
        assert calls == []

    @pytest.mark.parametrize("kind", list(SequenceKind))
    def test_build_sequence_kind_value_equals_member(self, fast_cfg, kind):
        got = fast_cfg.build_sequence(kind.value)
        assert got == fast_cfg.build_sequence(kind)

    @pytest.mark.parametrize("kind", ["custom", "bogus"])
    def test_build_sequence_unknown_kind_rejected(self, fast_cfg, kind):
        with pytest.raises(ConfigError):
            fast_cfg.build_sequence(kind)

    def test_invalid_enum_fails_fast(self):
        raw = json.loads(json.dumps(FAST_RAW))
        raw["simulation"]["pulse_mode"] = "magic"
        with pytest.raises((ConfigError, ValueError)):
            harness.load_config(raw)

    def test_hash_stable_and_order_independent(self):
        h1 = harness.config_hash({"a": 1, "b": 2})
        h2 = harness.config_hash({"b": 2, "a": 1})
        assert h1 == h2 and len(h1) == 12

    def test_point_seed_deterministic(self, fast_cfg):
        def seed(*idx):
            return blochsim.point_seed(fast_cfg.ensemble.seed, *idx)

        assert seed(1, 2) == seed(1, 2)
        assert seed(1, 2) != seed(2, 1)

    def test_loads_from_file(self, tmp_path):
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(FAST_RAW))
        cfg = harness.load_config(p)
        assert cfg.seed == 99

    def test_bundled_configs_all_load(self):
        for name in ("default",) + experiments.FIGURES:
            cfg = harness.bundled_config(name)
            assert cfg.hash


class TestGrid:
    def test_linspace_spec(self):
        g = harness._grid({"start": 0, "stop": 1, "points": 5})
        assert np.allclose(g, [0, 0.25, 0.5, 0.75, 1.0])

    def test_explicit_list_scaled(self):
        g = harness._grid([1, 2], scale=1e-3)
        assert np.allclose(g, [1e-3, 2e-3])

    def test_missing_key_rejected(self):
        with pytest.raises(ConfigError):
            harness._grid({"start": 0, "points": 5})

    def test_bad_spec_rejected(self):
        with pytest.raises(ConfigError):
            harness._grid("nope")


def _by_grid(cfg, command, workers=1):
    """The rows of each grid of `command`'s plan on cfg."""
    plan, _, _ = experiments.EXPERIMENTS[command]
    return experiments.run_grids(cfg, plan(cfg), {"config_hash": cfg.hash,
                                                  "seed": cfg.seed}, workers)


def _column(rows, key) -> list:
    return [r[key] for r in rows]


class TestSweeps:
    def test_amplitude_sweep_monotone_phase(self, fast_cfg):
        rows = experiments.run_experiment("sweep-amplitude", fast_cfg)
        assert len(rows) == 5 and "b1_t" in rows[0]
        phases = _column(rows, "phase_unwrapped_deg")
        assert all(b >= a - 1e-9 for a, b in zip(phases, phases[1:]))
        # analytic phases track the simulated ones
        sim = np.radians(phases)
        assert np.allclose(sim, _column(rows, "analytic_phase_rad"),
                           atol=0.05)

    def test_amplitude_sweep_requires_spec(self, fast_cfg):
        raw = dict(FAST_RAW, rf={"n": 1})
        cfg = harness.load_config(raw)
        with pytest.raises(ConfigError):
            experiments.run_experiment("sweep-amplitude", cfg)

    def test_phase_sweep_cosine_nodes(self, fast_cfg):
        rows = experiments.run_experiment("sweep-phase", fast_cfg)
        # 7 points over 360 deg: index 0 is phi_rf = 0 (max), analytic
        # phase follows cos
        a = np.asarray(_column(rows, "analytic_phase_rad"))
        assert a[0] == pytest.approx(max(abs(a)), rel=1e-9)
        assert a[3] == pytest.approx(-a[0], rel=1e-9)  # phi_rf = 180

    def test_symmetry_returns_one_sweep_per_harmonic(self, fast_cfg):
        out = _by_grid(fast_cfg, "symmetry")
        assert [rows[0]["n"] for rows in out] == [1, 2, 3, 4]
        even = [rows for rows in out if rows[0]["n"] % 2 == 0]
        for rows in even:
            assert np.allclose(_column(rows, "analytic_phase_rad"), 0.0,
                               atol=1e-12)

    def test_rows_and_phase_errors_name_their_command(self, fast_cfg):
        # sweep-phase and symmetry share one plan; each labels its own rows
        concat = [name for name, (_, rows, _)
                  in experiments.EXPERIMENTS.items()
                  if rows is experiments._concat]
        assert concat == ["sweep-amplitude", "sweep-phase", "symmetry",
                          "dd-sweep"]
        for name in concat:
            rows = experiments.run_experiment(name, fast_cfg)
            assert {r["experiment"] for r in rows} == {name}
        cfg = harness.load_config(
            dict(FAST_RAW, rf={**FAST_RAW["rf"], "amplitude_mt": 1e12}))
        with pytest.raises(ConfigError, match=r"^experiment=symmetry n=1 "
                           r"phi_rf_deg=0: closed-form phase"):
            experiments.run_experiment("symmetry", cfg)

    def test_split_interval_variants_and_additivity(self, fast_cfg):
        grids = experiments.EXPERIMENTS["split-interval"][0](fast_cfg)
        assert [g.metadata["variant"] for g in grids] == [
            "first", "second", "both", "full"]
        rows = experiments.run_experiment("split-interval", fast_cfg)
        first, second, both = (np.asarray(_column(rows, f"analytic_{v}_rad"))
                               for v in ("first", "second", "both"))
        # the harness sweeps the first lobe's phase with the second fixed
        assert np.allclose(first + second[0], both, atol=1e-12)

    def test_every_metadata_value_is_scalar(self, fast_cfg):
        # the executor copies a grid's metadata into each of its CSV rows
        def scalar(v):
            return isinstance(v, (int, float, str))

        for name, (plan, _, _) in experiments.EXPERIMENTS.items():
            for grid in plan(fast_cfg):
                assert all(map(scalar, grid.metadata.values())), (
                    name, grid.metadata)
            for row in experiments.run_experiment(name, fast_cfg):
                assert all(map(scalar, row.values())), (name, row)

    def test_dd_sweep_per_protocol_results(self, fast_cfg):
        raw = json.loads(json.dumps(FAST_RAW))
        raw["dd"] = {"protocols": ["cp"], "n_pi_list": [1, 2],
                     "tau_us_list": [1.2],
                     "amplitude_sweep_mt": {"start": 0, "stop": 0.3,
                                            "points": 4}}
        cfg = harness.load_config(raw)
        out = _by_grid(cfg, "dd-sweep")
        assert len(out) == 2
        assert {rows[0]["n_pi"] for rows in out} == {1, 2}
        for rows in out:
            assert len(rows) == 4

    def test_noise_snr_matches_add_measurement_noise(self):
        raw = json.loads(json.dumps(FAST_RAW))
        raw["noise"] = {"sigma": 0.05, "n_averages": 4}
        cfg = harness.load_config(raw)
        rows = experiments.run_experiment("sweep-amplitude", cfg)
        seq, base = cfg.build_sequence(), cfg.ensemble.seed
        for i, (amp, row) in enumerate(zip(cfg.amplitude_grid, rows)):
            wave = build_synchronized(seq, amp, 1, 0.0)
            [clean] = blochsim.echo_points(
                cfg.spin_system, seq, [wave], cfg.ensemble,
                [blochsim.point_seed(base, i)], cfg.pulse_mode,
                cfg.calibration, cfg.trace_points)
            z = noisy_echo(clean, 0.05, 4, blochsim.point_seed(base, 7919, i))
            assert z != clean
            assert row["amplitude_norm"] == abs(z)
            assert row["phase_wrapped_deg"] == wrap_phase(
                float(np.degrees(np.angle(z))))

    def test_noise_differs_between_sweeps(self):
        raw = json.loads(json.dumps(harness.bundled_config("fig4").raw))
        raw["dd"]["n_pi_list"] = [1, 2]

        def echoes(sigma):
            raw["noise"]["sigma"] = sigma
            return [np.array([r["amplitude_norm"] * np.exp(1j * np.radians(
                r["phase_unwrapped_deg"])) for r in rows])
                for rows in _by_grid(harness.load_config(raw), "dd-sweep")]

        noise = [noisy - clean
                 for noisy, clean in zip(echoes(0.05), echoes(0.0))]
        assert len(noise) == 4  # PDD and CP, n_pi 1 and 2
        assert all(np.abs(d).max() > 1e-3 for d in noise)
        for i, a in enumerate(noise):
            for b in noise[i + 1:]:
                assert not np.allclose(a, b, atol=1e-6)

    def test_workers_match_serial(self, fast_cfg):
        raw = json.loads(json.dumps(FAST_RAW))
        raw["simulation"]["pulse_mode"] = "finite"
        for cfg in (fast_cfg, harness.load_config(raw)):
            serial = experiments.run_experiment("sweep-amplitude", cfg,
                                                workers=1)
            parallel = experiments.run_experiment("sweep-amplitude", cfg,
                                                  workers=2)
            assert _column(serial, "phase_unwrapped_deg") == \
                   _column(parallel, "phase_unwrapped_deg")

    def test_finite_analytic_phase_is_pulse_gated(self, tmp_path, capsys):
        # finite pulses see no RF during their drives, so the CSV's closed
        # form must be the pulse-gated one: with the ungated field the
        # PDD5 phase at 0.5 mT sat 5.8 widths off the simulated one
        raw = json.loads(json.dumps(harness.bundled_config("fig4").raw))
        raw["simulation"]["pulse_mode"] = "finite"
        raw["ensemble"]["n_packets"] = n = 20_000
        raw["dd"].update(protocols=["pdd"], n_pi_list=[5],
                         amplitude_sweep_mt=[0.5])
        path = tmp_path / "finite.json"
        path.write_text(json.dumps(raw))
        assert main(["dd-sweep", "-c", str(path),
                     "-o", str(tmp_path / "out")]) == 0
        [row] = _read_csv(capsys.readouterr().out.split()[0])
        sim = float(row["phase_unwrapped_deg"])
        ana = float(row["analytic_phase_deg"])
        # the packets' RF amplitude factors scatter the mean phase by
        # about spread * |phase| / sqrt(P)
        width = raw["ensemble"]["rf_amplitude_spread"] * abs(ana) / math.sqrt(n)
        assert abs((sim - ana + 180.0) % 360.0 - 180.0) < 3 * width

    def test_one_draw_and_no_trace_per_point(self, fast_cfg, monkeypatch):
        # nor a per-point ensemble config: the points draw from the run's
        calls = {"draw": 0, "evolve": 0, "ensemble": 0}
        draw, evolve = blochsim.EnsembleConfig.draw, blochsim.evolve
        post_init = blochsim.EnsembleConfig.__post_init__

        def counting(name, fn):
            def spy(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return spy

        serial = experiments.run_experiment("sweep-amplitude", fast_cfg)
        with monkeypatch.context() as mp:
            mp.setattr(blochsim.EnsembleConfig, "draw", counting("draw", draw))
            mp.setattr(blochsim, "evolve", counting("evolve", evolve))
            mp.setattr(blochsim.EnsembleConfig, "__post_init__",
                       counting("ensemble", post_init))
            counted = experiments.run_experiment("sweep-amplitude", fast_cfg)
        assert len(fast_cfg.amplitude_grid) == 5
        assert calls == {"draw": 5, "evolve": 0, "ensemble": 0}
        parallel = experiments.run_experiment("sweep-amplitude", fast_cfg,
                                              workers=2)
        assert counted == serial
        assert parallel == serial

    def test_sensitivity_uses_configured_trace_points(self, fast_cfg,
                                                      monkeypatch):
        seen = []
        echo_points = blochsim.echo_points

        def spy(*args):
            seen.append(args[-1])  # trace_points
            return echo_points(*args)

        monkeypatch.setattr(blochsim, "echo_points", spy)
        cfg = harness.load_config({**FAST_RAW, "dd": {
            "protocols": ["cp"], "n_pi_list": [1], "tau_us_list": [1.2],
            "amplitude_sweep_mt": {"start": 0, "stop": 0.3, "points": 3}}})
        assert cfg.trace_points == 21
        experiments.run_experiment("sensitivity", cfg)
        assert seen and set(seen) == {21}


class TestPlans:
    @pytest.mark.parametrize("name", ("default",) + experiments.FIGURES)
    def test_shared_seed_tag_means_shared_waves(self, name):
        # run_grids simulates each (sequence, seed tag) once: grids that
        # share both must hold equal waves, and no two grids of a plan may
        # share noise
        cfg = harness.bundled_config(name)
        planned = 0
        for command, (plan, _, _) in experiments.EXPERIMENTS.items():
            try:
                grids = plan(cfg)
            except ConfigError:  # the config lacks this command's grid
                continue
            planned += 1
            first = {}
            for g in grids:
                assert len(g.waves) == len(g.axis_values), command
                waves = first.setdefault((g.seq, g.seed_tag), g.waves)
                assert waves == g.waves, (command, g.metadata)
            noise_tags = [g.noise_tag for g in grids]
            assert len(set(noise_tags)) == len(noise_tags), command
        assert planned >= 3  # split-interval, dd-sweep and sensitivity


class TestSensitivityPipeline:
    DD = {"protocols": ["pdd", "cp"], "n_pi_list": [1, 2],
          "tau_us_list": [1.2],
          "amplitude_sweep_mt": {"start": 0, "stop": 0.3, "points": 5}}

    def cfg(self, **top):
        return harness.load_config({**FAST_RAW, "dd": self.DD, **top})

    def test_equals_dd_sensitivity_sweep(self):
        cfg = self.cfg()
        amps = harness._grid(self.DD["amplitude_sweep_mt"], scale=harness.MT)
        want = [report
                for protocol in (SequenceKind.PDD, SequenceKind.CP)
                for report in dd_sensitivity_sweep(
                    protocol, [1, 2], float(1.2) * harness.US,
                    cfg.spin_system, cfg.calibration, cfg.sample, amps,
                    cfg.ensemble, 80 * harness.NS, 160 * harness.NS,
                    reset_mode=ResetMode.PER_WINDOW_RESET,
                    trace_points=cfg.trace_points)]
        assert experiments.run_experiment("sensitivity", cfg) == [
            {**row, "config_hash": cfg.hash, "seed": cfg.seed}
            for row in reports_to_rows(want)]

    def test_workers_reach_the_pool(self, monkeypatch):
        pools = _serial_pools(monkeypatch)
        cfg = self.cfg()
        assert experiments.run_experiment("sensitivity", cfg, workers=2) == \
            experiments.run_experiment("sensitivity", cfg)
        assert pools and set(pools) == {2}

    def test_pool_has_at_most_one_process_per_slice(self, monkeypatch):
        pools = _serial_pools(monkeypatch)
        cfg = self.cfg()
        assert experiments.run_experiment("sensitivity", cfg, workers=64) == \
            experiments.run_experiment("sensitivity", cfg)
        assert pools and set(pools) == {5}  # five amplitudes per sweep
        pools.clear()
        assert experiments._map(abs, [(-3,)], workers=4) == [3]
        assert pools == []  # one task runs in this process

    def test_ensemble_seed_seeds_every_sweep(self):
        a = self.cfg(seed=99, ensemble={**FAST_RAW["ensemble"], "seed": 5})
        b = self.cfg(seed=5)

        def phases(cfg):
            return _column(experiments.run_experiment("dd-sweep", cfg),
                           "phase_unwrapped_deg")

        def slopes(cfg):
            return _column(experiments.run_experiment("sensitivity", cfg),
                           "slope_deg_per_t")

        assert phases(a) == phases(b)
        assert slopes(a) == slopes(b)
        assert phases(self.cfg(seed=99)) != phases(b)


class TestSharedSimulation:
    """PDD(1) and CP(1) are the same Hahn train: one simulation, two sweeps."""

    DD = TestSensitivityPipeline.DD

    def cfg(self, sigma=0.0):
        return harness.load_config({**FAST_RAW, "dd": self.DD, "noise": {
            "sigma": sigma, "n_averages": 1}})

    @staticmethod
    def by_design(cfg):
        return {(rows[0]["protocol"], rows[0]["n_pi"]): rows
                for rows in _by_grid(cfg, "dd-sweep")}

    @pytest.mark.parametrize("command", ["dd-sweep", "sensitivity"])
    def test_each_pulse_train_simulated_once(self, monkeypatch, command):
        calls = []
        echo_points = blochsim.echo_points
        cfg = self.cfg()

        def spy(*args):
            _, seq, waves, ens, seeds = args[:5]
            # every sweep draws from the config's one ensemble, a seed
            # per wave
            assert ens is cfg.ensemble and len(seeds) == len(waves)
            calls.append(seq)
            return echo_points(*args)

        monkeypatch.setattr(blochsim, "echo_points", spy)
        experiments.run_experiment(command, cfg)
        # PDD(1), PDD(2), CP(2): CP(1) reuses PDD(1)
        assert len(calls) == 3
        assert [s.n_pi for s in calls] == [1, 2, 2]

    def test_cp1_equals_pdd1(self):
        got = self.by_design(self.cfg())
        pdd, cp = got["pdd", 1], got["cp", 1]
        assert [{**r, "protocol": "pdd"} for r in cp] == pdd
        assert cp[0]["protocol"] == "cp"
        # each sweep owns its rows
        assert all(c is not p for c, p in zip(cp, pdd))
        assert (_column(got["cp", 2], "analytic_phase_rad")
                != _column(got["pdd", 2], "analytic_phase_rad"))

    def test_shared_simulation_keeps_its_own_noise(self):
        got = self.by_design(self.cfg(sigma=0.05))
        pdd, cp = got["pdd", 1], got["cp", 1]
        assert (_column(cp, "analytic_phase_rad")
                == _column(pdd, "analytic_phase_rad"))
        assert (_column(cp, "phase_unwrapped_deg")
                != _column(pdd, "phase_unwrapped_deg"))

    def test_workers_match_serial(self, monkeypatch):
        cfg = self.cfg()
        serial = experiments.run_experiment("dd-sweep", cfg)
        pools = _serial_pools(monkeypatch)
        assert experiments.run_experiment("dd-sweep", cfg, workers=2) == serial
        assert pools == [2, 2, 2]  # one pool per simulated pulse train


class TestEmission:
    def test_write_csv_round_trip(self, tmp_path):
        rows = [{"a": 1.5, "b": "x"}, {"a": 2.5, "b": "y"}]
        p = tmp_path / "t.csv"
        harness.write_csv(p, rows)
        back = _read_csv(p)
        assert [r["a"] for r in back] == ["1.5", "2.5"]

    def test_write_csv_refuses_empty(self, tmp_path):
        with pytest.raises(ConfigError):
            harness.write_csv(tmp_path / "e.csv", [])

    def test_sweep_rows_columns(self, fast_cfg):
        rows = experiments.run_experiment("sweep-amplitude", fast_cfg)
        assert list(rows[0]) == [
            "index", "b1_t", "amplitude_norm", "phase_wrapped_deg",
            "phase_unwrapped_deg", "analytic_phase_rad", "analytic_phase_deg",
            "config_hash", "seed", "experiment"]
        assert rows[0]["config_hash"] == fast_cfg.hash

    def test_split_rows_include_removed_lobe(self, fast_cfg):
        rows = experiments.run_experiment("split-interval", fast_cfg)
        r0 = rows[0]
        assert r0["analytic_removed_rad"] == pytest.approx(
            r0["analytic_full_rad"] - r0["analytic_first_rad"], abs=1e-15)


class TestReproduce:
    def test_unknown_figure_rejected(self):
        with pytest.raises(ConfigError):
            experiments.reproduce("fig99")

    @pytest.mark.parametrize("figure, commands", [
        ("fig3", ["symmetry", "split-interval"]), ("fig4", ["dd-sweep"])])
    def test_each_command_runs_once(self, tmp_path, monkeypatch, figure,
                                    commands):
        # fig3's three symmetry CSVs share one symmetry run, and fig4's
        # two protocol CSVs one dd-sweep run
        calls = []
        run_experiment = experiments.run_experiment

        def spy(command, *args):
            calls.append(command)
            return run_experiment(command, *args)

        monkeypatch.setattr(experiments, "run_experiment", spy)
        written = experiments.reproduce(figure, outroot=tmp_path)
        assert calls == commands
        assert ([p.stem for p in written]
                == list(experiments.FIGURE_TABLES[figure]))

    def test_fig4_pool_writes_serial_bytes(self, tmp_path):
        # fig4 over a real two-process pool writes the serial run's bytes
        serial = experiments.reproduce("fig4", outroot=tmp_path / "serial")
        pooled = experiments.reproduce("fig4", outroot=tmp_path / "pooled",
                                       workers=2)
        assert [p.name for p in serial] == [p.name for p in pooled]
        assert len(serial) == 2
        for ps, pp in zip(serial, pooled):
            assert ps.read_bytes() == pp.read_bytes()


class TestCli:
    def _cfg_file(self, tmp_path, raw=None):
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(raw or FAST_RAW))
        return str(p)

    def test_validate_ok(self, tmp_path, capsys):
        assert main(["validate", self._cfg_file(tmp_path)]) == 0
        assert "OK" in capsys.readouterr().out

    def test_validate_bad_config_exit_2(self, tmp_path):
        raw = json.loads(json.dumps(FAST_RAW))
        raw["sequence"]["tau_ns"] = 1
        assert main(["validate", self._cfg_file(tmp_path, raw)]) == 2

    def test_python_m_runs_the_cli(self, tmp_path):
        package = Path(harness.__file__).resolve().parent
        env = {**os.environ, "PYTHONPATH": str(package.parent)}
        fig2 = package / "configs" / "fig2.json"
        raw = json.loads(fig2.read_text())
        raw["sequence"]["tau_ns"] = 1
        for path, code in ((str(fig2), 0),
                           (self._cfg_file(tmp_path, raw), 2)):
            run = subprocess.run(
                [sys.executable, "-m", "echosense", "validate", path],
                env=env, capture_output=True, text=True)
            assert run.returncode == code, run.stderr

    def test_sweep_amplitude_writes_csv(self, tmp_path, capsys):
        rc = main(["sweep-amplitude", "-c", self._cfg_file(tmp_path),
                   "-o", str(tmp_path / "out")])
        assert rc == 0
        out = capsys.readouterr().out.strip().splitlines()
        assert out and out[0].endswith("sweep_amplitude.csv")
        rows = _read_csv(out[0])
        assert len(rows) == 5

    @pytest.mark.parametrize("workers", ["0", "-2", "two"])
    @pytest.mark.parametrize("command", ["sweep-amplitude", "reproduce"])
    def test_workers_below_one_exit_2(self, tmp_path, command, workers):
        target = (["fig2"] if command == "reproduce"
                  else ["-c", self._cfg_file(tmp_path)])
        with pytest.raises(SystemExit) as exc:
            main([command, *target, "-o", str(tmp_path / "out"),
                  "--workers", workers])
        assert exc.value.code == 2
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["sweep-amplitude", "reproduce"])
    @pytest.mark.parametrize("below", [(), ("x",)],
                             ids=["file", "below-file"])
    def test_unusable_output_root_exit_2(self, tmp_path, capsys, monkeypatch,
                                         command, below):
        # an output root that is, or runs through, a regular file, is
        # rejected before anything is simulated
        calls = []
        echo_points = blochsim.echo_points

        def spy(*args):
            calls.append(args)
            return echo_points(*args)

        monkeypatch.setattr(blochsim, "echo_points", spy)
        blocker = tmp_path / "file"
        blocker.write_text("")
        target = (["fig2"] if command == "reproduce"
                  else ["-c", self._cfg_file(tmp_path)])
        assert main([command, *target,
                     "-o", str(blocker.joinpath(*below))]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("config error: ")
        assert str(blocker) in err[0]
        assert calls == []

    def test_set_override(self, tmp_path, capsys):
        rc = main(["sweep-amplitude", "-c", self._cfg_file(tmp_path),
                   "--set", "rf.amplitude_sweep_mt.points=3",
                   "-o", str(tmp_path / "out")])
        assert rc == 0
        out = capsys.readouterr().out.strip().splitlines()
        assert len(_read_csv(out[0])) == 3

    def test_failed_run_leaves_no_run_directory(self, tmp_path):
        # bundled fig2's PDD(2) train is unrefocused: its sensitivity fit
        # fails after planning, and the run writes nothing
        fig2 = Path(harness.__file__).resolve().parent / "configs/fig2.json"
        out = tmp_path / "out"
        assert main(["sensitivity", "-c", str(fig2), "-o", str(out)]) == 3
        assert list(out.iterdir()) == []

    def test_numerical_failure_exit_3(self, tmp_path):
        # a vanishing phase-memory time kills the reference echo
        rc = main(["sweep-amplitude", "-c", self._cfg_file(tmp_path),
                   "--set", "spin_system.t_m_us=1e-4",
                   "-o", str(tmp_path / "out")])
        assert rc == 3

    BAD_VALUES = {
        "negative-seed": ["seed=-1"],
        "negative-ensemble-seed": ["ensemble.seed=-2"],
        "non-numeric-g": ["spin_system.g=x"],
        "zero-averages": ["noise.sigma=0.1", "noise.n_averages=0"],
        "negative-sigma": ["noise.sigma=-5"],
        "negative-inhomogeneous-sigma": [
            "spin_system.inhomogeneous_sigma_mhz=-1"],
        "one-trace-point": ["simulation.trace_points=1"],
        "zero-field-per-volt": ["calibration.field_per_volt_mt=0"],
        "zero-max-voltage": ["calibration.max_voltage_v=0"],
        # dd closed-form phases up to 8.98e9 rad (CP(5), float spacing
        # 1.9e-6 rad), and with g = 1e297 dd phases that overflow: no dd
        # run can resolve them, so the commands that plan dd grids
        # (`DD_COMMANDS`) exit 2 before simulating
        "unresolved-dd-phase": [
            'dd.amplitude_sweep_mt={"start":0,"stop":1e9,"points":3}'],
        "overflowing-dd-phase": [
            "spin_system.g=1e297",
            'dd.amplitude_sweep_mt={"start":0,"stop":1e100,"points":3}'],
    }
    DD_COMMANDS = ("dd-sweep", "sensitivity")

    #: inputs that fail before there is a config to check, as (config
    #: file text, or None for no file, and --set values)
    BAD_INPUTS = {
        "malformed-json": ("{not json", []),
        "missing-file": (None, []),
        "set-through-a-scalar": (json.dumps(FAST_RAW), ["seed.x=1"]),
    }

    @pytest.mark.parametrize("case", [*BAD_VALUES, *BAD_INPUTS])
    def test_bad_value_exit_2(self, tmp_path, case, capsys, monkeypatch):
        calls = []
        echo_points = blochsim.echo_points

        def spy(*args):
            calls.append(args)
            return echo_points(*args)

        monkeypatch.setattr(blochsim, "echo_points", spy)
        text, values = self.BAD_INPUTS.get(
            case, (json.dumps(FAST_RAW), self.BAD_VALUES.get(case)))
        path = tmp_path / "cfg.json"
        if text is not None:
            path.write_text(text)
        sets = [a for kv in values for a in ("--set", kv)]
        for command in (self.DD_COMMANDS if case.endswith("-dd-phase")
                        else ["sweep-amplitude"]):
            rc = main([command, "-c", str(path), *sets,
                       "-o", str(tmp_path / "out")])
            assert rc == 2, command
            assert "config error" in capsys.readouterr().err
        assert calls == []

    def test_run_checks_only_its_own_grids(self, tmp_path, capsys):
        # the unresolved dd phase fails validate and the dd runs, but
        # not a run that plans no dd grid
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(_apply_overrides(
            json.loads(json.dumps(FAST_RAW)),
            self.BAD_VALUES["unresolved-dd-phase"])))
        out = str(tmp_path / "out")
        for command in ("sweep-amplitude", "split-interval"):
            assert main([command, "-c", str(path), "-o", out]) == 0
        for argv in (["validate", str(path)],
                     ["dd-sweep", "-c", str(path), "-o", out]):
            capsys.readouterr()
            assert main(argv) == 2
            err = capsys.readouterr().err
            assert ("experiment=dd-sweep protocol=cp n_pi=5 tau_s=1.2e-06 "
                    "b1_t=1e+06: closed-form phase 8.98e+09 rad") in err
            assert "lower the field or ensemble.detuning_sigma_mhz" in err

    @pytest.mark.parametrize("case", list(BAD_VALUES))
    def test_validate_rejects_bad_value(self, tmp_path, case):
        raw = _apply_overrides(json.loads(json.dumps(FAST_RAW)),
                               self.BAD_VALUES[case])
        assert main(["validate", self._cfg_file(tmp_path, raw)]) == 2

    @pytest.mark.parametrize("key", ["rf", "dd"])
    @pytest.mark.parametrize("grid", [
        {"start": 0.5, "stop": 0.0, "points": 41},
        {"start": 0.2, "stop": 0.2, "points": 3},
        [0.0, 0.2, 0.1],
        [0.0, 0.1, 0.1]])
    def test_validate_rejects_non_increasing_field_grid(self, tmp_path,
                                                        capsys, key, grid):
        # the transduction fit needs strictly increasing fields, so a run
        # of the same config would fail later, in `sensitivity`
        raw = json.loads(json.dumps(harness.bundled_config("fig5").raw))
        raw[key]["amplitude_sweep_mt"] = grid
        assert main(["validate", self._cfg_file(tmp_path, raw)]) == 2
        err = capsys.readouterr().err
        assert f"{key}.amplitude_sweep_mt must be strictly increasing" in err

    @pytest.mark.parametrize("key", ["rf", "dd"])
    def test_unresolvable_field_spread_exit_2(self, tmp_path, capsys, key):
        # increasing fields whose centred sum of squares underflows: the
        # transduction fit cannot divide by it, so `validate` and
        # `sensitivity` both reject the config before any simulation
        raw = json.loads(json.dumps(harness.bundled_config("fig5").raw))
        raw["dd"].pop("amplitude_sweep_mt", None)
        raw[key]["amplitude_sweep_mt"] = [0, 1e-200, 2e-200, 3e-200]
        path = self._cfg_file(tmp_path, raw)
        for argv in (["validate", path],
                     ["sensitivity", "-c", path, "-o", str(tmp_path)]):
            assert main(argv) == 2
            err = capsys.readouterr().err
            assert "config error" in err and "Traceback" not in err
            assert f"{key}.amplitude_sweep_mt must be a grid whose centred" \
                in err

    @pytest.mark.parametrize("figure, sets", [
        ("fig5", ["ensemble.detuning_sigma_mhz=2e301"]),
        ("fig4", ['simulation.pulse_mode="finite"',
                  "ensemble.detuning_sigma_mhz=1e9"])],
        ids=["overflowing", "unresolved-finite"])
    def test_validate_rejects_unresolved_detuning(self, tmp_path, capsys,
                                                  figure, sets):
        # a packet 10 sigmas out would precess by an overflowing phase, or
        # by 2.1e11 rad spaced 3e-5 rad: runs would overflow or hit the RK4
        # step limit, so the config is rejected before any is simulated
        raw = _apply_overrides(
            json.loads(json.dumps(harness.bundled_config(figure).raw)), sets)
        assert main(["validate", self._cfg_file(tmp_path, raw)]) == 2
        assert "ensemble.detuning_sigma_mhz" in capsys.readouterr().err

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_field_overflow_is_numerical_error(self, tmp_path, capsys,
                                               monkeypatch, workers):
        # a relative RF amplitude spread of 1e305 overflows the packets' RF
        # coupling (a nominal field that overflows it no longer validates);
        # numpy's warning about it is an error under this suite's
        # filterwarnings, and must not escape
        _serial_pools(monkeypatch)
        raw = json.loads(json.dumps(harness.bundled_config("fig5").raw))
        raw["ensemble"]["rf_amplitude_spread"] = 1e305
        path = self._cfg_file(tmp_path, raw)
        for command in ("dd-sweep", "sensitivity"):
            assert main([command, "-c", path, "-o", str(tmp_path / "out"),
                         "--workers", workers]) == 3
            err = capsys.readouterr().err
            assert "numerical error" in err and "overflow" in err
        assert main(["validate", path]) == 0

    def test_sensitivity_command(self, tmp_path, capsys):
        raw = json.loads(json.dumps(FAST_RAW))
        raw["dd"] = {"protocols": ["cp"], "n_pi_list": [1],
                     "tau_us_list": [1.2],
                     "amplitude_sweep_mt": {"start": 0, "stop": 0.3,
                                            "points": 5}}
        rc = main(["sensitivity", "-c", self._cfg_file(tmp_path, raw),
                   "-o", str(tmp_path / "out")])
        assert rc == 0
        out = capsys.readouterr().out.strip().splitlines()
        rows = _read_csv(out[0])
        assert rows[0]["protocol"] == "cp"

    def test_sensitivity_fit_failure_is_numerical_error(self, tmp_path,
                                                        capsys):
        # bundled fig3 validates, but its simulated PDD(4) phases jump by
        # 113 deg at one field: the run, not the config, is at fault
        fig3 = Path(harness.__file__).parent / "configs" / "fig3.json"
        assert main(["sensitivity", "-c", str(fig3),
                     "-o", str(tmp_path / "out")]) == 3
        err = capsys.readouterr().err
        assert err.startswith("numerical error: ") and "Traceback" not in err
        assert "pdd(4)" in err and "wrapped-phase" in err

    def test_sensitivity_needs_three_fields_before_simulating(
            self, tmp_path, capsys, monkeypatch):
        calls = []
        monkeypatch.setattr(blochsim, "echo_points",
                            lambda *a: calls.append(a))
        raw = json.loads(json.dumps(FAST_RAW))
        raw["dd"] = {"protocols": ["cp"], "n_pi_list": [1],
                     "amplitude_sweep_mt": [0.0, 0.3]}
        assert main(["sensitivity", "-c", self._cfg_file(tmp_path, raw),
                     "-o", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and "at least 3 dd fields" in err
        assert calls == []

    def test_sensitivity_with_bundled_default(self, tmp_path, capsys):
        assert main(["sensitivity", "-o", str(tmp_path / "out")]) == 0
        out = capsys.readouterr().out.strip().splitlines()
        rows = _read_csv(out[0])
        assert len(rows) == 10  # PDD and CP, n_pi 1..5

    def test_full_finite_fig4_dd_sweep(self, tmp_path, capsys):
        # fig4's whole dd-sweep with finite pulses: 2 protocols x 5 pulse
        # counts x 21 fields
        raw = json.loads(json.dumps(harness.bundled_config("fig4").raw))
        raw["simulation"]["pulse_mode"] = "finite"
        assert main(["dd-sweep", "-c", self._cfg_file(tmp_path, raw),
                     "-o", str(tmp_path / "out")]) == 0
        out = capsys.readouterr().out.strip().splitlines()
        assert len(_read_csv(out[0])) == 210

    def test_dump_trace_is_grid_point_zero(self, tmp_path, capsys):
        raw = json.loads(json.dumps(FAST_RAW))
        raw["rf"]["amplitude_sweep_mt"]["start"] = 0.1
        rc = main(["sweep-amplitude", "-c", self._cfg_file(tmp_path, raw),
                   "-o", str(tmp_path / "out"), "--dump-trace"])
        assert rc == 0
        out = capsys.readouterr().out.strip().splitlines()
        assert out[-1].endswith("trace.csv")
        rows = _read_csv(out[-1])

        cfg = harness.load_config(raw)
        seq = cfg.build_sequence()
        wave = build_synchronized(seq, 0.1e-3, 1, 0.0)
        ens = replace(cfg.ensemble,
                      seed=blochsim.point_seed(cfg.ensemble.seed, 0))
        tr = blochsim.evolve(cfg.spin_system, seq, wave, ens,
                             cfg.pulse_mode, cfg.calibration,
                             trace_points=21)
        assert [float(r["time_s"]) for r in rows] == tr.times.tolist()
        assert [float(r["mx"]) for r in rows] == tr.ensemble_mxy.real.tolist()
        assert [float(r["my"]) for r in rows] == tr.ensemble_mxy.imag.tolist()


# ---------------------------------------------------------------------------
# differential: every subcommand's rows against a point-by-point rebuild

#: a float cell may differ from the oracle's by this, relative to the
#: oracle's value, or absolute in a phase column (deg, rad), where values
#: sit at zero at zero field; the largest difference seen, so measured,
#: is 1.4e-14
ORACLE_TOL = 1e-9


def _close(key: str, got: float, want: float) -> bool:
    abs_tol = ORACLE_TOL if key.endswith(("_deg", "_rad")) else 0.0
    return math.isclose(got, want, rel_tol=ORACLE_TOL, abs_tol=abs_tol)


@st.composite
def _perturbed_configs(draw):
    """A bundled config with small grids and ensembles, and perturbed
    sequences, harmonics, noise and pulse model."""
    raw = json.loads(json.dumps(harness.bundled_config(draw(
        st.sampled_from(("default",) + experiments.FIGURES))).raw))
    finite = draw(st.booleans())
    fields = st.integers(3, 4) if finite else st.integers(3, 6)

    def spec(stop, points):
        return {"start": 0.0, "stop": stop, "points": points}

    raw["sequence"].update(kind=draw(st.sampled_from(["hahn", "pdd", "cp"])),
                           n_pi=draw(st.integers(1, 3)),
                           tau_ns=draw(st.sampled_from([1200, 1700, 2500])))
    raw["rf"].update(
        n=draw(st.integers(1, 3)),
        n_list=draw(st.lists(st.integers(1, 4), min_size=1, max_size=3,
                             unique=True)),
        amplitude_sweep_mt=spec(draw(st.sampled_from([0.2, 0.5])),
                                draw(st.integers(2, 6))),
        phase_sweep_deg=spec(360.0, draw(st.integers(2, 6))))
    raw["dd"] = {
        **raw.get("dd", {}),
        "protocols": draw(st.lists(st.sampled_from(["pdd", "cp"]),
                                   min_size=1, max_size=2, unique=True)),
        "n_pi_list": draw(st.lists(st.integers(1, 4), min_size=1,
                                   max_size=2 if finite else 3, unique=True)),
        "tau_us_list": draw(st.lists(st.sampled_from([1.2, 1.7, 2.5]),
                                     min_size=1, max_size=2, unique=True)),
        "amplitude_sweep_mt": spec(draw(st.sampled_from([0.1, 0.3])),
                                   draw(fields))}
    noisy = draw(st.booleans())
    raw["noise"] = {"sigma": 0.05 if noisy else 0.0,
                    "n_averages": draw(st.integers(1, 4))}
    raw["ensemble"].update(n_packets=draw(st.integers(20, 60)),
                           seed=draw(st.integers(0, 2**16)))
    raw["simulation"] = {"pulse_mode": "finite" if finite else "ideal",
                         "trace_points": draw(st.sampled_from([2, 5, 21,
                                                               61]))}
    return raw


def _outcome(fn):
    """fn()'s rows, or the type of the config or numerical error it raises."""
    try:
        return fn()
    except (ConfigError, NumericalError) as e:
        return type(e)


class TestAgainstOracle:
    @settings(max_examples=100, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.too_slow])
    @given(raw=_perturbed_configs(),
           command=st.sampled_from(list(experiments.EXPERIMENTS)))
    def test_rows_match_point_by_point_oracle(self, raw, command):
        cfg = harness.load_config(raw)
        got = _outcome(lambda: experiments.run_experiment(command, cfg))
        want = _outcome(lambda: harness_oracle.experiment_rows(command, cfg))
        if isinstance(want, type) or isinstance(got, type):
            assert got is want
            return
        assert [list(r) for r in got] == [list(r) for r in want]
        for g, w in zip(got, want):
            for key, value in w.items():
                if isinstance(value, float):
                    assert _close(key, g[key], value), (key, g[key], value)
                else:
                    assert g[key] == value, key
