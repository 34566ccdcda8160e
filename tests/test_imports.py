"""Import cost: the package and its CLI stay free of scipy and of the
process pool, and loading and validating a config stays free of numpy."""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import echosense


def _fresh(code: str):
    """The JSON that `code` prints, run in a fresh interpreter on this
    checkout's package."""
    src = str(Path(echosense.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", textwrap.dedent(code)],
                         env=env, check=True, capture_output=True,
                         text=True).stdout
    return json.loads(out)


def test_package_and_cli_do_not_import_scipy():
    # scipy is a test dependency only: the package, its CLI and the
    # quadrature oracle run on numpy alone
    assert _fresh("import json, sys; import echosense, echosense.cli, "
                  "echosense.harness; print(json.dumps(sorted(m for m in "
                  "sys.modules if m.split('.')[0] == 'scipy')))") == []


def test_oracle_loads_neither_scipy_nor_numpy_polynomial():
    # the quadrature oracle is numpy-only and builds its Gauss-Legendre
    # nodes on first use: the import adds neither scipy nor
    # numpy.polynomial to what numpy loads, and an oracle call adds no scipy
    at_import, phi, after_call = _fresh("""
        import json, sys
        import numpy

        def loaded():
            return {m for m in sys.modules if m.split('.')[0] == 'scipy'
                    or m.split('.')[:2] == ['numpy', 'polynomial']}

        before = loaded()
        import echosense, echosense.cli, echosense.harness
        at_import = sorted(loaded() - before)
        seq = echosense.build_hahn(1.2e-6, 80e-9, 160e-9)
        phi = echosense.accumulate_phase_quadrature(
            echosense.SpinSystem(), echosense.CoilCalibration(),
            echosense.filter_function(seq),
            echosense.build_synchronized(seq, 1e-6))
        print(json.dumps([at_import, phi, sorted(
            m for m in sys.modules if m.split('.')[0] == 'scipy')]))
    """)
    assert at_import == []
    assert phi != 0.0 and after_call == []


def test_serial_runs_do_not_import_the_process_pool():
    # the pool is imported by the first parallel sweep, so a serial run
    # loads neither its module nor multiprocessing
    assert _fresh("import json, sys; import echosense, echosense.cli, "
                  "echosense.harness; print(json.dumps(sorted(m for m in "
                  "sys.modules if m == 'concurrent.futures.process' "
                  "or m.split('.')[0] == 'multiprocessing')))") == []


def test_loading_and_validating_configs_do_not_import_numpy():
    # only a simulation needs numpy: the import, load_config and validate
    # of every bundled config run on the closed-form layer alone
    validated, loaded = _fresh("""
        import contextlib, io, json, sys
        from importlib import resources
        import echosense, echosense.cli, echosense.harness

        configs = sorted(str(p) for p in resources.files(
            "echosense").joinpath("configs").iterdir()
            if p.name.endswith(".json"))
        codes = []
        for path in configs:
            echosense.harness.load_config(path)
            with contextlib.redirect_stdout(io.StringIO()):
                codes.append(echosense.cli.main(["validate", path]))
        print(json.dumps([codes, sorted(
            m for m in sys.modules if m.split('.')[0] == 'numpy')]))
    """)
    assert validated == [0] * 5
    assert loaded == []


def test_simulation_names_resolve_in_a_fresh_interpreter():
    # blochsim's names, and the module itself, load on first lookup, as
    # `bench/tracing.py`'s getattr(echosense, "blochsim") needs
    names, numpy_before = _fresh("""
        import json, sys
        import echosense

        numpy_before = "numpy" in sys.modules
        found = [echosense.evolve.__module__, echosense.EnsembleConfig.__name__,
                 getattr(echosense, "blochsim").__name__]
        from echosense import SimulationTrace, echo_observable
        found += [SimulationTrace.__module__, echo_observable.__module__]
        print(json.dumps([found, numpy_before]))
    """)
    assert names == ["echosense.blochsim", "EnsembleConfig",
                     "echosense.blochsim", "echosense.blochsim",
                     "echosense.blochsim"]
    assert numpy_before is False


def test_loading_configs_loads_only_core_and_harness():
    # every public name loads with its submodule on first use, and a
    # config needs only the schema: no sequence, RF, phase or simulator
    # module runs
    assert _fresh("""
        import json, sys
        from importlib import resources
        import echosense
        from echosense import harness

        for p in resources.files("echosense").joinpath("configs").iterdir():
            if p.name.endswith(".json"):
                harness.load_config(str(p))
        print(json.dumps(sorted(m for m in sys.modules
                                if m.split('.')[0] == 'echosense')))
    """) == ["echosense", "echosense.core", "echosense.harness"]


#: every name the package namespace held when it imported its submodules
#: eagerly
_EXPORTS = (
    "HBAR", "MU0_OVER_4PI", "MU_B", "CoilCalibration", "ConfigError",
    "EnsembleConfig", "NumericalError", "PulseMode", "SampleSpec",
    "SpinSystem", "gyromagnetic_ratio", "FilterFunction", "Pulse",
    "PulseSequence", "SequenceKind", "build_cp", "build_hahn", "build_pdd",
    "filter_function", "ResetMode", "RFWaveform", "build_split_interval",
    "build_synchronized", "exclude_intervals", "pulse_gated",
    "synchronized_frequency", "zero_field", "PhaseAccumulation",
    "accumulate_phase", "accumulate_phase_quadrature", "phase_vs_rf_phase",
    "split_interval_decomposition", "wrap_phase", "FitMethod",
    "SensitivityReport", "TransductionFit", "concentration_sensitivity",
    "dipole_field", "fit_transduction", "minimum_detectable_field",
    "spectral_sensitivity", "SimulationTrace", "echo_observable", "evolve",
    "dd_sensitivity_sweep", "__version__")


def test_every_exported_name_resolves_in_a_fresh_interpreter():
    missing, star, modules = _fresh(f"""
        import json
        import echosense

        missing = []
        for name in {list(_EXPORTS)!r}:
            try:
                exec(f"from echosense import {{name}}", {{}})
            except ImportError:
                missing.append(name)
        star = {{}}
        exec("from echosense import *", star)
        print(json.dumps([missing, sorted(star), [
            echosense.blochsim.__name__,
            echosense.dd_sensitivity_sweep.__module__,
            echosense.sequence.SequenceKind is echosense.core.SequenceKind,
            echosense.rf.ResetMode is echosense.core.ResetMode]]))
    """)
    assert missing == []
    assert set(_EXPORTS) - {"__version__"} <= set(star)
    assert modules == ["echosense.blochsim", "echosense.experiments",
                       True, True]
