"""Import cost: the package and its CLI stay free of scipy and of the
process pool."""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import echosense


def test_package_and_cli_do_not_import_scipy():
    # scipy is a test dependency only: the package, its CLI and the
    # quadrature oracle run on numpy alone
    code = ("import json, sys; import echosense, echosense.cli, "
            "echosense.harness; print(json.dumps(sorted(m for m in "
            "sys.modules if m.split('.')[0] == 'scipy')))")
    src = str(Path(echosense.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert json.loads(out) == []


def test_oracle_loads_neither_scipy_nor_numpy_polynomial():
    # the quadrature oracle is numpy-only and builds its Gauss-Legendre
    # nodes on first use: the import adds neither scipy nor
    # numpy.polynomial to what numpy loads, and an oracle call adds no scipy
    code = textwrap.dedent("""
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
    src = str(Path(echosense.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    at_import, phi, after_call = json.loads(out)
    assert at_import == []
    assert phi != 0.0 and after_call == []


def test_serial_runs_do_not_import_the_process_pool():
    # the pool is imported by the first parallel sweep, so a serial run
    # loads neither its module nor multiprocessing
    code = ("import json, sys; import echosense, echosense.cli, "
            "echosense.harness; print(json.dumps(sorted(m for m in "
            "sys.modules if m == 'concurrent.futures.process' "
            "or m.split('.')[0] == 'multiprocessing')))")
    src = str(Path(echosense.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert json.loads(out) == []
