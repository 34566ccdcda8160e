"""Import cost: the package and its CLI stay free of scipy."""

import json
import os
import subprocess
import sys
from pathlib import Path

import echosense


def test_package_and_cli_do_not_import_scipy():
    # scipy.integrate costs most of a cold `import echosense`; only the
    # quadrature oracle needs it, and imports it when it is called
    code = ("import json, sys; import echosense, echosense.cli, "
            "echosense.harness; print(json.dumps(sorted(m for m in "
            "sys.modules if m.split('.')[0] == 'scipy')))")
    src = str(Path(echosense.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert json.loads(out) == []
