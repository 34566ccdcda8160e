"""The config contract: `load_config` parses, each run checks its own
plan before simulating, and `validate` runs those checks for every
command whose grid the config gives; any config that loads runs to CSV
or exits 2 or 3."""

import copy
import json
import math
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from echosense import ConfigError, experiments, harness
from echosense.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"
COMMANDS = tuple(experiments.EXPERIMENTS)


def _bundled_raw(name: str) -> dict:
    return copy.deepcopy(harness.bundled_config(name).raw)


def _put(raw: dict, path: tuple, value) -> dict:
    node = raw
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return raw


#: one bad value each, set on fig4; every one would fail a run, most of
#: them only after simulation had started, or write non-finite results
BAD_CONFIGS = {
    "n_pi-zero": (("dd", "n_pi_list"), [0]),
    "unknown-top-level-key": (("colour",), "blue"),
    "misspelled-section-key": (("rf", "amplitde_mt"), 1.0),
    "sweep-spec-missing-keys": (("dd", "amplitude_sweep_mt"), {"start": 0}),
    "hahn-in-dd": (("dd", "protocols"), ["hahn"]),
    "protocols-not-a-list": (("dd", "protocols"), "pdd"),
    "nan-amplitude": (("rf", "amplitude_mt"), math.nan),
    "fractional-packet-count": (("ensemble", "n_packets"), 2.7),
    "negative-dd-tau": (("dd", "tau_us_list"), [-1]),
    "zero-harmonic": (("rf", "n"), 0),
    "negative-measurement-time": (("measurement", "t_meas_s"), -1),
    # finite in bench units, infinite in SI
    "density-overflows-in-si": (("sample", "spin_density_per_cm3"), 1e303),
    "g-overflows-in-si": (("spin_system", "g"), 1e308),
    "detuning-overflows-in-si": (("ensemble", "detuning_sigma_mhz"), 1e305),
    # both ends finite, but stop - start overflows to a NaN grid
    "phase-span-overflows": (("rf", "phase_sweep_deg"),
                             {"start": -1.7e308, "stop": 1.7e308,
                              "points": 4}),
    # increasing, but the fit's centred sum of squares underflows to zero
    "dd-field-spread-underflows": (("dd", "amplitude_sweep_mt"),
                                   [0, 1e-200, 2e-200, 3e-200]),
}


@pytest.mark.parametrize("case", list(BAD_CONFIGS))
def test_validate_rejects(tmp_path, case, capsys):
    path, value = BAD_CONFIGS[case]
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(_put(_bundled_raw("fig4"), path, value)))
    assert main(["validate", str(cfg)]) == 2
    assert "config error" in capsys.readouterr().err


def test_readme_table_lists_every_accepted_key():
    rows = re.findall(r"^\| `?([\w(). -]+?)`? \| `(\w+)` \|",
                      README.read_text(), flags=re.M)
    documented = {("" if section == "(top level)" else section, key)
                  for section, key in rows}
    accepted = {(section, key)
                for section, keys in harness.SCHEMA.items() for key in keys}
    assert documented == accepted
    assert len(accepted) == 41


_finite = st.floats(allow_nan=False, allow_infinity=False)


@given(_finite, _finite, st.integers(1, 200), st.sampled_from([1.0, 1e-3]))
@example(0.0, 1.0, 1, 1.0)
@example(-0.0, -0.0, 1, 1.0)  # linspace's single point is 0.0 * 0.0 + -0.0
@example(0.0, 1.0, 2, 1.0)
@example(2.5, 2.5, 7, 1.0)
@example(0.5, -3.0, 11, 1.0)  # reversed
@example(0.0, 5e-324, 3, 1.0)  # the step rounds to zero
@example(-1e-320, 1e-320, 9, 1e-3)
@example(-1.7e308, 1.7e308, 4, 1.0)  # the span overflows
@example(0.0, 0.5, 41, 1e-3)  # the dd amplitude default
def test_grid_spec_matches_linspace_bit_for_bit(start, stop, points, scale):
    got = harness._grid({"start": start, "stop": stop, "points": points},
                        scale=scale)
    with np.errstate(all="ignore"):
        want = np.linspace(start * scale, stop * scale, points).tolist()
    assert [x.hex() for x in got] == [x.hex() for x in want]


def test_fallbacks_resolve_once():
    default, fig2, fig3, fig4 = map(harness.bundled_config,
                                    ("default", "fig2", "fig3", "fig4"))
    assert default.dd_taus == pytest.approx((1.19e-6,), rel=1e-15)
    assert fig2.dd_amplitudes == fig2.amplitude_grid  # no dd grid: rf's
    assert fig3.amplitude_grid is None  # neither: 0-0.5 mT at 41 points
    assert fig3.dd_amplitudes == pytest.approx(
        [k * 0.5e-3 / 40 for k in range(41)], rel=1e-15, abs=1e-20)
    assert fig4.phase_grid is None  # split-interval: 0-360 deg at 37
    assert fig4.split_grid == tuple(float(p) for p in range(0, 361, 10))


# ---------------------------------------------------------------------------
# property: any one-value change either fails to load with ConfigError or
# runs every experiment to exit code 0, 2 or 3

#: pinned so every example stays small: ideal pulses, 4 packets, grids of
#: at most 5 points; integers in generated values are small for the same
#: reason (a count of a billion is a memory limit, not a config bug)
PINNED = {("simulation", "pulse_mode"): "ideal",
          ("ensemble", "n_packets"): 4,
          ("rf", "amplitude_sweep_mt", "points"): 5,
          ("rf", "phase_sweep_deg", "points"): 5,
          ("dd", "amplitude_sweep_mt", "points"): 5}


def _paths(node, prefix=()):
    """(path, value) of every key in a nested JSON object."""
    for key, value in node.items():
        yield prefix + (key,), value
        if isinstance(value, dict):
            yield from _paths(value, prefix + (key,))


def _pinned(path: tuple) -> bool:
    """path is pinned or holds a pinned value."""
    return any(p[:len(path)] == path for p in PINNED)


BASE = _bundled_raw("default")
for _path, _value in PINNED.items():
    _put(BASE, _path, _value)
_OBJECTS = [()] + [p for p, v in _paths(BASE) if isinstance(v, dict)]
KNOWN_KEYS = sorted({k for keys in harness.SCHEMA.values() for k in keys}
                    | set(harness.SCHEMA) - {""} | {"start", "stop", "points"})
numbers = st.integers(-3, 8) | st.floats()
any_json = st.recursive(
    st.none() | st.booleans() | numbers | st.text(max_size=4)
    | st.sampled_from(["hahn", "pdd", "cp", "ideal", "continuous"]),
    lambda inner: (st.lists(inner, max_size=4)
                   | st.dictionaries(st.sampled_from(KNOWN_KEYS)
                                     | st.text(max_size=4), inner,
                                     max_size=3)),
    max_leaves=6)
#: mostly values of a plausible type, so that many changed configs load
plausible = st.integers(1, 8) | st.floats(1e-3, 1e4)
json_values = (plausible | st.lists(plausible, min_size=1, max_size=4)
               | numbers | any_json)
changed_paths = (
    st.sampled_from([p for p, _ in _paths(BASE) if not _pinned(p)])
    | st.builds(lambda parent, key: parent + (key,),
                st.sampled_from(_OBJECTS),
                st.sampled_from(KNOWN_KEYS) | st.text(max_size=4))
    .filter(lambda p: not _pinned(p)))


@settings(max_examples=100, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(path=changed_paths, value=json_values)
def test_any_config_loads_or_fails_cleanly_and_runs(path, value):
    raw = _put(copy.deepcopy(BASE), path, value)
    try:
        harness.load_config(raw)
    except ConfigError:
        return
    with tempfile.TemporaryDirectory() as out:
        cfg = Path(out) / "cfg.json"
        cfg.write_text(json.dumps(raw))
        for command in COMMANDS:
            assert main([command, "-c", str(cfg), "-o", out]) in (0, 2, 3)
