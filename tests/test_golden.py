"""`reproduce fig2..fig5`, the trace that `sweep-amplitude --dump-trace`
writes for the bundled default on a 5-point grid, and a finite-pulse
fig4 `dd-sweep`, against the committed CSVs in tests/golden/.

File names, headers, and string and integer cells must match exactly.
A float cell may move by at most 1e-9 times the largest magnitude in its
golden column, so rounding-level changes pass and physics changes fail.
"""

import csv
import json
import math
from pathlib import Path

import pytest

from echosense import experiments, harness
from echosense.cli import main

GOLDEN = Path(__file__).parent / "golden"
FLOAT_REL_TOL = 1e-9


def _read(path: Path) -> tuple[list[str], list[list[str]]]:
    with open(path, newline="") as fh:
        header, *rows = csv.reader(fh)
    return header, rows


def _parse(cell: str):
    for kind in (int, float):
        try:
            return kind(cell)
        except ValueError:
            pass
    return cell


def _column_scales(rows) -> list[float]:
    """Largest finite float magnitude of each column (0 if none)."""
    scales = [0.0] * len(rows[0])
    for row in rows:
        for j, cell in enumerate(row):
            v = _parse(cell)
            if type(v) is float and math.isfinite(v):
                scales[j] = max(scales[j], abs(v))
    return scales


def _assert_matches(name: str, got: Path) -> None:
    """The CSV `got` against the golden CSV `name`, cell by cell."""
    header, rows = _read(GOLDEN / name)
    got_header, got_rows = _read(got)
    assert got_header == header, name
    assert len(got_rows) == len(rows), name
    scales = _column_scales(rows)
    for i, (row, got_row) in enumerate(zip(rows, got_rows)):
        assert len(got_row) == len(row), (name, i)
        for j, (cell, got_cell) in enumerate(zip(row, got_row)):
            where = (name, i, header[j])
            want_v, got_v = _parse(cell), _parse(got_cell)
            if type(want_v) is float and math.isfinite(want_v):
                assert type(got_v) is float, where
                assert abs(got_v - want_v) <= FLOAT_REL_TOL * scales[j], \
                    where
            else:
                assert got_cell == cell, where


@pytest.mark.parametrize("figure", experiments.FIGURES)
def test_reproduce_matches_golden(figure, tmp_path):
    written = experiments.reproduce(figure, tmp_path)
    got = {p.name: p for p in written if p.suffix == ".csv"}
    want = sorted(p.name for p in GOLDEN.glob(f"{figure}_*.csv"))
    assert sorted(got) == want
    for name in want:
        _assert_matches(name, got[name])


def test_dump_trace_matches_golden(tmp_path, capsys):
    assert main(["sweep-amplitude", "-o", str(tmp_path), "--dump-trace",
                 "--set", 'rf.amplitude_sweep_mt='
                          '{"start":0,"stop":0.5,"points":5}']) == 0
    written = capsys.readouterr().out.split()
    assert Path(written[-1]).name == "trace.csv"
    _assert_matches("trace.csv", Path(written[-1]))


def test_finite_dd_sweep_matches_golden(tmp_path, capsys):
    # fig4 with finite pulses, n_pi 1 and 3 on three fields: 12 rows
    fig4 = tmp_path / "fig4.json"
    fig4.write_text(json.dumps(harness.bundled_config("fig4").raw))
    assert main(["dd-sweep", "-c", str(fig4), "-o", str(tmp_path),
                 "--set", 'simulation.pulse_mode="finite"',
                 "--set", "dd.n_pi_list=[1,3]",
                 "--set", 'dd.amplitude_sweep_mt='
                          '{"start":0,"stop":0.5,"points":3}']) == 0
    written = capsys.readouterr().out.split()
    _assert_matches("finite_fig4_dd_sweep.csv", Path(written[-1]))
