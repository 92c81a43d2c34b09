"""Closed-form outputs of every preset against stored reference files.

For each preset this runs the CLI and compares its output with the file of
the same name under ``tests/golden/<preset>/``:

- ``sweep.csv`` at ``--symbols 100``, every column but the Monte Carlo
  ``g_sim_db``;
- ``eigen.csv`` and ``analysis.json`` on the preset's own grid;
- ``pattern.csv`` at ``--snr-db 20``.

Numbers must agree to 1e-9 relative; columns and keys ending in ``_db`` also
get 1e-9 absolute, because some of them (fig4a's ``g_theory_db``) are
numerically 0. Labels, flags, nulls and infinities must match exactly.

The reference files are CLI outputs, written once and kept until an output
is meant to change. To regenerate them, run from the repository root:

    for p in fig4a-bpsk3 fig4b-pn2 fig4c-tones5 fig4d-mai3 fig6-pn2; do
        PYTHONPATH=src python -m mpbsim sweep --preset $p --symbols 100 --out tests/golden/$p
        PYTHONPATH=src python -m mpbsim eigen --preset $p --out tests/golden/$p
        PYTHONPATH=src python -m mpbsim analyze --preset $p --out tests/golden/$p
        PYTHONPATH=src python -m mpbsim pattern --preset $p --snr-db 20 --out tests/golden/$p
    done
"""

import csv
import json
import math
from pathlib import Path

import pytest

from mpbsim import cli, harness

GOLDEN = Path(__file__).resolve().parent / "golden"
RTOL = 1e-9
DB_ATOL = 1e-9

RUNS = {
    "sweep.csv": ["sweep", "--symbols", "100"],
    "eigen.csv": ["eigen"],
    "analysis.json": ["analyze"],
    "pattern.csv": ["pattern", "--snr-db", "20"],
}
SKIPPED_COLUMNS = {"g_sim_db"}  # Monte Carlo: statistically, not bytewise, stable


def _number(x):
    if x is None or isinstance(x, bool):
        return None
    try:
        return float(x)
    except ValueError:
        return None


def _same(got, want, name: str, where: str):
    """Finite numbers agree to RTOL (plus DB_ATOL on dB fields); all else exactly."""
    g, w = _number(got), _number(want)
    if g is not None and w is not None and math.isfinite(w):
        atol = DB_ATOL if name.endswith("_db") else 0.0
        assert g == pytest.approx(w, rel=RTOL, abs=atol), where
    else:
        assert got == want, where


def _compare_json(got, want, where="", name=""):
    if isinstance(want, dict):
        assert isinstance(got, dict) and sorted(got) == sorted(want), where
        for key in want:
            _compare_json(got[key], want[key], f"{where}.{key}", key)
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), where
        for i, (g, w) in enumerate(zip(got, want)):
            _compare_json(g, w, f"{where}[{i}]", name)
    else:
        _same(got, want, name, where)


def _compare_csv(got_path: Path, want_path: Path):
    with open(got_path, newline="") as fh:
        got = list(csv.DictReader(fh))
    with open(want_path, newline="") as fh:
        reader = csv.DictReader(fh)
        want = list(reader)
        header = reader.fieldnames
    assert got_path.read_text().splitlines()[0] == ",".join(header)
    assert len(got) == len(want)
    for i, (g, w) in enumerate(zip(got, want)):
        for col in header:
            if col not in SKIPPED_COLUMNS:
                _same(g[col], w[col], col, f"row {i} {col}")


@pytest.mark.parametrize("output", sorted(RUNS))
@pytest.mark.parametrize("preset", sorted(harness.PRESETS))
def test_golden_output(preset, output, tmp_path):
    assert cli.main(RUNS[output] + ["--preset", preset, "--out", str(tmp_path)]) == 0
    got, want = tmp_path / output, GOLDEN / preset / output
    if output.endswith(".json"):
        _compare_json(json.loads(got.read_text()), json.loads(want.read_text()))
    else:
        _compare_csv(got, want)
