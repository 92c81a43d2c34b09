"""Config round-trips and validation, presets, harness runs, and the CLI."""

import argparse
import concurrent.futures
import itertools
import json
import math
import multiprocessing.process
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from mpbsim import cli, harness, mpb, theory
from mpbsim import linalg as la
from mpbsim import sigmodel as sm

ALL_PRESETS = ("fig4a-bpsk3", "fig4b-pn2", "fig4c-tones5", "fig4d-mai3",
               "fig6-pn2")


def _tiny(name="fig4a-bpsk3", symbols=500, grid=(0.0, 10.0)):
    return replace(harness.preset(name), symbols=symbols, snr_grid_db=grid)


# -----------------------
# Config model
# -----------------------

@pytest.mark.parametrize("name", ALL_PRESETS)
def test_config_roundtrip(name, tmp_path):
    cfg = harness.preset(name)
    path = tmp_path / "cfg.json"
    harness.save_config(cfg, path)
    assert harness.load_config(path) == cfg


def test_scheme_string_shorthand():
    cfg = harness.config_from_dict({"scheme": "PAPC"})
    assert cfg.scheme.name == "PAPC"
    assert cfg.scheme.position == 0


def test_unknown_top_level_key():
    with pytest.raises(harness.ConfigError, match="'snr_grid'"):
        harness.config_from_dict({"snr_grid": [0.0]})


def test_unknown_scheme_key():
    with pytest.raises(harness.ConfigError, match="scheme"):
        harness.config_from_dict({"scheme": {"name": "PAPC", "pos": 3}})


def test_unknown_interferer_key():
    d = {"interferers": [{"kind": "tone", "offset": 0.1}]}
    with pytest.raises(harness.ConfigError, match=r"interferers\[0\]"):
        harness.config_from_dict(d)


def test_bad_json_reports_line(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{\n  "seed": 1,,\n}\n')
    with pytest.raises(harness.ConfigError, match="line 2"):
        harness.load_config(path)


def test_missing_file():
    with pytest.raises(harness.ConfigError, match="not found"):
        harness.load_config("/nonexistent/cfg.json")


def test_grid_must_ascend():
    with pytest.raises(harness.ConfigError, match="ascending"):
        harness.config_from_dict({"snr_grid_db": [0.0, 0.0, 2.0]})


@pytest.mark.parametrize("gain", [0, 32])
def test_processing_gain_must_be_gold_length(gain):
    with pytest.raises(harness.ConfigError, match="processing_gain"):
        harness.config_from_dict({"processing_gain": gain})


@pytest.mark.parametrize("gain", [0, 32])
def test_cli_bad_processing_gain_is_exit_1(gain, tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"processing_gain": gain}))
    rc = cli.main(["sweep", "--config", str(cfg_path), "--out", str(tmp_path)])
    assert rc == 1
    assert "processing_gain" in capsys.readouterr().err


@pytest.mark.parametrize("config, field", [
    ({"scheme": 5}, "scheme"),
    ({"interferers": 5}, "interferers"),
    ({"interferers": [5]}, "interferers[0]"),
    ({"interferers": [{"kind": "tone", "doa_deg": "x"}]}, "interferers[0].doa_deg"),
    ({"interferers": [{"kind": "mai_multipath", "path_delays": 5}]},
     "interferers[0].path_delays"),
    ({"snr_grid_db": "abc"}, "snr_grid_db"),
    ({"symbols": "1000"}, "symbols"),
    ({"element_count": True}, "element_count"),
])
def test_cli_config_type_error_is_exit_1(config, field, tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(config))
    rc = cli.main(["sweep", "--config", str(cfg_path), "--out", str(tmp_path)])
    assert rc == 1
    assert f"config error: {field} must be" in capsys.readouterr().err


@pytest.mark.parametrize("args, field", [
    (["sweep", "--preset", "fig4b-pn2", "--seed", "-1"], "seed"),
    (["sweep", "--preset", "fig4b-pn2", "--seed", str(2 ** 64)], "seed"),
    (["sweep", "--preset", "fig4b-pn2", "--snr-db=nan"], "snr_grid_db"),
    (["sweep", "--preset", "fig4b-pn2", "--snr-db=0,inf"], "snr_grid_db"),
    (["analyze", "--preset", "fig4b-pn2", "--inr-db", "inf"], "inr_db"),
    (["analyze", "--preset", "fig4b-pn2", "--inr-db", "nan"], "inr_db"),
    (["analyze", "--preset", "fig4b-pn2", "--inr-db=-inf"], "inr_db"),
    # finite dB values whose linear power overflows or underflows
    (["analyze", "--preset", "fig4b-pn2", "--inr-db", "4000"], "inr_db"),
    (["analyze", "--preset", "fig4b-pn2", "--inr-db=-4000"], "inr_db"),
    (["pattern", "--preset", "fig4b-pn2", "--snr-db", "4000"], "snr_grid_db"),
    (["pattern", "--preset", "fig4b-pn2", "--snr-db=-4000"], "snr_grid_db"),
    (["sweep", "--preset", "fig4b-pn2", "--snr-db=0,4000"], "snr_grid_db"),
    (["sweep", "--preset", "fig4b-pn2", "--snr-db=-4000"], "snr_grid_db"),
])
def test_cli_out_of_range_field_is_exit_1(args, field, tmp_path, capsys):
    rc = cli.main(args + ["--out", str(tmp_path)])
    assert rc == 1
    assert f"config error: {field} must" in capsys.readouterr().err
    assert not os.listdir(tmp_path)


@pytest.mark.parametrize("rel_db", [4000.0, -4000.0])
def test_cli_interferer_power_out_of_range_names_rel_power_db(rel_db, tmp_path, capsys):
    config = harness.config_to_dict(harness.preset("fig4b-pn2"))
    config["interferers"][1]["rel_power_db"] = rel_db
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(config))
    out = tmp_path / "out"
    rc = cli.main(["analyze", "--config", str(cfg_path), "--out", str(out)])
    assert rc == 1
    assert ("config error: interferers[1].rel_power_db must"
            in capsys.readouterr().err)
    assert not out.exists()


def _set(path, value):
    """A config edit: set the entry at path (keys and indices) to value."""
    def edit(config, tmp_path):
        target = config
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value
    return edit


def _custom_basis(h_s_scale=1.0, h_i_columns=1, gold_index=0):
    """A config edit: a Custom scheme whose basis file holds Maximin's
    bases for Gold code gold_index, with h_s scaled by h_s_scale and h_i
    cut to h_i_columns columns."""
    def edit(config, tmp_path):
        bases = mpb.maximin_bases(sm.gold31(gold_index))
        npz = tmp_path / "basis.npz"
        np.savez(npz, h_s=h_s_scale * bases.h_s, h_i=bases.h_i[:, :h_i_columns])
        config["scheme"] = {"name": "Custom", "basis_file": str(npz)}
    return edit


def _short_basis(config, tmp_path):
    """A config edit: a Custom scheme whose unit h_s has 4 entries, not N."""
    npz = tmp_path / "basis.npz"
    np.savez(npz, h_s=np.full(4, 0.5), h_i=np.eye(4)[:, 1:2])
    config["scheme"] = {"name": "Custom", "basis_file": str(npz)}


def _npy_basis(config, tmp_path):
    """A config edit: a Custom scheme whose basis file is an .npy array."""
    npy = tmp_path / "basis.npy"
    np.save(npy, mpb.maximin_bases(sm.gold31(0)).h_i)
    config["scheme"] = {"name": "Custom", "basis_file": str(npy)}


def _text_basis(config, tmp_path):
    """A config edit: a Custom scheme whose basis file is 5 bytes of text."""
    text = tmp_path / "basis.npz"
    text.write_text("hello")
    config["scheme"] = {"name": "Custom", "basis_file": str(text)}


@pytest.mark.parametrize("preset, edit, field", [
    ("fig4b-pn2", _set(("interferers", 1, "doa_deg"), 95.0), "interferers[1].doa_deg"),
    ("fig4b-pn2", _set(("interferers", 0, "doa_deg"), math.nan), "interferers[0].doa_deg"),
    ("fig4d-mai3", _set(("interferers", 0, "path_doas", 2), -90.0),
     "interferers[0].path_doas[2]"),
    ("fig4d-mai3", _set(("interferers", 0, "path_gains"), [1.0, math.nan, 1.0]),
     "interferers[0].path_gains[1]"),
    ("fig4c-tones5", _set(("interferers", 3, "normalized_offset"), math.nan),
     "interferers[3].normalized_offset"),
    ("fig4c-tones5", _set(("interferers", 1, "normalized_offset"), -math.inf),
     "interferers[1].normalized_offset"),
    ("fig4d-mai3", _set(("interferers", 0, "user_code"), 40), "interferers[0].user_code"),
    ("fig4b-pn2", _set(("element_spacing",), math.inf), "element_spacing"),
    ("fig4b-pn2", _set(("soi_doa_deg",), 90.0), "soi_doa_deg"),
    ("fig4b-pn2", _set(("gold_index",), 40), "gold_index"),
    ("fig4b-pn2", _set(("element_count",), 1), "element_count"),
    ("fig4d-mai3", _set(("interferers", 0, "path_delays", 1), 31),
     "interferers[0].path_delays[1]"),
    ("fig4d-mai3", _set(("interferers", 0, "path_doas"), [30.0, -20.0]),
     "interferers[0].path_doas"),
    ("fig4d-mai3", _set(("interferers", 0, "path_delays"), []),
     "interferers[0].path_delays"),
    ("fig4d-mai3", _set(("interferers", 0, "path_gains"), [1.0, 1.0]),
     "interferers[0].path_gains"),
    ("fig4b-pn2", _set(("scheme",), {"name": "PAPC", "position": 40}), "scheme.position"),
    ("fig4b-pn2", _set(("scheme", "monitor_freq"), 1.5), "scheme.monitor_freq"),
    ("fig4b-pn2", _set(("scheme", "monitor_freq"), math.nan), "scheme.monitor_freq"),
    ("fig4b-pn2", _custom_basis(h_s_scale=2.0), "scheme.basis_file"),
    ("fig4b-pn2", _custom_basis(h_i_columns=0), "scheme.basis_file"),
    ("fig4b-pn2", _custom_basis(gold_index=3), "scheme.basis_file"),
    ("fig4b-pn2", _short_basis, "scheme.basis_file"),
    ("fig4b-pn2", _npy_basis, "cannot read custom basis file"),
    ("fig4b-pn2", _text_basis, "cannot read custom basis file"),
])
@pytest.mark.parametrize("command", ["sweep", "eigen", "analyze", "pattern"])
def test_cli_bad_config_field_is_exit_1(command, preset, edit, field, tmp_path, capsys):
    """Endfire or non-finite DOAs, a non-finite tone offset, ray gain or
    element spacing, a SOI or MAI code index that names no Gold code, a
    single-element array, an MAI path delay of a whole code length, MAI
    ray lists that are empty or differ in length, a PAPC position or a
    Maximin frequency out of range, and a Custom basis file whose h_s is
    not unit norm, not the config's code or not N long, or whose h_i has
    no column,
    are config errors that name the field, not numeric failures deep in
    the run, under every command that runs a config. A basis file that is
    an .npy array or not a numpy file at all cannot be read, which is a
    config error too, not a traceback, and no message advises unpickling.
    JSON NaN and Infinity parse as floats."""
    config = harness.config_to_dict(harness.preset(preset))
    edit(config, tmp_path)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(config))
    out = tmp_path / "out"
    grid = ["--snr-db", "10"] if command == "pattern" else []
    rc = cli.main([command, "--config", str(cfg_path), "--symbols", "500",
                   "--out", str(out)] + grid)
    assert rc == 1
    lead = field if field.startswith("cannot read") else f"{field} must"
    err = capsys.readouterr().err
    assert f"config error: {lead}" in err
    assert "pickle" not in err
    assert not out.exists()


def test_symbols_floor():
    with pytest.raises(harness.ConfigError, match="symbols"):
        harness.config_from_dict({"symbols": 50})


def test_bad_scheme_name():
    with pytest.raises(harness.ConfigError):
        harness.config_from_dict({"scheme": {"name": "Zap"}})


def test_custom_scheme_needs_basis_file():
    with pytest.raises(harness.ConfigError, match="basis_file"):
        harness.config_from_dict({"scheme": {"name": "Custom"}})


def test_bad_interferer_kind():
    with pytest.raises(harness.ConfigError, match="kind"):
        harness.config_from_dict({"interferers": [{"kind": "flute"}]})


# -----------------------
# Presets
# -----------------------

def test_preset_names_sorted():
    assert harness.preset_names() == sorted(ALL_PRESETS)


def test_unknown_preset():
    with pytest.raises(harness.ConfigError, match="available"):
        harness.preset("fig9-nope")


def test_preset_contents():
    a = harness.preset("fig4a-bpsk3")
    assert [i.kind for i in a.interferers] == ["bpsk_white"] * 3
    assert [i.doa_deg for i in a.interferers] == [30.0, -40.0, 50.0]
    assert a.scheme.name == "Maximin"
    assert a.symbols == 100_000 and a.inr_db == 30.0

    b = harness.preset("fig4b-pn2")
    assert [i.kind for i in b.interferers] == ["periodical_noise"] * 2
    assert [i.doa_deg for i in b.interferers] == [30.0, -40.0]

    c = harness.preset("fig4c-tones5")
    assert [i.kind for i in c.interferers] == ["tone"] * 5
    assert c.interferers[0].normalized_offset == pytest.approx(1.0 / 31.0)

    d = harness.preset("fig4d-mai3")
    assert d.interferers[0].kind == "mai_multipath"
    assert d.interferers[0].path_delays == (3, 5, 4)


def test_fig6_is_fig4b_with_pinned_seed():
    b, f6 = harness.preset("fig4b-pn2"), harness.preset("fig6-pn2")
    assert f6.seed == 81
    assert replace(f6, seed=b.seed) == b


# -----------------------
# Config -> model objects
# -----------------------

def test_scenario_at_unit_conversion():
    cfg = replace(harness.preset("fig4b-pn2"), inr_db=30.0)
    cfg = replace(cfg, interferers=(
        replace(cfg.interferers[0], rel_power_db=-3.0), cfg.interferers[1]))
    sc = harness.scenario_at(cfg, 20.0, stream=3)
    assert sc.soi.power == pytest.approx(100.0 / 31.0)
    assert sc.interferers[0].power == pytest.approx(10.0 ** 2.7)
    assert sc.interferers[1].power == pytest.approx(1000.0)
    assert sc.seed == cfg.seed and sc.mc_stream == 3
    assert sc.geometry.element_count == 8


def test_scenario_at_wraps_model_errors():
    """A model error at a point is a ConfigError: here the SOI power of a
    NaN SNR, which no config can hold. Mismatched MAI ray lists, once the
    model's error here, are now the config's own."""
    with pytest.raises(harness.ConfigError, match="power must be"):
        harness.scenario_at(harness.preset("fig4d-mai3"), math.nan)
    with pytest.raises(harness.ConfigError, match=r"^interferers\[0\]\.path_doas must"):
        replace(harness.preset("fig4d-mai3"), interferers=(
            harness.InterfererConfig("mai_multipath", path_delays=(3, 5),
                                     path_doas=(30.0,)),))


def test_bases_for_custom_npz(tmp_path):
    code = sm.gold31(0)
    path = tmp_path / "basis.npz"
    h_i = np.zeros((31, 1), dtype=complex)
    h_i[5, 0] = 1.0
    np.savez(path, h_s=code / math.sqrt(31.0), h_i=h_i)
    cfg = replace(harness.preset("fig4a-bpsk3"),
                  scheme=harness.SchemeConfig("Custom", basis_file=str(path)))
    bases = harness.bases_for(cfg)
    assert bases.scheme == "Custom"
    assert bases.h_i.shape == (31, 1)


@pytest.mark.parametrize("name", ["h_s", "h_i"])
@pytest.mark.parametrize("command", ["sweep", "eigen", "analyze", "pattern"])
def test_cli_non_finite_custom_basis_is_exit_1(command, name, tmp_path, capsys):
    bases = mpb.maximin_bases(sm.gold31(0))
    arrays = {"h_s": bases.h_s.copy(), "h_i": bases.h_i.copy()}
    arrays[name].flat[4] = math.nan
    npz = tmp_path / "basis.npz"
    np.savez(npz, **arrays)
    cfg = replace(_tiny("fig4b-pn2", grid=(10.0,)), out_dir=str(tmp_path / "out"),
                  scheme=harness.SchemeConfig("Custom", basis_file=str(npz)))
    cfg_path = tmp_path / "cfg.json"
    harness.save_config(cfg, cfg_path)
    rc = cli.main([command, "--config", str(cfg_path)])
    assert rc == 1
    assert (f"config error: scheme.basis_file must give valid bases: {name} contains "
            f"non-finite entries" in capsys.readouterr().err)
    assert not (tmp_path / "out").exists()


def test_bases_for_custom_missing_file():
    cfg = replace(harness.preset("fig4a-bpsk3"),
                  scheme=harness.SchemeConfig("Custom", basis_file="/no.npz"))
    with pytest.raises(harness.ConfigError, match="basis file"):
        harness.bases_for(cfg)


# -----------------------
# Sweep
# -----------------------

def test_sweep_csv_format(tmp_path):
    cfg = _tiny(symbols=500, grid=(-10.0, 10.0))
    path = tmp_path / "sweep.csv"
    rows = harness.run_sweep(cfg, out_path=path)
    lines = path.read_text().splitlines()
    assert lines[0] == ("snr_db,g_sim_db,g_theory_db,gamma0,gamma1,"
                        "lambda_max_exact,lambda_max_pred,region")
    assert len(lines) == 1 + len(rows) == 3
    for line, row in zip(lines[1:], rows):
        fields = line.split(",")
        assert len(fields) == 8
        assert fields[0] == f"{row.snr_db:.9g}"
        assert fields[1] == f"{row.g_sim_db:.9g}"
        assert fields[7] == row.region
        assert float(fields[5]) == pytest.approx(row.lambda_max_exact,
                                                 rel=5e-9)
    print("\n".join(lines))


def test_sweep_csv_spells_non_finite_values(tmp_path):
    row = harness.SweepRow(snr_db=-0.0, g_sim_db=-math.inf, g_theory_db=math.nan,
                           gamma0=math.inf, gamma1=0.0, lambda_max_exact=1.5,
                           lambda_max_pred=math.nan, region="Error", error="E: e")
    path = tmp_path / "sweep.csv"
    harness.write_sweep_csv([row], path)
    assert path.read_bytes() == (harness.SWEEP_HEADER
                                 + "\n-0,-inf,nan,inf,0,1.5,nan,Error\n").encode()


def test_sweep_white_interferers_track_theory():
    # gamma_1 = 0 scenario: theory curve is identically 1 and the K = 2000
    # estimate should already sit within a fraction of a dB of it
    rows = harness.run_sweep(_tiny(symbols=2000, grid=(-10.0, 10.0, 30.0)))
    for r in rows:
        assert abs(r.g_theory_db) < 1e-9
        assert r.gamma1 == 0.0
        assert abs(r.g_sim_db) < 1.5
        assert r.region == "Operating"


def test_sweep_worker_count_invisible(tmp_path):
    cfg = _tiny("fig4b-pn2", symbols=1000, grid=(-10.0, 10.0, 30.0))
    p1, p2 = tmp_path / "w1.csv", tmp_path / "w2.csv"
    rows1 = harness.run_sweep(cfg, workers=1, out_path=p1)
    rows2 = harness.run_sweep(cfg, workers=2, out_path=p2)
    assert rows1 == rows2
    assert p1.read_bytes() == p2.read_bytes()


def _refuse_to_start(*args, **kwargs):
    raise AssertionError("a sweep started a process")


@pytest.mark.parametrize("workers", [1, 2, 64])
def test_sweep_starts_no_process(workers, monkeypatch):
    """Every sweep synthesizes its points in the calling process: no pool and
    no child process at any worker count, and the rows of one worker."""
    cfg = _tiny("fig4b-pn2", symbols=200, grid=(-10.0, 0.0, 10.0))
    serial = harness.run_sweep(cfg, workers=1)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _refuse_to_start)
    monkeypatch.setattr(multiprocessing.process.BaseProcess, "start", _refuse_to_start)
    assert harness.run_sweep(cfg, workers=workers) == serial


@pytest.mark.parametrize("workers", [0, -3])
def test_sweep_rejects_fewer_than_one_worker(workers):
    with pytest.raises(ValueError, match="workers"):
        harness.run_sweep(_tiny("fig4b-pn2", symbols=200, grid=(0.0,)), workers=workers)


def test_cli_parses_without_leaking_between_calls(monkeypatch, tmp_path):
    """The parser is built once per process, and a flag given to one call
    does not carry over to the next."""
    def refuse():
        raise AssertionError("parser rebuilt")
    monkeypatch.setattr(cli, "build_parser", refuse)
    seen = []
    monkeypatch.setattr(harness, "run_sweep",
                        lambda config, workers, out_path: seen.append(config) or [])
    common = ["sweep", "--preset", "fig4b-pn2", "--out", str(tmp_path)]
    assert cli.main([*common, "--seed", "5", "--symbols", "300"]) == 0
    assert cli.main(common) == 0
    own = harness.preset("fig4b-pn2")
    assert [(c.seed, c.symbols) for c in seen] == [(5, 300), (own.seed, own.symbols)]
    assert seen[1] == replace(own, out_dir=str(tmp_path))


@pytest.mark.parametrize("workers", ["0", "-3"])
def test_cli_workers_below_one_is_exit_1(workers, tmp_path, capsys):
    rc = cli.main(["sweep", "--preset", "fig4b-pn2", "--symbols", "200",
                   "--workers", workers, "--out", str(tmp_path)])
    assert rc == 1
    assert f"config error: --workers must be >= 1, got {workers}" in capsys.readouterr().err
    assert not os.listdir(tmp_path)


# -----------------------
# Patterns
# -----------------------

def test_pattern_rows_and_normalization(tmp_path):
    cfg = _tiny("fig4b-pn2", grid=(40.9,))
    rows = harness.run_pattern(cfg, 40.9)
    assert len(rows) == 2 * 361
    by_scheme = {}
    for name, theta, gain in rows:
        by_scheme.setdefault(name, []).append((theta, gain))
    assert set(by_scheme) == {"PAPC", "Maximin"}
    for name, pts in by_scheme.items():
        thetas = [t for t, _ in pts]
        assert thetas[0] == -90.0 and thetas[-1] == 90.0
        assert len(thetas) == 361
        assert max(g for _, g in pts) == 0.0
    # a Custom scheme's rows follow the two standard ones; here its basis
    # is the default Maximin one, so its pattern is Maximin's
    bases = mpb.maximin_bases(sm.gold31(0))
    npz = tmp_path / "basis.npz"
    np.savez(npz, h_s=bases.h_s, h_i=bases.h_i)
    custom = harness.run_pattern(
        replace(cfg, scheme=harness.SchemeConfig("Custom", basis_file=str(npz))), 40.9)
    assert custom[:2 * 361] == rows
    assert custom[2 * 361:] == [("Custom", t, g) for _, t, g in rows[361:]]


def test_pattern_csv(tmp_path):
    cfg = _tiny("fig4b-pn2", grid=(40.9,))
    path = tmp_path / "pattern.csv"
    harness.run_pattern(cfg, 40.9, out_path=path)
    lines = path.read_text().splitlines()
    assert lines[0] == "scheme,theta_deg,gain_db"
    assert lines[1].startswith("PAPC,-90,")


# -----------------------
# Eigenvalue curves
# -----------------------

def test_eigencurves_white_case_flat():
    result = harness.run_eigencurves(_tiny(grid=(-20.0, 0.0, 20.0)))
    for _, g0p1, g1p1, lam in result.rows:
        assert g1p1 == pytest.approx(1.0, abs=1e-9)
        assert lam > 0.0
    assert math.isnan(result.empirical_snr_t0_db)


def test_eigencurves_crossing_matches_threshold():
    cfg = replace(harness.preset("fig4b-pn2"), symbols=1000)
    result = harness.run_eigencurves(cfg)
    report = harness.analyze(cfg)
    t0_db = report["thresholds"]["snr_t0_db"]
    print(f"empirical T0 {result.empirical_snr_t0_db:.3f} dB, "
          f"theory {t0_db:.3f} dB")
    assert abs(result.empirical_snr_t0_db - t0_db) <= 1.0


def test_eigencurves_need_no_failure_floor(monkeypatch):
    """The eigencurves use only beta and gamma_1: no G_L oracle runs."""
    def refuse(*args, **kwargs):
        raise AssertionError("run_eigencurves called g_lower_oracle")
    monkeypatch.setattr(theory, "g_lower_oracle", refuse)
    result = harness.run_eigencurves(harness.preset("fig4b-pn2"))
    assert len(result.rows) == len(harness.DEFAULT_SNR_GRID_DB)
    assert not math.isnan(result.empirical_snr_t0_db)


def test_eigencurves_csv(tmp_path):
    path = tmp_path / "eigen.csv"
    harness.run_eigencurves(_tiny(grid=(0.0, 10.0)), out_path=path)
    lines = path.read_text().splitlines()
    assert lines[0] == "snr_db,gamma0_plus1,gamma1_plus1,lambda_max_exact"
    assert len(lines) == 3


# -----------------------
# Analysis report
# -----------------------

def test_analyze_coherent_pair_report():
    report = harness.analyze(replace(harness.preset("fig4b-pn2"),
                                     symbols=1000))
    assert report["scheme"] == "Maximin"
    assert report["has_infinite"] and report["infinite_count"] == 1
    assert report["geometric_bounded"] is False
    th = report["thresholds"]
    assert 0.0 < th["g_l"] < th["g_u"] <= 1.0
    assert th["snr_t1"] < th["snr_t0"] < th["snr_t2"]
    assert 0.9 <= report["gamma1_inr_loglog_slope"] <= 1.1
    assert [row["inr_db"] for row in report["gamma1_vs_inr"]] == \
        [10.0, 20.0, 30.0, 40.0]


@pytest.mark.parametrize("rel_power_db", [-20.0, 0.0, 15.0])
def test_gamma1_lower_bound_holds_at_every_inr(rel_power_db):
    """Each row's Crawford-number bound is taken at the row's own INR, that
    of the strongest path, so it stays below gamma_1 + 1 whatever power the
    interferers have relative to the config's INR."""
    cfg = _tiny("fig4b-pn2")
    cfg = replace(cfg, interferers=tuple(replace(ic, rel_power_db=rel_power_db)
                                         for ic in cfg.interferers))
    rows = harness.analyze(cfg)["gamma1_vs_inr"]
    bounds = [row for row in rows if row["gamma1_lower_bound_plus1"] is not None]
    assert bounds
    for row in bounds:
        assert row["gamma1_lower_bound_plus1"] <= row["gamma1_plus1"], row


def test_analysis_json_spells_infinities(tmp_path):
    # white interferers: gamma_1 = 0, so T0 = 0 and its dB value is -inf,
    # while the unneeded G_L stays NaN -> null
    report = harness.analyze(_tiny())
    path = tmp_path / "analysis.json"
    harness.write_analysis(report, path)
    loaded = json.loads(path.read_text())
    assert loaded["thresholds"]["snr_t0_db"] == "-inf"
    assert loaded["thresholds"]["g_l"] is None
    assert loaded["gamma1"] == 0.0


# -----------------------
# CLI
# -----------------------

def test_cli_presets(capsys):
    assert cli.main(["presets"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out == sorted(ALL_PRESETS)


def test_cli_sweep_smoke(tmp_path, capsys):
    rc = cli.main(["sweep", "--preset", "fig4a-bpsk3", "--symbols", "500",
                   "--snr-db", "0,10", "--out", str(tmp_path)])
    assert rc == 0
    assert "sweep.csv" in capsys.readouterr().out
    assert (tmp_path / "sweep.csv").exists()


def test_cli_config_file(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    harness.save_config(_tiny(grid=(0.0, 10.0)), cfg_path)
    rc = cli.main(["eigen", "--config", str(cfg_path), "--out", str(tmp_path)])
    assert rc == 0
    assert (tmp_path / "eigen.csv").exists()
    capsys.readouterr()


def test_cli_missing_config_is_exit_1(capsys):
    rc = cli.main(["sweep", "--config", "/nonexistent/cfg.json"])
    assert rc == 1
    assert "config error" in capsys.readouterr().err


def test_cli_config_and_preset_conflict(capsys):
    rc = cli.main(["sweep", "--config", "x.json", "--preset", "fig4a-bpsk3"])
    assert rc == 1
    assert "not both" in capsys.readouterr().err


def test_cli_needs_some_config(capsys):
    assert cli.main(["sweep"]) == 1
    capsys.readouterr()


def test_cli_bad_snr_list(capsys):
    rc = cli.main(["sweep", "--preset", "fig4a-bpsk3", "--snr-db", "a,b"])
    assert rc == 1
    assert "comma-separated" in capsys.readouterr().err


def test_cli_bad_subcommand(capsys):
    assert cli.main(["transmogrify"]) == 1
    capsys.readouterr()


def test_cli_numeric_failure_is_exit_2(monkeypatch, capsys):
    def boom(*a, **k):
        raise ArithmeticError("synthetic blow-up")
    monkeypatch.setattr(harness, "run_sweep", boom)
    rc = cli.main(["sweep", "--preset", "fig4a-bpsk3"])
    assert rc == 2
    assert "numeric failure" in capsys.readouterr().err


def test_cli_lapack_failure_is_exit_2(monkeypatch, capsys):
    def fail(*a, **k):
        raise np.linalg.LinAlgError("synthetic LAPACK failure")
    monkeypatch.setattr(np.linalg, "eigh", fail)
    rc = cli.main(["eigen", "--preset", "fig4b-pn2", "--snr-db", "10"])
    assert rc == 2
    assert ("numeric failure: 0 dB probe: eigh did not converge: synthetic LAPACK "
            "failure\n") in capsys.readouterr().err


@pytest.mark.parametrize("inr_db", ["35", "45", "65", "70", "80", "95", "100"])
@pytest.mark.parametrize("command", [["analyze"], ["sweep", "--symbols", "4096"]],
                         ids=["analyze", "sweep"])
def test_cli_white_interference_at_high_inr_is_exit_0(command, inr_db, tmp_path, capsys):
    """fig4a's white interference gives Q_S == Q_I, so G_U is exactly 1 at
    any INR. Its rounding residue above 1 made these runs exit 2 with
    "g_u must be in (0, 1]"."""
    rc = cli.main(command + ["--preset", "fig4a-bpsk3", "--inr-db", inr_db,
                             "--out", str(tmp_path)])
    assert rc == 0
    assert "failure" not in capsys.readouterr().err


def test_cli_eigen_failure_names_its_grid_point(tmp_path, capsys):
    """A failed eigen run names its first failing SNR: 140 dB, where PAPC's
    exact R_I meets the pivot floor, in a grid of four points or of that
    one alone."""
    config = harness.config_to_dict(harness.preset("fig4b-pn2"))
    config["scheme"] = {"name": "PAPC"}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(config))
    for grid in ("0,100,140,200", "140"):
        rc = cli.main(["eigen", "--config", str(cfg_path), f"--snr-db={grid}",
                       "--out", str(tmp_path)])
        assert rc == 2
        assert capsys.readouterr().err == ("numeric failure: 140 dB: "
                                           "pivot 1.260e+00 at column 3\n")


def _indefinite_pair(size: int) -> mpb.CovariancePair:
    r_i = np.eye(size, dtype=complex)
    r_i[-1, -1] = -1.0
    return mpb.CovariancePair(np.eye(size, dtype=complex), r_i)


def test_sweep_point_linalg_failure_is_named_error(monkeypatch):
    """A pencil that cannot be solved fails each point with the message
    that solving its weights alone raises, prefixed by its stage: the
    stacked solve fails, and each point is solved again from its one-point
    slice of the stack."""
    cfg = _tiny("fig4b-pn2")
    bad = _indefinite_pair(cfg.element_count)
    monkeypatch.setattr(mpb, "accumulate_cov_pair",
                        lambda scenario, bases, points: mpb.CovariancePair(
                            np.stack([bad.r_s] * len(points)),
                            np.stack([bad.r_i] * len(points))))
    probe = harness._probe(cfg)
    with pytest.raises(la.NotPositiveDefiniteError) as alone:
        mpb.solve_weights(bad, probe.model.a0)
    expected = f"NotPositiveDefiniteError: sample pencil: {alone.value}"
    one = mpb.CovariancePair(bad.r_s[None], bad.r_i[None])
    with pytest.raises(la.NotPositiveDefiniteError) as point:
        harness._solve_points(one, probe.model.at_snr(np.array([10.0])))
    assert str(point.value) == f"sample pencil: {alone.value}"
    rows = harness.run_sweep(cfg)
    assert [r.region for r in rows] == ["Error", "Error"]
    assert [r.error for r in rows] == [expected, expected]
    assert all(math.isnan(v) for r in rows
               for v in (r.g_sim_db, r.lambda_max_exact, r.lambda_max_pred))


def test_sweep_only_the_indefinite_point_fails(monkeypatch, tmp_path):
    """One bad sample pair in the middle of the grid: the stacked solve
    raises, every point is solved again from its slice of the one
    synthesis, and only that row is an Error, with the message it gets
    alone. Every other row keeps its bytes."""
    cfg = _tiny("fig4b-pn2", symbols=500, grid=(-10.0, 0.0, 10.0))
    clean = tmp_path / "clean.csv"
    harness.run_sweep(cfg, out_path=clean)
    real = mpb.accumulate_cov_pair
    bad = _indefinite_pair(cfg.element_count)
    sizes = []

    def bad_at_stream_1(scenario, bases, points):
        sizes.append(len(points))
        pair = real(scenario, bases, points=points)
        for i, (_, stream) in enumerate(points):
            if stream == 1:
                pair.r_s[i], pair.r_i[i] = bad.r_s, bad.r_i
        return pair
    monkeypatch.setattr(mpb, "accumulate_cov_pair", bad_at_stream_1)
    broken = tmp_path / "broken.csv"
    rows = harness.run_sweep(cfg, out_path=broken)
    assert sizes == [3]
    with pytest.raises(la.NotPositiveDefiniteError) as alone:
        mpb.solve_weights(bad, harness._probe(cfg).model.a0)
    assert [r.error for r in rows] == [
        None, f"NotPositiveDefiniteError: sample pencil: {alone.value}", None]
    assert [r.region for r in rows][1] == "Error"
    want, got = clean.read_text().splitlines(), broken.read_text().splitlines()
    assert [got[i] for i in (0, 1, 3)] == [want[i] for i in (0, 1, 3)]
    assert got[2].split(",")[1] == "nan" and got[2].endswith(",Error")


def test_cli_sweep_fails_only_the_non_finite_point(tmp_path, capsys):
    """At 3070 dB SNR the sample pair overflows, and numpy warns of it: that
    row alone fails, naming the sample matrix that is not finite, and the
    sweep exits 0."""
    with pytest.warns(RuntimeWarning) as warned:
        rc = cli.main(["sweep", "--preset", "fig4b-pn2", "--symbols", "500",
                       "--snr-db=0,10,3070", "--out", str(tmp_path)])
    assert any("overflow" in str(w.message) for w in warned)
    assert rc == 0
    assert capsys.readouterr().err.splitlines() == [
        "sweep point 3070 dB failed: LinAlgError: sample R_S contains non-finite entries"]
    regions = [line.rsplit(",", 1)[1]
               for line in (tmp_path / "sweep.csv").read_text().splitlines()[1:]]
    assert regions[2] == "Error" and "Error" not in regions[:2]


def test_cli_sweep_reports_each_failed_point(monkeypatch, tmp_path, capsys):
    """Synthesis that raises is not retried: every point carries its error."""
    calls = []

    def fail(scenario, bases, points):
        calls.append(points)
        raise ArithmeticError("synthetic blow-up")
    monkeypatch.setattr(mpb, "accumulate_cov_pair", fail)
    rc = cli.main(["sweep", "--preset", "fig4b-pn2", "--symbols", "500",
                   "--snr-db=-5,5,15", "--out", str(tmp_path)])
    assert rc == 0
    assert len(calls) == 1
    lines = capsys.readouterr().err.splitlines()
    assert lines == [f"sweep point {s} dB failed: ArithmeticError: synthetic blow-up"
                     for s in ("-5", "5", "15")]


_INCLUDES = [c for k in (1, 2, 3)
             for c in itertools.combinations(("soi", "interference", "noise"), k)]


def _assert_slices_alone(config, include=("soi", "interference", "noise"),
                         snrs_db=(-10.0, 5.0, 20.0)):
    """Each slice of a grid's stacked pair equals its point alone, bit for
    bit. The grid is run_sweep's: the 0 dB scenario and each point's
    (soi_power, stream). Each point alone is scenario_at's."""
    bases = harness.bases_for(config)
    probe = harness.scenario_at(config, 0.0)
    grid = [harness.scenario_at(config, s, stream=i) for i, s in enumerate(snrs_db)]
    pair = mpb.accumulate_cov_pair(probe, bases, include=include,
                                   points=[(sc.soi.power, sc.mc_stream) for sc in grid])
    assert pair.r_s.shape == pair.r_i.shape == (len(grid), 8, 8)
    for i, point in enumerate(grid):
        alone = mpb.accumulate_cov_pair(point, bases, include=include)
        assert alone.r_s.shape == (8, 8)
        for got, want in ((pair.r_s[i], alone.r_s), (pair.r_i[i], alone.r_i)):
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), (i, include)


@pytest.mark.parametrize("scheme", ["PAPC", "Maximin"])
@pytest.mark.parametrize("name", ALL_PRESETS)
def test_grid_slices_equal_each_point_alone(name, scheme):
    cfg = replace(harness.preset(name), symbols=300,
                  scheme=harness.SchemeConfig(scheme))
    for include in _INCLUDES:
        _assert_slices_alone(cfg, include)


def test_white_grid_crosses_a_batch_boundary():
    """fig4a's white chips are summed per symbol with buffers shared by the
    grid's points; K = BATCH + 300 ends every point on a partial batch."""
    cfg = replace(harness.preset("fig4a-bpsk3"), symbols=sm.BATCH + 300)
    _assert_slices_alone(cfg)
    _assert_slices_alone(cfg, ("interference",))


def test_sweep_synthesizes_the_grid_in_one_call(monkeypatch):
    cfg = _tiny("fig4d-mai3", grid=(-10.0, 0.0, 10.0))
    calls = []
    real = mpb.accumulate_cov_pair

    def counted(scenario, bases, points):
        calls.append([stream for _, stream in points])
        return real(scenario, bases, points=points)
    monkeypatch.setattr(mpb, "accumulate_cov_pair", counted)
    rows = harness.run_sweep(cfg)
    assert calls == [[0, 1, 2]]
    assert [r.error for r in rows] == [None, None, None]


def test_sweep_builds_bases_once(monkeypatch, tmp_path):
    """One basis per sweep: a Custom .npz is not re-read for every point."""
    code = sm.gold31(0)
    bases = mpb.maximin_bases(code)
    npz = tmp_path / "basis.npz"
    np.savez(npz, h_s=bases.h_s, h_i=bases.h_i)
    cfg = replace(_tiny("fig4b-pn2", grid=(-10.0, 0.0, 10.0)),
                  scheme=harness.SchemeConfig("Custom", basis_file=str(npz)))
    calls = []
    built = harness.bases_for

    def first_only(config):
        calls.append(config)
        if len(calls) > 1:
            raise RuntimeError("bases rebuilt")
        return built(config)
    monkeypatch.setattr(harness, "bases_for", first_only)
    rows = harness.run_sweep(cfg)
    assert len(calls) == 1
    assert [r.error for r in rows] == [None, None, None]


def _count_analytic_cov(monkeypatch) -> list:
    calls = []
    built = mpb.analytic_cov

    def counted(scenario, bases):
        calls.append(scenario)
        return built(scenario, bases)
    monkeypatch.setattr(mpb, "analytic_cov", counted)
    return calls


def test_sweep_builds_model_once(monkeypatch):
    """One analytic model per sweep, G_L oracle included: every point moves
    the probe's model to its SOI power instead of rebuilding it."""
    calls = _count_analytic_cov(monkeypatch)
    rows = harness.run_sweep(_tiny("fig4b-pn2", grid=(-10.0, 0.0, 10.0)), workers=1)
    assert len(calls) == 1
    assert [r.error for r in rows] == [None, None, None]


def test_eigencurves_build_model_once(monkeypatch):
    calls = _count_analytic_cov(monkeypatch)
    result = harness.run_eigencurves(_tiny("fig4b-pn2", grid=(-10.0, 0.0, 10.0)))
    assert len(calls) == 1
    assert len(result.rows) == 3


def test_analyze_builds_model_once(monkeypatch):
    """The probe's model serves the whole report: the gamma_1-vs-INR table
    moves it to each INR and the noise-free pair reads its Phi matrices."""
    calls = _count_analytic_cov(monkeypatch)
    report = harness.analyze(_tiny("fig4b-pn2"))
    assert len(calls) == 1
    assert len(report["gamma1_vs_inr"]) == 4


def test_sweep_spectrum_once_per_sweep(monkeypatch):
    """The operating curve reads beta, L and N off the model, so the only
    mismatch spectrum of a sweep is its points': one solve over the grid,
    whose SOI powers are the points' own, each point's equal to it alone."""
    calls = []
    spectrum = theory.mismatch_spectrum

    def counted(model):
        calls.append(model)
        return spectrum(model)
    monkeypatch.setattr(theory, "mismatch_spectrum", counted)
    cfg = _tiny("fig4b-pn2", grid=(-10.0, 0.0, 10.0))
    rows = harness.run_sweep(cfg, workers=1)
    assert len(calls) == 1
    grid = calls[0]
    assert len(grid.soi_power) == len(rows) == 3
    for row, p0 in zip(rows, grid.soi_power):
        point = harness.scenario_at(cfg, row.snr_db).soi.power
        assert p0 == point
        alone = spectrum(replace(grid, soi_power=point))
        assert row.lambda_max_pred == alone.lambda_max_pred


def test_soi_power_has_one_home(monkeypatch):
    """A sweep point's Scenario and the model moved to its SNR both take
    P0 = SNR / N from mpb._soi_power, so they agree by construction."""
    cfg = _tiny("fig4b-pn2")
    model = harness._probe(cfg).model
    calls = []
    soi_power = mpb._soi_power

    def counted(snr):
        calls.append(snr)
        return soi_power(snr)
    monkeypatch.setattr(mpb, "_soi_power", counted)
    point = harness.scenario_at(cfg, 20.0).soi.power
    assert model.at_snr(np.array([100.0])).soi_power[0] == point
    assert calls[0] == 100.0 and list(calls[1]) == [100.0]


def test_sweep_and_eigencurves_share_the_lambda_max_solve(monkeypatch):
    """Both solve the grid's exact lambda_max in one stacked call, so the
    sweep's column equals the eigencurves' bit for bit."""
    cfg = _tiny("fig4d-mai3", grid=(-20.0, 0.0, 5.0, 30.0))
    calls = []
    solve = theory.exact_lambda_max

    def counted(model):
        calls.append(np.shape(model.soi_power))
        return solve(model)
    monkeypatch.setattr(theory, "exact_lambda_max", counted)
    rows = harness.run_sweep(cfg)
    eigen = harness.run_eigencurves(cfg)
    assert calls == [(4,), (4,)]
    assert [r.lambda_max_exact for r in rows] == [row[3] for row in eigen.rows]


def test_sweep_factors_the_probes_q_s_once(monkeypatch):
    """a0^H Q_S^-1 a0 does not move with the SNR: G_U, the G_L oracle and
    every point's SINR_opt share one Cholesky factorization of Q_S."""
    cfg = _tiny("fig4b-pn2", grid=(-20.0, -10.0, 0.0, 10.0))
    q_s = harness._probe(cfg).model.q_s
    factored = []
    floored_cholesky = la._floored_cholesky  # every linalg solve factors through it

    def counted(b):
        if np.shape(b) == q_s.shape and np.array_equal(b, q_s):
            factored.append(b)
        return floored_cholesky(b)
    monkeypatch.setattr(la, "_floored_cholesky", counted)
    rows = harness.run_sweep(cfg, workers=1)
    assert [r.error for r in rows] == [None] * 4
    assert "Failure" in [r.region for r in rows]  # the G_L oracle ran
    assert len(factored) == 1


def test_sweep_grid_equals_point_by_point_synthesis(monkeypatch, tmp_path):
    """The CSV of a sweep that synthesizes its grid in one call keeps its
    bytes against one that synthesizes each point alone."""
    cfg = _tiny("fig4c-tones5", symbols=500, grid=(-10.0, 0.0, 10.0))
    once = tmp_path / "once.csv"
    harness.run_sweep(cfg, workers=1, out_path=once)
    real = mpb.accumulate_cov_pair

    def point_by_point(scenario, bases, points):
        pairs = [real(scenario, bases, points=[point]) for point in points]
        return mpb.CovariancePair(np.concatenate([p.r_s for p in pairs]),
                                  np.concatenate([p.r_i for p in pairs]))
    monkeypatch.setattr(mpb, "accumulate_cov_pair", point_by_point)
    again = tmp_path / "again.csv"
    harness.run_sweep(cfg, workers=1, out_path=again)
    assert once.read_bytes() == again.read_bytes()


def test_scenarios_compare_and_hash_by_value():
    """Two scenarios built apart are equal when their fields are, SOI
    included, and hash alike; another Gold code or seed tells them apart."""
    cfg = harness.preset("fig4b-pn2")
    fresh = harness.scenario_at(replace(cfg, seed=2), 0.0)
    moved = replace(harness._probe(cfg).scenario, seed=2)
    assert fresh.soi is not moved.soi
    assert fresh == moved and hash(fresh) == hash(moved)
    assert hash(fresh.soi) == hash(moved.soi)
    assert fresh != harness.scenario_at(cfg, 0.0)
    assert replace(fresh.soi, gold_index=1) != fresh.soi


def test_probe_scenario_is_a_plain_value():
    """A scenario carries no drawing of its interferer paths: one moved to
    another seed gives the model of a fresh scenario with that seed."""
    cfg = harness.preset("fig4b-pn2")
    probe = harness._probe(cfg)
    moved = replace(probe.scenario, seed=2)
    fresh = harness.scenario_at(replace(cfg, seed=2), 0.0)
    got = mpb.analytic_cov(moved, probe.bases)
    want = mpb.analytic_cov(fresh, probe.bases)
    assert np.array_equal(got.q_s, want.q_s) and np.array_equal(got.q_i, want.q_i)
    assert not np.allclose(got.q_s, probe.model.q_s)


def test_analyze_solves_gamma1_once_per_inr(monkeypatch):
    """gamma_1 of the probe's Q pair is solved once: the G_L oracle takes
    it, and so does the INR table's row at the config's own INR. The other
    three rows solve theirs."""
    calls = []
    spectrum = theory.gamma_spectrum

    def counted(q_s, q_i, d):
        calls.append(q_s)
        return spectrum(q_s, q_i, d)
    monkeypatch.setattr(theory, "gamma_spectrum", counted)
    cfg = _tiny("fig4b-pn2")
    report = harness.analyze(cfg)
    assert report["thresholds"]["g_l"] > 0.0  # the G_L oracle ran
    assert [row["inr_db"] for row in report["gamma1_vs_inr"]].count(cfg.inr_db) == 1
    assert len(calls) == 4  # probe + 3 moved INRs; 6 when each re-solved it
    assert report["gamma1_vs_inr"][2]["gamma1_plus1"] == report["gamma1"] + 1.0


_RUN_FLAGS = {"-h", "--help", "--config", "--preset", "--out", "--seed", "--symbols",
              "--snr-db", "--inr-db", "--workers"}


def test_cli_flags_are_pinned():
    """The CLI's subcommands and their option strings do not change."""
    parser = cli.build_parser()
    [sub] = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    flags = {name: {opt for action in p._actions for opt in action.option_strings}
             for name, p in sub.choices.items()}
    assert {opt for action in parser._actions for opt in action.option_strings} == {
        "-h", "--help"}
    assert flags == {"sweep": _RUN_FLAGS, "pattern": _RUN_FLAGS, "eigen": _RUN_FLAGS,
                     "analyze": _RUN_FLAGS, "presets": {"-h", "--help"}}


def test_python_m_mpbsim(tmp_path):
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run([sys.executable, "-m", "mpbsim", "presets"], cwd=tmp_path,
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0
    assert proc.stderr == ""
    assert proc.stdout.split() == list(harness.preset_names())


def test_cli_pattern_equals_syntax(tmp_path, capsys):
    # negative SNR values must be attached with '=' so argparse does not
    # read them as flags
    rc = cli.main(["pattern", "--preset", "fig4b-pn2", "--snr-db=-10.1",
                   "--out", str(tmp_path)])
    assert rc == 0
    assert (tmp_path / "pattern.csv").exists()
    capsys.readouterr()


def test_cli_pattern_rejects_grid(capsys):
    rc = cli.main(["pattern", "--preset", "fig4b-pn2"])
    assert rc == 1
    assert "exactly one SNR" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["sweep", "eigen", "analyze", "pattern"])
def test_cli_config_without_interferers_is_exit_0(command, tmp_path, capsys):
    """With no interferer the noise-free pair is empty: analyze reports no
    infinite eigenvalue and C_Y0 = 0 instead of a numeric failure."""
    config = harness.config_to_dict(harness.preset("fig4b-pn2"))
    config["interferers"] = []
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(config))
    grid = ["--snr-db", "10"] if command == "pattern" else []
    rc = cli.main([command, "--config", str(cfg_path), "--symbols", "500",
                   "--out", str(tmp_path)] + grid)
    assert rc == 0
    assert "failure" not in capsys.readouterr().err
    if command == "analyze":
        report = json.loads((tmp_path / "analysis.json").read_text())
        assert report["has_infinite"] is False and report["infinite_count"] == 0
        assert report["c_y0"] == 0.0 and report["geometric_bounded"] is None


def test_cli_analyze_smoke(tmp_path, capsys):
    rc = cli.main(["analyze", "--preset", "fig4b-pn2", "--symbols", "1000",
                   "--out", str(tmp_path)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "thresholds:" in out and "analysis.json" in out
    assert (tmp_path / "analysis.json").exists()
