"""Tests for the batch CLI: subcommands, file formats, exit codes."""

import argparse
import json
import os
import re
import shlex
import struct
import subprocess
import sys
from pathlib import Path

import pytest

from spinlets import build_window, gamma_theoretical, mc, power_law
from spinlets.cli import (DEMO_CONFIG, build_parser, main, plan_from_config,
                          plan_to_config_text)
from spinlets.errors import InvalidConfigError
from spinlets.fields import read_alm
from spinlets.grid import build_cubature, polar_cap_mask, write_mask
from spinlets.mc import ExperimentPlan, rows_to_csv, run_experiment

ROOT = Path(__file__).resolve().parents[1]


def run(args):
    return main(args)


def test_simulate_writes_header_and_is_deterministic(tmp_path):
    out = tmp_path / "sig.salm"
    argv = ["simulate", "--spin", "2", "--lmax", "24", "--alpha", "3",
            "--seed", "7", "--out", str(out)]
    assert run(argv) == 0
    alm = read_alm(out)
    assert (alm.s, alm.L) == (2, 24)
    first = out.read_bytes()
    assert run(argv + ["--force"]) == 0
    assert out.read_bytes() == first


def test_simulate_refuses_overwrite(tmp_path, capsys):
    out = tmp_path / "sig.salm"
    argv = ["simulate", "--spin", "2", "--lmax", "8", "--seed", "1",
            "--out", str(out)]
    assert run(argv) == 0
    assert run(argv) == 1
    assert "exists" in capsys.readouterr().err


def test_simulate_channels(tmp_path):
    out = tmp_path / "sig.salm"
    argv = ["simulate", "--spin", "2", "--lmax", "16", "--seed", "3",
            "--channels", "3", "--gamma", "2.5", "--out", str(out)]
    assert run(argv) == 0
    files = sorted(p.name for p in tmp_path.iterdir())
    assert files == ["sig.noise0.salm", "sig.noise1.salm", "sig.noise2.salm",
                     "sig.salm"]


def test_transform_levels_roundtrip(tmp_path, capsys):
    alm_path = tmp_path / "sig.salm"
    run(["simulate", "--spin", "2", "--lmax", "24", "--seed", "5",
         "--out", str(alm_path)])
    out_dir = tmp_path / "coeffs"
    argv = ["transform", "--alm", str(alm_path), "--bandwidth", "2",
            "--levels", "0..6", "--out-dir", str(out_dir), "--roundtrip"]
    assert run(argv) == 0
    err = capsys.readouterr().err
    assert sorted(p.name for p in out_dir.iterdir()) == \
        [f"level{j:02d}.snbc" for j in range(7)]
    line = [ln for ln in err.splitlines() if "roundtrip" in ln][0]
    assert float(line.rsplit(" ", 1)[-1]) < 1e-8


def test_masked_pipeline_end_to_end(tmp_path):
    from spinlets.grid import build_cubature, polar_cap_mask, write_mask
    alm_path = tmp_path / "sig.salm"
    run(["simulate", "--spin", "2", "--lmax", "31", "--seed", "9",
         "--out", str(alm_path)])
    grid = build_cubature(4, 2.0)
    mask_path = tmp_path / "cap.mask"
    write_mask(mask_path, polar_cap_mask(grid, 0.10))
    out_dir = tmp_path / "coeffs"
    assert run(["transform", "--alm", str(alm_path),
                "--mask", str(mask_path), "--out-dir", str(out_dir)]) == 0
    report = tmp_path / "rep.json"
    assert run(["estimate", "--kind", "masked",
                "--coeffs", str(out_dir / "level04.snbc"),
                "--mask", str(mask_path), "--epsilon", "0.19",
                "--alpha", "3", "--out", str(report)]) == 0
    payload = json.loads(report.read_text())
    assert payload[0]["kind"] == "masked"
    assert payload[0]["value"] > 0.0
    # a mask names its level: --levels beside it is a usage error (exit 2)
    # before any output
    with pytest.raises(SystemExit) as exc:
        run(["transform", "--alm", str(alm_path), "--levels", "4",
             "--mask", str(mask_path), "--out-dir", str(tmp_path / "c2")])
    assert exc.value.code == 2
    assert not (tmp_path / "c2").exists()


def test_transform_takes_its_level_from_the_mask(tmp_path, capsys):
    # a level-5 mask written at B = 1.7 needs no flag to restate its level
    alm_path = tmp_path / "sig.salm"
    run(["simulate", "--spin", "2", "--lmax", "24", "--seed", "9",
         "--out", str(alm_path)])
    mask_path = tmp_path / "cap17.mask"
    write_mask(mask_path, polar_cap_mask(build_cubature(5, 1.7), 0.10))
    out_dir = tmp_path / "c"
    assert run(["transform", "--alm", str(alm_path), "--mask", str(mask_path),
                "--out-dir", str(out_dir)]) == 0
    coeffs = out_dir / "level05.snbc"
    assert [p.name for p in out_dir.iterdir()] == [coeffs.name]
    assert struct.unpack("<d", coeffs.read_bytes()[21:29]) == (1.7,)
    report = tmp_path / "r.json"
    assert run(["estimate", "--kind", "masked", "--coeffs", str(coeffs),
                "--mask", str(mask_path), "--out", str(report)]) == 0
    npix = build_cubature(5, 1.7).n_pixels
    assert json.loads(report.read_text())[0]["meta"]["grid"] == \
        f"j=5 B=1.7 npix={npix}"
    # --bandwidth can only restate or contradict the mask's B: refused
    capsys.readouterr()
    for B in ("1.7", "2"):
        assert run(["transform", "--alm", str(alm_path), "--bandwidth", B,
                    "--mask", str(mask_path),
                    "--out-dir", str(tmp_path / "c2")]) == 1
        err = capsys.readouterr().err
        assert "error: bandwidth:" in err and "Traceback" not in err
        assert not (tmp_path / "c2").exists()


def test_transform_missing_mask_clean_error(tmp_path, capsys):
    alm_path = tmp_path / "sig.salm"
    run(["simulate", "--spin", "2", "--lmax", "16", "--seed", "5",
         "--out", str(alm_path)])
    code = run(["transform", "--alm", str(alm_path),
                "--mask", str(tmp_path / "absent.mask"),
                "--out-dir", str(tmp_path / "c")])
    assert code == 1
    assert "error" in capsys.readouterr().err


def test_transform_bad_mask_index_clean_error(tmp_path, capsys):
    alm_path = tmp_path / "sig.salm"
    run(["simulate", "--spin", "2", "--lmax", "8", "--seed", "5",
         "--out", str(alm_path)])
    mask_path = tmp_path / "bad.mask"
    for entry in ("999", "-3"):
        mask_path.write_text(f"mask v1 j=2 B=2.0 npix=153\n{entry}\n")
        code = run(["transform", "--alm", str(alm_path),
                    "--mask", str(mask_path),
                    "--out-dir", str(tmp_path / "c")])
        err = capsys.readouterr().err
        assert code == 1
        assert f"{mask_path}:2: pixel index {entry}" in err
        assert "Traceback" not in err


def test_transform_bad_alm_and_mask_header_clean_error(tmp_path, capsys):
    bad_alm = tmp_path / "bad.salm"
    bad_alm.write_bytes(b"SALM" + struct.pack("<Iii", 1, 2, -1))
    code = run(["transform", "--alm", str(bad_alm), "--levels", "2",
                "--out-dir", str(tmp_path / "c")])
    err = capsys.readouterr().err
    assert code == 1
    assert f"{bad_alm}: band limit L=-1 is negative" in err
    assert "Traceback" not in err

    alm_path = tmp_path / "sig.salm"
    run(["simulate", "--spin", "2", "--lmax", "8", "--seed", "5",
         "--out", str(alm_path)])
    capsys.readouterr()
    mask_path = tmp_path / "bad.mask"
    for header, field in (("mask v1 j=2 B=2.0 npix=99", "npix=99"),
                          ("mask j=2", "header 'mask j=2'"),
                          ("mask v1 j=2 B=1.0 npix=153",
                           "header field B=1.0: bandwidth B=1.0 must be > 1")):
        mask_path.write_text(f"{header}\n4\n")
        code = run(["transform", "--alm", str(alm_path),
                    "--mask", str(mask_path), "--out-dir", str(tmp_path / "c")])
        err = capsys.readouterr().err
        assert code == 1
        assert f"{mask_path}:1:" in err and field in err
        assert "Traceback" not in err


def test_estimate_kind_flag_contract(tmp_path, capsys):
    alm_path = tmp_path / "sig.salm"
    run(["simulate", "--spin", "2", "--lmax", "31", "--seed", "2",
         "--out", str(alm_path)])
    out_dir = tmp_path / "coeffs"
    run(["transform", "--alm", str(alm_path), "--levels", "4",
         "--out-dir", str(out_dir)])
    coeff = out_dir / "level04.snbc"
    # masked estimator on unmasked coefficients: masked-flag mismatch
    code = run(["estimate", "--kind", "masked", "--coeffs", str(coeff),
                "--out", str(tmp_path / "r.json")])
    assert code == 1
    assert "masked" in capsys.readouterr().err
    # hausman with a single channel: invalid channel count
    code = run(["estimate", "--kind", "hausman", "--coeffs", str(coeff),
                "--out", str(tmp_path / "r2.json")])
    assert code == 1
    assert "channel" in capsys.readouterr().err.lower()


def test_estimate_malformed_snbc_clean_error(tmp_path, capsys):
    short = tmp_path / "short.snbc"
    short.write_bytes(b"SNBC\x01")
    code = run(["estimate", "--kind", "masked", "--coeffs", str(short),
                "--out", str(tmp_path / "r.json")])
    err = capsys.readouterr().err
    assert code == 1
    assert f"{short}: header has 5 bytes" in err
    assert "Traceback" not in err


def test_estimate_demo_full_pipeline(tmp_path):
    out = tmp_path / "report.json"
    csv = tmp_path / "report.csv"
    assert run(["estimate", "--demo", "--out", str(out), "--csv", str(csv)]) == 0
    reports = json.loads(out.read_text())
    kinds = {r["kind"] for r in reports}
    assert kinds == {"masked", "unfeasible", "asymmetry", "ap", "cp", "hausman"}
    header = csv.read_text().splitlines()[0]
    assert header == "j,s,kind,paper_kind,value,target,variance,standardized"
    assert len(csv.read_text().strip().splitlines()) == 1 + len(reports)


def test_estimate_demo_reports_replicate_zero_of_its_plan(tmp_path):
    # --demo is replicate 0 of a bundled plan, so its report values are the
    # rows `spinlets mc` writes for that plan
    out = tmp_path / "report.json"
    assert run(["estimate", "--demo", "--out", str(out)]) == 0
    reports = json.loads(out.read_text())
    plan = plan_from_config(DEMO_CONFIG)
    assert plan.replicates == 1
    _, rows = run_experiment(plan)
    assert len(rows) == len(reports) == len(plan.kinds)
    for rep, row in zip(reports, rows):
        assert (0, rep["j"], rep["kind"]) == row[:3]
        assert (rep["value"], rep["theoretical_target"],
                rep["variance_estimate"], rep["standardized"]) == row[3:]
    # the gap-free map's kinds keep the values of the earlier demo pipeline
    values = {rep["kind"]: rep["value"] for rep in reports}
    assert values["masked"] == 0.09459863713897398
    assert values["unfeasible"] == 0.09205971461705569
    assert values["asymmetry"] == 0.0037833395856900764
    assert all(rep["meta"]["window"] == "B=2" for rep in reports)
    cfg = tmp_path / "mc"
    assert run(["mc", "--config", str(DEMO_CONFIG), "--out-dir", str(cfg)]) == 0
    assert (cfg / "raw.csv").read_text() == rows_to_csv(rows)


def test_mc_bundled_config_and_threads(tmp_path):
    cfg = Path(__file__).resolve().parents[1] / "src" / "spinlets" / \
        "configs" / "clt_masked.cfg"
    out1 = tmp_path / "run1"
    out2 = tmp_path / "run2"
    argv = ["mc", "--config", str(cfg), "--replicates", "6", "--seed", "42",
            "--out-dir"]
    assert run(argv + [str(out1), "--threads", "1"]) == 0
    assert run(argv + [str(out2), "--threads", "2"]) == 0
    raw1 = (out1 / "raw.csv").read_bytes()
    raw2 = (out2 / "raw.csv").read_bytes()
    assert raw1 == raw2
    assert (out1 / "diagnostics.json").exists()
    assert (out1 / "plan.cfg").exists()


def test_mc_invalid_levels_named(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("[plan]\nj_list =\nkinds = masked\n")
    assert run(["mc", "--config", str(bad), "--out-dir", str(tmp_path / "o")]) == 1
    assert "levels" in capsys.readouterr().err


def test_empty_kinds_refused(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("[plan]\nj_list = 3\nkinds =\nreplicates = 2\n")
    out = tmp_path / "o"
    assert run(["mc", "--config", str(bad), "--out-dir", str(out)]) == 1
    err = capsys.readouterr().err
    assert "kinds" in err and "Traceback" not in err
    assert not (out / "raw.csv").exists()
    for kind in ("", ",", " , "):
        report = tmp_path / "r.json"
        assert run(["estimate", "--kind", kind, "--coeffs", "absent.snbc",
                    "--out", str(report)]) == 1
        err = capsys.readouterr().err
        assert "kind" in err and "Traceback" not in err
        assert not report.exists()


def test_config_values_parsed_by_declared_type(tmp_path, capsys):
    path = tmp_path / "plan.cfg"
    path.write_text("[plan]\nj_list = 3..5\nkinds = masked, unfeasible\n"
                    "mask_fraction = 0.1\nreplicates = 7\n")
    plan = plan_from_config(path)
    assert (plan.j_list, plan.kinds, plan.mask_fraction, plan.replicates) == \
        ((3, 4, 5), ("masked", "unfeasible"), 0.1, 7)
    for line, named in (("replicates = ten", "replicates = 'ten' is not int"),
                        ("B = two", "B = 'two' is not float"),
                        ("j_list = 3..x", "j_list: level 'x' in '3..x' is not an integer")):
        path.write_text(f"[plan]\n{line}\n")
        with pytest.raises(InvalidConfigError) as err:
            plan_from_config(path)
        assert str(err.value) == f"config {path}: {named}"
        assert run(["mc", "--config", str(path), "--out-dir",
                    str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert f"config {path}: {named}" in err and "Traceback" not in err


def test_config_with_smoothness_order_rejected(tmp_path):
    # the window has no smoothness knob, and the band limit and regions
    # follow from the levels and kinds; an old plan.cfg naming one is refused
    path = tmp_path / "plan.cfg"
    for key, line in (("smoothness_order", "smoothness_order = 3"),
                      ("L", "L = auto"), ("regions", "regions = hemispheres")):
        path.write_text(f"[plan]\nj_list = 3\nkinds = masked\n{line}\n")
        with pytest.raises(InvalidConfigError,
                           match=rf"unknown keys \['{key}'\]"):
            plan_from_config(path)


@pytest.mark.parametrize("data, named", [
    (b"j_list = 3\nkinds = masked\n", ":1: key before the [plan] header"),
    (b"[plan]\nj_list = 3\nj_list = 4\n", ":3: key given twice"),
    (b"[plan]\nj_list = 3\n[plan]\n", ":3: section given twice"),
    (b"[plan]\nj_list = 3\nkinds\n", ":3: not key = value"),
    (b"[plan]\nkinds = masked\xe9\n", ": byte 21 is not UTF-8"),
])
def test_config_syntax_errors_named(tmp_path, capsys, data, named):
    path = tmp_path / "plan.cfg"
    path.write_bytes(data)
    with pytest.raises(InvalidConfigError) as err:
        plan_from_config(path)
    assert str(err.value) == f"config {path}{named}"
    assert run(["mc", "--config", str(path), "--out-dir",
                str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert f"config {path}{named}" in err and "Traceback" not in err


def test_levels_beyond_the_grid_cap_refused(tmp_path, capsys):
    # a mask header, an SNBC header and a plan each name a level whose grid
    # is far beyond the pixel cap: a named error, no overflow traceback
    alm_path = tmp_path / "sig.salm"
    run(["simulate", "--spin", "2", "--lmax", "8", "--seed", "5",
         "--out", str(alm_path)])
    mask_path = tmp_path / "deep.mask"
    mask_path.write_text("mask v1 j=5000 B=2.0 npix=153\n4\n")
    snbc_path = tmp_path / "deep.snbc"
    snbc_path.write_bytes(b"SNBC" + struct.pack("<IIiIBd", 2, 4_000_000, 2, 1, 0,
                                                2.0) + bytes(16))
    # a file reader's error names the file, beside a good one for estimate
    good = tmp_path / "c4" / "level04.snbc"
    assert run(["transform", "--alm", str(alm_path), "--levels", "4",
                "--out-dir", str(tmp_path / "c4")]) == 0
    cases = [(["transform", "--alm", str(alm_path),
               "--mask", str(mask_path), "--out-dir", str(tmp_path / "c")],
              5000, f"{mask_path}:1: header field j=5000"),
             (["estimate", "--kind", "ap,cp", "--coeffs", str(good),
               str(snbc_path), "--out", str(tmp_path / "r.json")],
              4_000_000, f"{snbc_path}: header field j=4000000")]
    for j in (5000, 40):
        plan_path = tmp_path / f"plan{j}.cfg"
        plan_path.write_text(f"[plan]\nj_list = {j}\nreplicates = 1\n")
        cases.append((["mc", "--config", str(plan_path), "--out-dir",
                       str(tmp_path / f"mc{j}")], j, "j_list: level"))
    capsys.readouterr()
    for argv, j, named in cases:
        assert run(argv) == 1
        err = capsys.readouterr().err
        assert f"level j={j} needs > 8000000 pixels (cap)" in err
        assert named in err and "Traceback" not in err


def test_level_ranges_bounded_before_they_are_expanded(tmp_path, capsys):
    plan_path = tmp_path / "plan.cfg"
    for text, field in (("j_list = 0..3000000", "j_list: level j=3000000"),
                        ("j_list = 0..6\nB = 3", "j_list: level j=6"),
                        ("j_list = -3000000..4", "j_list: needs levels j >= 0")):
        plan_path.write_text(f"[plan]\n{text}\n")
        with pytest.raises(InvalidConfigError, match=field):
            plan_from_config(plan_path)
    # the cap is read at the plan's B wherever B stands: 0..9 fits at B = 2
    plan_path.write_text("[plan]\nj_list = 0..9\nB = 2\n")
    assert plan_from_config(plan_path).j_list == tuple(range(10))
    alm_path = tmp_path / "sig.salm"
    run(["simulate", "--spin", "2", "--lmax", "40", "--seed", "8",
         "--out", str(alm_path)])
    capsys.readouterr()
    for levels in ("0..3000000", "0..12", "0,1,10"):
        out_dir = tmp_path / "c"
        assert run(["transform", "--alm", str(alm_path), "--levels", levels,
                    "--out-dir", str(out_dir)]) == 1
        err = capsys.readouterr().err
        assert "pixels" in err and "Traceback" not in err
        assert not out_dir.exists()  # refused before the first file


@pytest.mark.parametrize("text, message", [
    ("j_list = 5..3", "j_list: range '5..3' is empty"),
    ("j_list = 3..x", "j_list: level 'x' in '3..x' is not an integer"),
    ("j_list = 2,three", "j_list: level 'three' in '2,three' is not an integer"),
    ("j_list = ,", "j_list: no levels given"),
])
def test_config_levels_errors_name_the_key(tmp_path, text, message):
    path = tmp_path / "plan.cfg"
    path.write_text(f"[plan]\n{text}\n")
    with pytest.raises(InvalidConfigError) as err:
        plan_from_config(path)
    assert str(err.value) == f"config {path}: {message}"


@pytest.mark.parametrize("levels, message", [
    ("abc", "levels: level 'abc' in 'abc' is not an integer"),
    ("2..y", "levels: level 'y' in '2..y' is not an integer"),
    ("6..4", "levels: range '6..4' is empty"),
])
def test_transform_levels_errors_name_the_flag(tmp_path, capsys, levels, message):
    alm_path = tmp_path / "sig.salm"
    run(["simulate", "--spin", "2", "--lmax", "16", "--seed", "8",
         "--out", str(alm_path)])
    capsys.readouterr()
    out_dir = tmp_path / "c"
    assert run(["transform", "--alm", str(alm_path), "--levels", levels,
                "--out-dir", str(out_dir)]) == 1
    assert capsys.readouterr().err == f"spinlets: error: {message}\n"
    assert not out_dir.exists()


def _refused_before_any_write(tmp_path, capsys, argv, message):
    """`argv` exits 1 with one stderr line and adds no file under tmp_path."""
    before = sorted(tmp_path.rglob("*"))
    capsys.readouterr()
    assert run(argv) == 1
    assert capsys.readouterr().err == f"spinlets: error: {message}\n"
    assert sorted(tmp_path.rglob("*")) == before


@pytest.mark.parametrize("flags, message", [
    (["--channels", "1"], "channels: must be 0 or >= 2"),
    (["--channels", "-2"], "channels: must be 0 or >= 2"),
    (["--noise-level", "-1"], "noise-level: must be >= 0"),
    (["--noise-level", "inf"], "noise-level: inf is not a finite number"),
    (["--alpha", "nan"], "alpha: nan is not a finite number"),
    (["--gamma=-inf"], "gamma: -inf is not a finite number"),
])
def test_simulate_refuses_spectrum_flags_a_plan_refuses(tmp_path, capsys, flags,
                                                         message):
    _refused_before_any_write(tmp_path, capsys, [
        "simulate", "--spin", "2", "--lmax", "8", "--seed", "1", "--channels",
        "2", "--out", str(tmp_path / "sig.salm")] + flags, message)


@pytest.mark.parametrize("flags, message", [
    (["--alpha", "nan"], "alpha: nan is not a finite number"),
    (["--gamma", "inf"], "gamma: inf is not a finite number"),
    (["--noise-level", "-1"], "noise-level: must be >= 0"),
])
def test_estimate_refuses_spectrum_flags_a_plan_refuses(tmp_path, capsys, flags,
                                                         message):
    alm_path = tmp_path / "sig.salm"
    run(["simulate", "--spin", "2", "--lmax", "31", "--seed", "2",
         "--out", str(alm_path)])
    run(["transform", "--alm", str(alm_path), "--levels", "4",
         "--out-dir", str(tmp_path / "c")])
    _refused_before_any_write(tmp_path, capsys, [
        "estimate", "--kind", "unfeasible", "--coeffs",
        str(tmp_path / "c" / "level04.snbc"), "--out", str(tmp_path / "r.json"),
        "--csv", str(tmp_path / "r.csv")] + flags, message)


def test_transform_checks_every_level_before_the_first_file(tmp_path, capsys):
    # at s = 5 level 0 passes and level 1 needs exactness degree 12
    alm_path = tmp_path / "sig.salm"
    run(["simulate", "--spin", "5", "--lmax", "20", "--seed", "1",
         "--out", str(alm_path)])
    _refused_before_any_write(tmp_path, capsys, [
        "transform", "--alm", str(alm_path), "--levels", "0..3",
        "--out-dir", str(tmp_path / "c")],
        "level j=1 needs exactness degree 12, grid provides 8")


def test_field_below_its_spin_refused(tmp_path, capsys):
    # a valid s = 2, L = 8 file with its spin field set to 9: the reader
    # refuses it, where the transform used to end in an IndexError
    alm_path = tmp_path / "sig.salm"
    run(["simulate", "--spin", "2", "--lmax", "8", "--seed", "1",
         "--out", str(alm_path)])
    data = bytearray(alm_path.read_bytes())
    struct.pack_into("<i", data, 8, 9)
    alm_path.write_bytes(bytes(data))
    _refused_before_any_write(tmp_path, capsys, [
        "transform", "--alm", str(alm_path), "--levels", "4",
        "--out-dir", str(tmp_path / "c")],
        f"{alm_path}: band limit L=8 < |s|=9")


def _mc_refused(tmp_path, capsys, plan_text):
    plan_path = tmp_path / "plan.cfg"
    plan_path.write_text(plan_text)
    out = tmp_path / "mc"
    capsys.readouterr()
    assert run(["mc", "--config", str(plan_path), "--out-dir", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("spinlets: error: ")
    assert not out.exists()  # no empty output directory left behind
    return err


def test_mc_refused_at_set_up_creates_no_directory(tmp_path, capsys):
    err = _mc_refused(tmp_path, capsys, "[plan]\nB = 2.9\ns = 3\nj_list = 0,1\n"
                      "kinds = unfeasible\nreplicates = 3\n")
    assert "exactness degree" in err


def test_mc_failure_budget_abort_creates_no_directory(tmp_path, capsys,
                                                      monkeypatch):
    def failing_draw(*args):
        raise ValueError("boom")

    monkeypatch.setattr(mc, "draw_alm", failing_draw)
    err = _mc_refused(tmp_path, capsys, "[plan]\nj_list = 3\nkinds = unfeasible\n"
                      "replicates = 12\n")
    assert "aborting: 2 replicate failures" in err


def _no_table(*args):
    raise AssertionError("an oversized table must be refused before it is built")


def test_mc_refuses_an_oversized_table_before_building_it(tmp_path, capsys,
                                                         monkeypatch):
    from spinlets import transform
    monkeypatch.setattr(transform, "d_table", _no_table)
    err = _mc_refused(tmp_path, capsys, "[plan]\nj_list = 9\nkinds = masked\n"
                      "replicates = 2\n")
    assert err == ("spinlets: error: level j=9: harmonic table at s=2, "
                   "L=1023 needs 8598290400 bytes > cap 2147483648\n")


def test_transform_refuses_an_oversized_table_before_building_it(
        tmp_path, capsys, monkeypatch):
    # a roundtrip reads level 9's table up to its support top, L = 1023
    from spinlets import transform
    alm_path = tmp_path / "sig.salm"
    run(["simulate", "--spin", "2", "--lmax", "24", "--seed", "1",
         "--out", str(alm_path)])
    monkeypatch.setattr(transform, "d_table", _no_table)
    _refused_before_any_write(tmp_path, capsys, [
        "transform", "--alm", str(alm_path), "--levels", "0..9", "--roundtrip",
        "--out-dir", str(tmp_path / "c")],
        "level j=9: harmonic table at s=2, L=1023 needs 8598290400 bytes > "
        "cap 2147483648")


def test_level_beyond_its_grid_exactness_refused_at_set_up(tmp_path, capsys):
    # at B = 2.9 and s = 3 the level-0 window needs exactness degree 8 and
    # its grid gives 6: one line naming the plan's levels, B and s, before
    # the first replicate
    plan_path = tmp_path / "plan.cfg"
    plan_path.write_text("[plan]\nB = 2.9\ns = 3\nj_list = 0,1\n"
                         "kinds = unfeasible\nreplicates = 3\n")
    out = tmp_path / "mc"
    assert run(["mc", "--config", str(plan_path), "--out-dir", str(out)]) == 1
    err = capsys.readouterr().err
    assert err == ("spinlets: error: j_list: level j=0 needs exactness degree "
                   "8, grid provides 6 (B=2.9, s=3)\n")
    assert not (out / "raw.csv").exists()


def test_no_scipy_module_is_loaded(tmp_path):
    # numpy is the only runtime dependency: a fresh process that imports the
    # package and runs a plan through the window, the Wigner seeds and the
    # KS distance loads no scipy module
    out = tmp_path / "mc"
    script = (
        "import json, sys\n"
        "from spinlets import cli\n"
        f"code = cli.main(['mc', '--config', {str(DEMO_CONFIG)!r}, "
        f"'--replicates', '100', '--out-dir', {str(out)!r}])\n"
        "print(json.dumps([code, sorted(m for m in sys.modules\n"
        "                               if m == 'scipy' or m.startswith('scipy.'))]))\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src")] + [p for p in (os.environ.get("PYTHONPATH"),) if p]))
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert json.loads(proc.stdout.splitlines()[-1]) == [0, []]
    stats = json.loads((out / "diagnostics.json").read_text())["statistics"]
    assert all("ks_distance" in entry for entry in stats.values())


def test_estimate_nan_epsilon_refused(tmp_path, capsys):
    alm_path = tmp_path / "sig.salm"
    run(["simulate", "--spin", "2", "--lmax", "31", "--seed", "2",
         "--out", str(alm_path)])
    run(["transform", "--alm", str(alm_path), "--levels", "4",
         "--out-dir", str(tmp_path / "c")])
    capsys.readouterr()
    for kind in ("unfeasible", "asymmetry"):
        report = tmp_path / "r.json"
        assert run(["estimate", "--kind", kind, "--epsilon", "nan",
                    "--coeffs", str(tmp_path / "c" / "level04.snbc"),
                    "--out", str(report)]) == 1
        err = capsys.readouterr().err
        assert "epsilon=nan must be >= 0" in err and not report.exists()


def test_failure_budget_abort_is_one_line(tmp_path, capsys):
    # at j = 1 the margin 3 B^-1 empties both hemisphere interiors, so
    # every replicate fails
    plan_path = tmp_path / "plan.cfg"
    plan_path.write_text("[plan]\nkinds = asymmetry\nj_list = 1\n")
    out = tmp_path / "mc"
    assert run(["mc", "--config", str(plan_path), "--out-dir", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("spinlets: error: aborting: 2 replicate failures, "
                          "first: r=0: EmptyRegionError")
    assert err.count("\n") == 1 and "Traceback" not in err
    assert not (out / "raw.csv").exists()


def test_config_roundtrip_idempotent(tmp_path):
    plan = ExperimentPlan(B=2.0, s=2, j_list=(3, 4, 5), alpha=3.0,
                          gamma=2.5, noise_level=1.0, channels=3,
                          replicates=250, base_seed=9,
                          kinds=("ap", "cp", "hausman"))
    text = plan_to_config_text(plan)
    path = tmp_path / "plan.cfg"
    path.write_text(text)
    parsed = plan_from_config(path)
    assert parsed == plan
    assert plan_to_config_text(parsed) == text


def test_selftest_fast():
    assert run(["selftest"]) == 0


@pytest.mark.parametrize("command", ["simulate", "transform", "estimate", "mc"])
def test_outputs_checked_before_the_first_write(tmp_path, capsys, command):
    # the last output exists: the run is refused before it writes any other
    alm_path = tmp_path / "sig.salm"
    run(["simulate", "--spin", "2", "--lmax", "8", "--seed", "1",
         "--out", str(alm_path)])
    out = tmp_path / "out"
    out.mkdir()
    argv, last = {
        "simulate": (["simulate", "--lmax", "8", "--seed", "1", "--channels",
                      "3", "--out", str(out / "sig.salm")], "sig.noise2.salm"),
        "transform": (["transform", "--alm", str(alm_path), "--levels", "0..3",
                       "--out-dir", str(out)], "level03.snbc"),
        "estimate": (["estimate", "--demo", "--out", str(out / "rep.json"),
                      "--csv", str(out / "rep.csv")], "rep.csv"),
        "mc": (["mc", "--config", str(DEMO_CONFIG), "--out-dir", str(out)],
               "plan.cfg"),
    }[command]
    (out / last).write_bytes(b"old bytes\n")
    capsys.readouterr()
    assert run(argv) == 1
    assert f"output {out / last} exists" in capsys.readouterr().err
    assert [p.name for p in out.iterdir()] == [last]
    assert (out / last).read_bytes() == b"old bytes\n"


@pytest.mark.parametrize("B, j, target", [(1.7, 6, 0.0455027),
                                          (2.0, 3, 0.175809)])
def test_estimate_reads_the_grid_its_file_names(tmp_path, capsys, B, j, target):
    # no flag restates the writer's B: the report's grid and its target
    # Gamma_j are those of the B in the file's header
    alm_path = tmp_path / "sig.salm"
    run(["simulate", "--spin", "2", "--lmax", "45", "--seed", "4",
         "--out", str(alm_path)])
    assert run(["transform", "--alm", str(alm_path), "--bandwidth", str(B),
                "--levels", str(j), "--out-dir", str(tmp_path / "c")]) == 0
    coeffs = tmp_path / "c" / f"level{j:02d}.snbc"
    report = tmp_path / "r.json"
    assert run(["estimate", "--kind", "unfeasible", "--coeffs", str(coeffs),
                "--out", str(report)]) == 0
    rep = json.loads(report.read_text())[0]
    npix = build_cubature(j, B).n_pixels
    assert rep["meta"]["grid"] == f"j={j} B={B:g} npix={npix}"
    assert rep["theoretical_target"] == gamma_theoretical(
        build_window(B), power_law(3.0, l_min=2), j, 2)
    assert rep["theoretical_target"] == pytest.approx(target, rel=1e-5)
    with pytest.raises(SystemExit):  # the flag that could contradict it is gone
        run(["estimate", "--kind", "unfeasible", "--coeffs", str(coeffs),
             "--bandwidth", "1.99"])
    assert "unrecognized arguments: --bandwidth" in capsys.readouterr().err


def _masked_level4(tmp_path):
    """A level-4 file masked by a 10% cap; returns (coeffs path, mask path)."""
    alm_path = tmp_path / "sig.salm"
    run(["simulate", "--spin", "2", "--lmax", "31", "--seed", "9",
         "--out", str(alm_path)])
    mask_path = tmp_path / "cap4.mask"
    write_mask(mask_path, polar_cap_mask(build_cubature(4, 2.0), 0.10))
    assert run(["transform", "--alm", str(alm_path),
                "--mask", str(mask_path), "--out-dir", str(tmp_path / "c")]) == 0
    return tmp_path / "c" / "level04.snbc", mask_path


def test_masked_coefficients_need_their_mask(tmp_path, capsys):
    coeffs, mask_path = _masked_level4(tmp_path)
    report = tmp_path / "r.json"
    argv = ["estimate", "--kind", "masked", "--coeffs", str(coeffs),
            "--out", str(report)]
    capsys.readouterr()
    assert run(argv) == 1
    err = capsys.readouterr().err
    assert f"coeffs {coeffs} were computed with a mask" in err
    assert "Traceback" not in err and not report.exists()
    assert run(argv + ["--mask", str(mask_path)]) == 0


def test_estimate_refuses_a_mask_of_another_grid(tmp_path, capsys):
    coeffs, _ = _masked_level4(tmp_path)
    mask5 = tmp_path / "cap5.mask"
    write_mask(mask5, polar_cap_mask(build_cubature(5, 2.0), 0.10))
    report = tmp_path / "r.json"
    capsys.readouterr()
    assert run(["estimate", "--kind", "masked", "--coeffs", str(coeffs),
                "--mask", str(mask5), "--out", str(report)]) == 1
    err = capsys.readouterr().err
    assert f"mask {mask5} is for level j=5 at B=2, coeffs {coeffs} for " \
           f"level j=4 at B=2" in err
    assert "Traceback" not in err and not report.exists()


def test_readme_command_lines_use_accepted_flags():
    # every `spinlets <command>` line README shows, with its continuation
    # lines, parses: once with each [...] group dropped, once with all kept
    readme = (ROOT / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```", 2)[1]
    subparsers = next(a for a in build_parser()._actions
                      if isinstance(a, argparse._SubParsersAction)).choices
    shown = []
    for line in block.splitlines():
        if shown and shown[-1].endswith("\\"):
            shown[-1] = shown[-1][:-1] + line
        elif line.startswith("spinlets "):
            shown.append(line)
    assert {text.split()[1] for text in shown} == set(subparsers)
    for text in shown:
        for variant in (re.sub(r"\[[^]]*\]", " ", text),
                        text.replace("[", " ").replace("]", " ")):
            try:
                build_parser().parse_args(shlex.split(variant)[1:])
            except SystemExit:
                pytest.fail(f"README command does not parse: {variant}")
