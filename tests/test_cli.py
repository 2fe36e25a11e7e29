"""Tests for the batch CLI: subcommands, file formats, exit codes."""

import argparse
import json
import os
import re
import shlex
import struct
import subprocess
import sys
import types
import typing
from pathlib import Path

import pytest

from spinlets import build_window, estimators, gamma_theoretical, mc, power_law
from spinlets.cli import (DEMO_CONFIG, build_parser, main, plan_from_config,
                          plan_to_config_text)
from spinlets.errors import (EmptyRegionError, InvalidBandwidthError,
                             InvalidConfigError)
from spinlets.fields import read_alm
from spinlets.grid import build_cubature, empty_mask, polar_cap_mask, write_mask
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
    line = [ln for ln in err.splitlines()
            if ln.startswith("spinlets: roundtrip")][0]
    assert float(line.rsplit(" ", 1)[-1]) < 1e-8
    # a one-level range is one level
    assert run(argv[:5] + ["--levels", "4..4", "--out-dir", str(tmp_path / "one")]) == 0
    assert [p.name for p in (tmp_path / "one").iterdir()] == ["level04.snbc"]


def test_transform_roundtrip_reports_only_fully_covered_degrees(tmp_path, capsys):
    # levels 0..7 at B = 2 cover l <= 128 to rounding and l = 129..131 only
    # in part (1 - sum b^2 = 6.5e-13 .. 8.6e-7): the printed error is the
    # frame's at the degrees they cover, a rounding-level number
    alm_path = tmp_path / "sig.salm"
    run(["simulate", "--spin", "2", "--lmax", "255", "--seed", "3",
         "--out", str(alm_path)])
    capsys.readouterr()
    assert run(["transform", "--alm", str(alm_path), "--levels", "0..7",
                "--out-dir", str(tmp_path / "c"), "--roundtrip"]) == 0
    line = [ln for ln in capsys.readouterr().err.splitlines()
            if ln.startswith("spinlets: roundtrip")][0]
    assert float(line.rsplit(" ", 1)[-1]) < 1e-12


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
                           "header field B=1.0: bandwidth B=1.0 must be > 1 and finite"),
                          ("mask v1 j=2 B=1e400 npix=153",
                           "header field B=inf: bandwidth B=inf must be > 1 and finite")):
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
    assert all(rep["meta"]["window"] == "B=2.0" for rep in reports)
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
    path.write_text("[plan]\nj_list = 4..4\n")  # a one-level range
    assert plan_from_config(path).j_list == (4,)
    for line, named in (("replicates = ten", "replicates = 'ten' is not int"),
                        ("B = two", "B = 'two' is not float"),
                        ("j_list = 3..x", "j_list: level 'x' in '3..x' is not an integer"),
                        # B is checked before the levels that are read at it
                        ("B = inf\nj_list = 3", "B: bandwidth B=inf must be > 1 and finite"),
                        ("j_list = 3\nB = nan", "B: bandwidth B=nan must be > 1 and finite"),
                        ("B = 0.5\nj_list = 3", "B: bandwidth B=0.5 must be > 1 and finite"),
                        ("B = 0.5", "B: bandwidth B=0.5 must be > 1 and finite"),
                        ("kinds = unfeasible, unfeasible",
                         "kinds: duplicate estimator 'unfeasible'"),
                        ("channels = 1", "channels: must be 0 or >= 2"),
                        ("channels = -1", "channels: must be 0 or >= 2"),
                        # a rule across keys, checked as the plan is built
                        ("kinds = cp\nchannels = 0",
                         "channels: ap/cp/hausman need at least 2 channels")):
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
    ("3,3", "levels: duplicate levels"),
    ("-1,2", "levels: needs levels j >= 0"),
    ("40", "levels: level j=40 needs > 8000000 pixels (cap)"),
])
def test_transform_levels_errors_name_the_flag(tmp_path, capsys, levels, message):
    # the levels rule and the pixel cap run before --alm is read, as estimate
    # checks --kind before any file: the file here does not exist.  A value
    # after a space reaches the rule too, "-1,2" included
    out_dir = tmp_path / "c"
    for flag in ([f"--levels={levels}"], ["--levels", levels]):
        assert run(["transform", "--alm", str(tmp_path / "missing.salm")]
                   + flag + ["--out-dir", str(out_dir)]) == 1
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
        "levels: level j=1 needs exactness degree 12, grid provides 8")


def test_transform_refuses_a_roundtrip_gap_before_the_first_file(tmp_path,
                                                                 capsys):
    # the gap is found by the roundtrip itself, which runs before any write
    alm_path = tmp_path / "sig.salm"
    run(["simulate", "--spin", "2", "--lmax", "24", "--seed", "1",
         "--out", str(alm_path)])
    _refused_before_any_write(tmp_path, capsys, [
        "transform", "--alm", str(alm_path), "--levels", "3..5", "--roundtrip",
        "--out-dir", str(tmp_path / "c")],
        "levels [3, 4, 5] leave coverage gaps at degrees [3, 4, 5, 6, 7]")


def test_transform_refuses_an_unresolved_mask_level_before_any_write(
        tmp_path, capsys):
    # the whole L = 63 field is synthesized on the level-3 grid, which
    # resolves orders up to 16: the refusal names the mask, and no
    # --out-dir is left behind
    alm_path, mask_path = tmp_path / "sig.salm", tmp_path / "cap.mask"
    run(["simulate", "--spin", "2", "--lmax", "63", "--seed", "1",
         "--out", str(alm_path)])
    write_mask(mask_path, polar_cap_mask(build_cubature(3, 2.0), 0.10))
    _refused_before_any_write(tmp_path, capsys, [
        "transform", "--alm", str(alm_path), "--mask", str(mask_path),
        "--out-dir", str(tmp_path / "c")],
        f"mask {mask_path}: grid at level 3 resolves orders |m| <= 16, need 63")


@pytest.mark.parametrize("flags, flag", [
    (["--coeffs", "nonexistent.snbc"], "coeffs"),
    (["--coeffs"], "coeffs"),
    (["--mask", "nonexistent.mask"], "mask"),
    (["--kind", "bogus"], "kind"),
    (["--kind", "masked"], "kind"),
    (["--alpha", "5"], "alpha"),
    (["--alpha", "3.0"], "alpha"),  # the old default is refused too
    (["--gamma", "2.5"], "gamma"),
    (["--noise-level", "0"], "noise-level"),
    (["--epsilon", "0.1"], "epsilon"),
])
def test_estimate_demo_refuses_flags_it_would_ignore(tmp_path, capsys, flags,
                                                     flag):
    _refused_before_any_write(tmp_path, capsys, [
        "estimate", "--demo", "--out", str(tmp_path / "r.json")] + flags,
        f"{flag}: --demo reports the bundled plan; drop --{flag}")


@pytest.mark.parametrize("flags, flag", [(["--gamma", "7"], "gamma"),
                                         (["--noise-level", "2"], "noise-level")])
def test_simulate_refuses_noise_flags_without_channels(tmp_path, capsys, flags,
                                                       flag):
    _refused_before_any_write(tmp_path, capsys, [
        "simulate", "--lmax", "20", "--seed", "3",
        "--out", str(tmp_path / "sig.salm")] + flags,
        f"{flag}: --{flag} sets the noise channels; pass --channels or drop it")


@pytest.mark.parametrize("kinds, flags, flag", [
    ("masked", ["--gamma", "9"], "gamma"),
    ("cp,asymmetry", ["--noise-level", "2"], "noise-level"),
    ("ap,cp,hausman", ["--epsilon", "0.1"], "epsilon"),
    ("asymmetry", ["--mask", "cap.mask"], "mask"),
    ("hausman", ["--mask", "cap.mask"], "mask"),
    # without --mask a mask kind reads an empty mask, which no epsilon dilates
    ("unfeasible", ["--epsilon", "4"], "epsilon"),
    ("masked,unfeasible", ["--epsilon", "4"], "epsilon"),
])
def test_estimate_refuses_flags_no_requested_kind_reads(tmp_path, capsys, kinds,
                                                        flags, flag):
    # refused before any file is read: the coefficients file does not exist
    _refused_before_any_write(tmp_path, capsys, [
        "estimate", "--kind", kinds, "--coeffs", str(tmp_path / "c.snbc"),
        "--out", str(tmp_path / "r.json")] + flags,
        f"{flag}: no kind in {kinds!r} reads --{flag}; drop it")


def _no_estimator(*args):
    raise AssertionError("a refused input must run no estimator")


def test_estimate_names_the_mask_and_epsilon_that_leave_no_pixel(
        tmp_path, capsys, monkeypatch):
    # a 30% cap on the level-3 grid, dilated by 3 radians, covers the sphere
    alm_path, mask_path = tmp_path / "f.salm", tmp_path / "m3.txt"
    run(["simulate", "--spin", "2", "--lmax", "16", "--seed", "1",
         "--out", str(alm_path)])
    write_mask(mask_path, polar_cap_mask(build_cubature(3, 2.0), 0.30))
    run(["transform", "--alm", str(alm_path), "--mask", str(mask_path),
         "--out-dir", str(tmp_path / "tm")])
    monkeypatch.setattr(estimators, "estimate_masked", _no_estimator)
    _refused_before_any_write(tmp_path, capsys, [
        "estimate", "--kind", "masked", "--coeffs",
        str(tmp_path / "tm" / "level03.snbc"), "--mask", str(mask_path),
        "--epsilon", "3", "--out", str(tmp_path / "r.json")],
        f"mask {mask_path}: no pixel survives the mask after dilation at "
        f"--epsilon=3.0")


def test_estimate_refuses_an_empty_hemisphere_interior_as_epsilon(
        tmp_path, capsys, monkeypatch):
    alm_path = tmp_path / "f.salm"
    run(["simulate", "--spin", "2", "--lmax", "24", "--seed", "1",
         "--out", str(alm_path)])
    run(["transform", "--alm", str(alm_path), "--levels", "2",
         "--out-dir", str(tmp_path / "t")])
    monkeypatch.setattr(estimators, "estimate_asymmetry", _no_estimator)
    _refused_before_any_write(tmp_path, capsys, [
        "estimate", "--kind", "asymmetry", "--coeffs",
        str(tmp_path / "t" / "level02.snbc"), "--epsilon", "5",
        "--out", str(tmp_path / "r.json")],
        "epsilon: region 1 has an empty eps-interior (epsilon=5.0)")


@pytest.mark.parametrize("argv, message", [
    (["--kind", "bogus", "--coeffs", "a.snbc"], "kind: unknown estimator 'bogus'"),
    (["--kind", "unfeasible"], "coeffs: need at least one SNBC file (or --demo)"),
    (["--kind", "unfeasible", "--coeffs", "a.snbc", "b.snbc"],
     "coeffs: no kind in 'unfeasible' reads more than one file; drop b.snbc"),
    (["--kind", "masked,asymmetry", "--coeffs", "a.snbc", "b.snbc", "c.snbc"],
     "coeffs: no kind in 'masked,asymmetry' reads more than one file; "
     "drop b.snbc"),
    (["--kind", "masked,cp,masked", "--coeffs", "a.snbc"],
     "kind: duplicate estimator 'masked'"),
    (["--kind", "-x", "--coeffs", "a.snbc"], "kind: unknown estimator '-x'"),
])
def test_estimate_refuses_kinds_and_coeffs_before_reading_a_file(
        tmp_path, capsys, argv, message):
    # none of the coefficients files exists
    _refused_before_any_write(tmp_path, capsys, [
        "estimate", "--out", str(tmp_path / "r.json")] + argv, message)


def test_transform_refuses_a_nonfinite_bandwidth_as_a_bandwidth(tmp_path,
                                                                capsys):
    alm_path = tmp_path / "sig.salm"
    run(["simulate", "--spin", "2", "--lmax", "8", "--seed", "1",
         "--out", str(alm_path)])
    _refused_before_any_write(tmp_path, capsys, [
        "transform", "--alm", str(alm_path), "--bandwidth", "inf",
        "--levels", "3", "--out-dir", str(tmp_path / "c")],
        "bandwidth: bandwidth B=inf must be > 1 and finite")


def test_estimate_reads_missing_spectrum_flags_as_their_defaults(tmp_path):
    # without --demo, no flag and the documented default give the same report
    alm_path = tmp_path / "sig.salm"
    run(["simulate", "--spin", "2", "--lmax", "31", "--seed", "2", "--channels",
         "2", "--out", str(alm_path)])
    run(["transform", "--alm", str(alm_path), "--levels", "4",
         "--out-dir", str(tmp_path / "c")])
    coeffs = str(tmp_path / "c" / "level04.snbc")
    base = ["estimate", "--kind", "unfeasible,asymmetry,ap", "--coeffs", coeffs,
            coeffs]
    assert run(base + ["--out", str(tmp_path / "a.json")]) == 0
    assert run(base + ["--alpha", "3.0", "--gamma", "2.5", "--noise-level",
                       "1.0", "--epsilon", "0.0",
                       "--out", str(tmp_path / "b.json")]) == 0
    assert (tmp_path / "a.json").read_text() == (tmp_path / "b.json").read_text()
    assert run(base + ["--alpha", "4.0", "--out", str(tmp_path / "c.json")]) == 0
    assert (tmp_path / "a.json").read_text() != (tmp_path / "c.json").read_text()


def test_estimate_without_out_prints_the_report_to_stdout(tmp_path, capsys):
    alm_path = tmp_path / "sig.salm"
    run(["simulate", "--spin", "2", "--lmax", "31", "--seed", "2",
         "--out", str(alm_path)])
    run(["transform", "--alm", str(alm_path), "--levels", "4",
         "--out-dir", str(tmp_path / "c")])
    argv = ["estimate", "--kind", "unfeasible,asymmetry", "--coeffs",
            str(tmp_path / "c" / "level04.snbc")]
    report = tmp_path / "r.json"
    assert run(argv + ["--out", str(report)]) == 0
    capsys.readouterr()
    assert run(argv) == 0
    assert capsys.readouterr().out == report.read_text()


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


@pytest.mark.parametrize("threads", ["0", "-3"])
def test_mc_refuses_threads_below_one_before_any_write(tmp_path, capsys,
                                                       threads):
    plan_path = tmp_path / "plan.cfg"
    plan_path.write_text("[plan]\nj_list = 3\nkinds = unfeasible\n")
    _refused_before_any_write(tmp_path, capsys, [
        "mc", "--config", str(plan_path), "--threads", threads,
        "--out-dir", str(tmp_path / "mc")], f"threads: {threads} must be >= 1")


def test_mc_refused_at_set_up_creates_no_directory(tmp_path, capsys):
    err = _mc_refused(tmp_path, capsys, "[plan]\nB = 2.9\ns = 3\nj_list = 0,1\n"
                      "kinds = unfeasible\nreplicates = 3\n")
    assert "exactness degree" in err


def test_mc_missing_config_names_the_path(tmp_path, capsys):
    path = tmp_path / "absent.cfg"
    _refused_before_any_write(tmp_path, capsys, [
        "mc", "--config", str(path), "--out-dir", str(tmp_path / "mc")],
        f"config: cannot read {path}")


def test_mc_prints_the_ks_and_slope_lines_of_its_diagnostics(tmp_path, capsys):
    # the smallest plan with >= 100 replicates (a KS line per level) and
    # 4 levels (a slope line): every level splits into >= 8 blocks at B = 1.5
    plan_path = tmp_path / "plan.cfg"
    plan_path.write_text("[plan]\nB = 1.5\nj_list = 4..7\nkinds = unfeasible\n"
                         "replicates = 100\n")
    out = tmp_path / "mc"
    capsys.readouterr()
    assert run(["mc", "--config", str(plan_path), "--out-dir", str(out)]) == 0
    diag = json.loads((out / "diagnostics.json").read_text())
    fit = diag["variance_slopes"]["unfeasible"]
    expected = [f"spinlets: j={j} kind=unfeasible: mean={st['mean']:+.4f} "
                f"var={st['variance']:.4f} KS={st['ks_distance']:.4f}"
                for j, st in ((j, diag["statistics"][f"j={j},kind=unfeasible"])
                              for j in range(4, 8))]
    expected.append(f"spinlets: kind=unfeasible: log-variance slope "
                    f"{fit['slope']:+.4f} +- {fit['stderr']:.4f} over levels "
                    f"[4, 5, 6, 7]")
    assert capsys.readouterr().err.splitlines()[:5] == expected


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
    assert err == ("spinlets: error: j_list: level j=9: harmonic table at "
                   "s=2, L=1023 needs 8598290400 bytes > cap 2147483648 "
                   "(B=2.0, s=2)\n")


def test_transform_refuses_an_oversized_table_before_building_it(
        tmp_path, capsys, monkeypatch):
    # every level, and a roundtrip's adjoint, reads an L = 24 field up to
    # min(24, support top), and levels 6..9 none: under a 256 KiB cap level
    # 4's table (164 kB) fits and level 5's (323 kB) is refused before any
    # table is built
    from spinlets import transform
    alm_path = tmp_path / "sig.salm"
    run(["simulate", "--spin", "2", "--lmax", "24", "--seed", "1",
         "--out", str(alm_path)])
    monkeypatch.setattr(transform, "MAX_TABLE_BYTES", 2 ** 18)
    monkeypatch.setattr(transform, "d_table", _no_table)
    _refused_before_any_write(tmp_path, capsys, [
        "transform", "--alm", str(alm_path), "--levels", "0..9", "--roundtrip",
        "--out-dir", str(tmp_path / "c")],
        "levels: level j=5: harmonic table at s=2, L=24 needs 322920 "
        "bytes > cap 262144")


def _table_spy(monkeypatch):
    """Record (degree, rings) of every table transform.d_table builds."""
    from spinlets import transform
    real, built = transform.d_table, []

    def spy(L, s, theta):
        built.append((L, theta.size))
        return real(L, s, theta)

    monkeypatch.setattr(transform, "d_table", spy)
    transform._table_slot.clear()
    return built


def test_transform_roundtrip_reads_only_the_analysis_degrees(tmp_path, capsys,
                                                             monkeypatch):
    # the round trip's degree is min(field L, covered top) = 24, so each
    # adjoint reads the table its analysis read: levels 1..7 build at 4, 7,
    # 15 and 24 (level 0's support is empty), with or without --roundtrip
    from spinlets import transform
    alm_path = tmp_path / "sig.salm"
    run(["simulate", "--spin", "2", "--lmax", "24", "--seed", "5",
         "--out", str(alm_path)])
    built = _table_spy(monkeypatch)
    for flags, name in (([], "plain"), (["--roundtrip"], "rt")):
        transform._table_slot.clear()
        built.clear()
        assert run(["transform", "--alm", str(alm_path), "--levels", "0..7",
                    "--out-dir", str(tmp_path / name)] + flags) == 0
        assert {L for L, _ in built} == {4, 7, 15, 24}, (flags, built)
    transform._table_slot.clear()
    for j in range(8):
        name = f"level{j:02d}.snbc"
        assert (tmp_path / "rt" / name).read_bytes() == \
            (tmp_path / "plain" / name).read_bytes()
    # levels 0..9 read nothing above 24 either: the run needs no large table
    capsys.readouterr()
    assert run(["transform", "--alm", str(alm_path), "--levels", "0..9",
                "--out-dir", str(tmp_path / "deep"), "--roundtrip"]) == 0
    line = [ln for ln in capsys.readouterr().err.splitlines()
            if ln.startswith("spinlets: roundtrip")][0]
    assert float(line.rsplit(" ", 1)[-1]) < 1e-12
    assert max(L for L, _ in built) == 24


def test_transform_builds_the_largest_table_first(tmp_path, monkeypatch):
    # the levels are analyzed largest first, so each smaller table builds in
    # the pages the one before left; the files keep the user's levels
    from spinlets import transform
    alm_path = tmp_path / "sig.salm"
    run(["simulate", "--spin", "2", "--lmax", "63", "--seed", "3",
         "--out", str(alm_path)])
    built = _table_spy(monkeypatch)
    assert run(["transform", "--alm", str(alm_path), "--levels", "3..6",
                "--out-dir", str(tmp_path / "c")]) == 0
    assert built == [(63, 129), (63, 65), (31, 33), (15, 17)]
    alm = read_alm(alm_path)
    for j in range(3, 7):
        want = tmp_path / f"want{j:02d}.snbc"
        transform.write_coefficients(
            want, transform.needlet_analyze(alm, build_cubature(j, 2.0)))
        assert (tmp_path / "c" / f"level{j:02d}.snbc").read_bytes() == \
            want.read_bytes()
    transform._table_slot.clear()


def test_transform_levels_above_the_field_read_nothing(tmp_path, monkeypatch):
    # levels 6..9 start their support above an L = 24 field's top: they
    # build no table and write +0.0 coefficients (no negative zero)
    from spinlets import transform
    alm_path = tmp_path / "sig.salm"
    run(["simulate", "--spin", "2", "--lmax", "24", "--seed", "4",
         "--out", str(alm_path)])
    built = _table_spy(monkeypatch)
    assert run(["transform", "--alm", str(alm_path), "--levels", "0..9",
                "--out-dir", str(tmp_path / "c")]) == 0
    assert sorted(built, reverse=True) == built
    assert {rings for _, rings in built} == {5, 9, 17, 33, 65}
    for j in range(6, 10):
        data = (tmp_path / "c" / f"level{j:02d}.snbc").read_bytes()
        npix = build_cubature(j, 2.0).n_pixels
        assert data[-16 * npix:] == bytes(16 * npix)
    transform._table_slot.clear()


def test_transform_refuses_a_roundtrip_that_covers_no_degree(tmp_path, capsys,
                                                             monkeypatch):
    # level 4 alone has sum b^2 < 1 at every degree: a round trip would check
    # none, so it is refused before any table is built or file written
    from spinlets import transform
    alm_path = tmp_path / "sig.salm"
    run(["simulate", "--spin", "2", "--lmax", "24", "--seed", "1",
         "--out", str(alm_path)])
    monkeypatch.setattr(transform, "d_table", _no_table)
    _refused_before_any_write(tmp_path, capsys, [
        "transform", "--alm", str(alm_path), "--levels", "4..4", "--roundtrip",
        "--out-dir", str(tmp_path / "c")],
        "levels [4] fully cover no degree 2 < l <= 24")


def test_transform_refuses_a_masked_roundtrip_before_any_read(tmp_path,
                                                              capsys):
    # masked coefficients are one level of the gap-filled field: there is
    # nothing to rebuild, so the flag is refused before either input is read
    alm_path, mask_path = tmp_path / "sig.salm", tmp_path / "cap.mask"
    run(["simulate", "--spin", "2", "--lmax", "24", "--seed", "1",
         "--out", str(alm_path)])
    write_mask(mask_path, polar_cap_mask(build_cubature(4, 2.0), 0.10))
    for alm, mask in ((alm_path, mask_path),
                      (tmp_path / "missing.salm", tmp_path / "missing.mask")):
        _refused_before_any_write(tmp_path, capsys, [
            "transform", "--alm", str(alm), "--mask", str(mask),
            "--roundtrip", "--out-dir", str(tmp_path / "c")],
            "roundtrip: masked coefficients are one level of the gap-filled "
            "field, not a frame of the field; drop --roundtrip")


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


def test_transform_mask_admission_refusals_name_the_mask(tmp_path, capsys,
                                                         monkeypatch):
    # every refusal of a level taken from --mask starts with the mask file:
    # at B = 2.9 and s = 3 level 0 is not exact; under a 1000-byte cap the
    # level-3 table at s = 2, L = 15 (its support top) is too large; under a
    # 36,000-byte cap that analysis table (34,272 bytes) passes, but the
    # synthesis of an L = 16 field on the level-3 grid (38,760 bytes) does not
    from spinlets import transform
    monkeypatch.setattr(transform, "d_table", _no_table)
    cases = [(3, 0, 2.9, 24, 1000,
              "level j=0 needs exactness degree 8, grid provides 6"),
             (2, 3, 2.0, 24, 1000, "level j=3: harmonic table at s=2, L=15 "
                                   "needs 34272 bytes > cap 1000"),
             (2, 3, 2.0, 16, 36_000, "level j=3: harmonic table at s=2, L=16 "
                                     "needs 38760 bytes > cap 36000")]
    for spin, j, B, lmax, cap, message in cases:
        monkeypatch.setattr(transform, "MAX_TABLE_BYTES", cap)
        alm_path = tmp_path / f"sig{spin}L{lmax}.salm"
        run(["simulate", "--spin", str(spin), "--lmax", str(lmax), "--seed",
             "1", "--out", str(alm_path)])
        mask_path = tmp_path / f"level{j}.mask"
        write_mask(mask_path, polar_cap_mask(build_cubature(j, B), 0.1))
        _refused_before_any_write(tmp_path, capsys, [
            "transform", "--alm", str(alm_path), "--mask", str(mask_path),
            "--out-dir", str(tmp_path / "c")], f"mask {mask_path}: {message}")


@pytest.mark.parametrize("text", ["0.5", "1.0", "inf", "nan"])
def test_every_bandwidth_source_refuses_with_one_message(tmp_path, capsys,
                                                         text):
    # one rule, 1 < B < inf, and one message body after each source's prefix
    body = f"bandwidth B={float(text)} must be > 1 and finite"
    for build in (build_window, lambda B: build_cubature(2, B)):
        with pytest.raises(InvalidBandwidthError) as err:
            build(float(text))
        assert str(err.value) == body
    plan_path = tmp_path / "plan.cfg"
    plan_path.write_text(f"[plan]\nB = {text}\nj_list = 3\n")
    _refused_before_any_write(tmp_path, capsys, [
        "mc", "--config", str(plan_path), "--out-dir", str(tmp_path / "mc")],
        f"config {plan_path}: B: {body}")
    # --bandwidth is checked before --levels and before --alm is read
    _refused_before_any_write(tmp_path, capsys, [
        "transform", "--alm", str(tmp_path / "absent.salm"), "--bandwidth",
        text, "--levels=-1", "--out-dir", str(tmp_path / "c")],
        f"bandwidth: {body}")
    alm_path = tmp_path / "sig.salm"
    run(["simulate", "--spin", "2", "--lmax", "8", "--seed", "1",
         "--out", str(alm_path)])
    run(["transform", "--alm", str(alm_path), "--levels", "2",
         "--out-dir", str(tmp_path / "c")])
    coeffs = tmp_path / "c" / "level02.snbc"
    data = coeffs.read_bytes()
    coeffs.write_bytes(data[:21] + struct.pack("<d", float(text)) + data[29:])
    _refused_before_any_write(tmp_path, capsys, [
        "estimate", "--coeffs", str(coeffs), "--out", str(tmp_path / "r.json")],
        f"{coeffs}: header field B={float(text)}: {body}")
    if text == "nan":  # a mask header's B matches [0-9.eE+-]+: no nan
        return
    mask_path = tmp_path / "bad.mask"
    mask_path.write_text(f"mask v1 j=2 B={'1e400' if text == 'inf' else text}"
                         f" npix=153\n")
    _refused_before_any_write(tmp_path, capsys, [
        "transform", "--alm", str(alm_path), "--mask", str(mask_path),
        "--out-dir", str(tmp_path / "c2")],
        f"{mask_path}:1: header field B={float(text)}: {body}")


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


@pytest.mark.parametrize("value", ["inf", "nan", "-0.5"])
def test_estimate_refuses_nonfinite_or_negative_epsilon(tmp_path, capsys,
                                                       value):
    # refused before any file is read: the coefficients file does not exist
    report = tmp_path / "r.json"
    assert run(["estimate", "--kind", "unfeasible", "--epsilon", value,
                "--coeffs", str(tmp_path / "c" / "level04.snbc"),
                "--out", str(report)]) == 1
    err = capsys.readouterr().err
    assert err == (f"spinlets: error: epsilon: --epsilon={float(value)} "
                   f"must be >= 0 and finite\n")
    assert not report.exists()


def test_failure_budget_abort_is_one_line(tmp_path, capsys, monkeypatch):
    # every replicate's estimator fails, so the second failure aborts the run
    def failing_asymmetry(*args):
        raise EmptyRegionError("no pixel left")

    monkeypatch.setattr(estimators, "estimate_asymmetry", failing_asymmetry)
    plan_path = tmp_path / "plan.cfg"
    plan_path.write_text("[plan]\nkinds = asymmetry\nj_list = 3\n")
    out = tmp_path / "mc"
    assert run(["mc", "--config", str(plan_path), "--out-dir", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("spinlets: error: aborting: 2 replicate failures, "
                          "first: r=0: EmptyRegionError")
    assert err.count("\n") == 1 and "Traceback" not in err
    assert not (out / "raw.csv").exists()


def test_empty_hemisphere_interior_refused_before_any_replicate(
        tmp_path, capsys, monkeypatch):
    # at j = 1 the margin 3 B^-1 empties both hemisphere interiors: the plan
    # is refused at set-up, not by the failure budget
    def no_estimate(*args):
        raise AssertionError("a refused plan must run no estimator")

    monkeypatch.setattr(estimators, "estimate_asymmetry", no_estimate)
    err = _mc_refused(tmp_path, capsys, "[plan]\nkinds = asymmetry\nj_list = 1\n")
    assert err == ("spinlets: error: epsilon_scale: region 1 has an empty "
                   "eps-interior (epsilon=1.5) at level j=1\n")


def test_empty_dilated_mask_refused_before_any_replicate(tmp_path, capsys,
                                                        monkeypatch):
    # a 99% cap dilated by 3 B^-3 leaves no level-3 pixel observed
    def no_estimate(*args):
        raise AssertionError("a refused plan must run no estimator")

    monkeypatch.setattr(estimators, "estimate_masked", no_estimate)
    err = _mc_refused(tmp_path, capsys, "[plan]\nkinds = masked\nj_list = 3\n"
                      "mask_fraction = 0.99\n")
    assert err == ("spinlets: error: mask_fraction: no pixel survives the mask "
                   "after dilation at level j=3\n")


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


def test_selftest_failure_exits_one_and_names_the_check(capsys, monkeypatch):
    from spinlets import cli

    def broken(B):
        raise ValueError("no window")

    monkeypatch.setattr(cli, "build_window", broken)
    assert run(["selftest"]) == 1
    err = capsys.readouterr().err.splitlines()
    assert "spinlets: selftest FAIL window-partition: no window" in err
    assert err[-1] == "spinlets: selftest: 1 failure(s): ['window-partition']"
    assert sum("selftest PASS" in line for line in err) == 4


def test_selftest_lines_name_the_error_and_its_tolerance(capsys, monkeypatch):
    from spinlets import cli

    assert run(["selftest"]) == 0
    err = capsys.readouterr().err.splitlines()
    for line, (name, _, tol) in zip(err, cli.SELFTEST):
        assert re.fullmatch(rf"spinlets: selftest PASS {name}: error "
                            rf"\d\.\d{{3}}e[+-]\d\d < {tol:g}", line), line
    assert len(err) == len(cli.SELFTEST) + 1
    # a window whose squares sum to 2: the partition misses 1 by 1
    window = build_window(2.0)
    monkeypatch.setattr(cli, "build_window", lambda B: types.SimpleNamespace(
        b_squared=lambda x: 2 * window.b_squared(x)))
    assert run(["selftest"]) == 1
    err = capsys.readouterr().err.splitlines()
    assert "spinlets: selftest FAIL window-partition: error 1.000e+00 >= 1e-12" in err
    assert err[-1] == "spinlets: selftest: 1 failure(s): ['window-partition']"


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
    assert rep["meta"]["grid"] == f"j={j} B={B!r} npix={npix}"
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


@pytest.mark.parametrize("kinds, copies", [("asymmetry", 1), ("unfeasible", 1),
                                           ("ap,cp,hausman", 2)])
def test_estimate_refuses_masked_coefficients_a_kind_reads_unmasked(
        tmp_path, capsys, kinds, copies):
    # gap-free and channel kinds read unmasked coefficients only
    coeffs, _ = _masked_level4(tmp_path)
    _refused_before_any_write(tmp_path, capsys, [
        "estimate", "--kind", kinds, "--coeffs"] + [str(coeffs)] * copies
        + ["--out", str(tmp_path / "r.json")],
        f"coeffs {coeffs} has masked=True; kind {kinds.split(',')[0]!r} "
        f"needs masked=False")


def test_estimate_refuses_a_mask_of_another_grid(tmp_path, capsys):
    coeffs, _ = _masked_level4(tmp_path)
    mask5 = tmp_path / "cap5.mask"
    write_mask(mask5, polar_cap_mask(build_cubature(5, 2.0), 0.10))
    report = tmp_path / "r.json"
    capsys.readouterr()
    assert run(["estimate", "--kind", "masked", "--coeffs", str(coeffs),
                "--mask", str(mask5), "--out", str(report)]) == 1
    err = capsys.readouterr().err
    assert f"mask {mask5} is for level j=5 at B=2.0, coeffs {coeffs} for " \
           f"level j=4 at B=2.0" in err
    assert "Traceback" not in err and not report.exists()


def test_estimate_grid_mismatch_names_each_bandwidth_unrounded(tmp_path, capsys):
    # two bandwidths that agree to six digits still read as two grids
    alm_path, mask_path = tmp_path / "sig.salm", tmp_path / "m.mask"
    write_mask(mask_path, empty_mask(build_cubature(2, 1.0000001)))
    run(["simulate", "--spin", "2", "--lmax", "8", "--seed", "1",
         "--out", str(alm_path)])
    assert run(["transform", "--alm", str(alm_path), "--levels", "2",
                "--bandwidth", "1.0000002", "--out-dir", str(tmp_path / "c")]) == 0
    coeffs = tmp_path / "c" / "level02.snbc"
    _refused_before_any_write(tmp_path, capsys, [
        "estimate", "--kind", "unfeasible", "--coeffs", str(coeffs),
        "--mask", str(mask_path), "--out", str(tmp_path / "r.json")],
        f"mask {mask_path} is for level j=2 at B=1.0000001, coeffs {coeffs} "
        f"for level j=2 at B=1.0000002")


@pytest.mark.filterwarnings("ignore:empty window support")
def test_estimate_reports_name_each_bandwidth_unrounded(tmp_path):
    # reports on grids whose bandwidths agree to six digits read as two grids
    alm_path = tmp_path / "sig.salm"
    run(["simulate", "--spin", "2", "--lmax", "8", "--seed", "1",
         "--out", str(alm_path)])
    metas = []
    for B in ("1.0000001", "1.0000002"):
        out_dir, report = tmp_path / B, tmp_path / f"{B}.json"
        assert run(["transform", "--alm", str(alm_path), "--levels", "2",
                    "--bandwidth", B, "--out-dir", str(out_dir)]) == 0
        assert run(["estimate", "--kind", "unfeasible", "--coeffs",
                    str(out_dir / "level02.snbc"), "--out", str(report)]) == 0
        metas.append(json.loads(report.read_text())[0]["meta"])
    npix = build_cubature(2, 1.0000001).n_pixels
    assert [(m["grid"], m["window"]) for m in metas] == [
        (f"j=2 B=1.0000001 npix={npix}", "B=1.0000001"),
        (f"j=2 B=1.0000002 npix={npix}", "B=1.0000002")]


def test_every_plan_key_and_value_flag_has_one_table_entry():
    # mc.FIELDS is the one home of each plan key's and value flag's rule and
    # default: every ExperimentPlan field and every simulate/estimate flag
    # that takes a value has an entry and no other has one, and each default
    # the parser, its help or README shows is the table's
    hints = typing.get_type_hints(ExperimentPlan)
    for key, hint in hints.items():
        assert mc.FIELDS[key].parse is (hint if hint in (int, float) else str)
    subparsers = next(a for a in build_parser()._actions
                      if isinstance(a, argparse._SubParsersAction)).choices
    flags = set()
    for command in ("simulate", "estimate"):
        for action in subparsers[command]._actions:
            if action.nargs == 0 or action.dest in ("out", "csv"):
                continue  # --help, --force, --demo and the output paths
            flags.add(action.dest)
            field = mc.FIELDS[action.dest]
            assert action.type in (None, field.parse), action.dest
            if action.required or field.default is None:
                assert action.default is None, action.dest
            elif action.default is None:  # may be refused: help shows it
                assert f"default {field.default}" in action.help, action.dest
            else:
                assert action.default == field.default, action.dest
    assert set(mc.FIELDS) == set(hints) | flags
    readme = " ".join((ROOT / "README.md").read_text().split())
    alpha, gamma, noise, epsilon, kind = (mc.FIELDS[name].default for name in (
        "alpha", "gamma", "noise_level", "epsilon", "kind"))
    assert f"a missing `--kind` reads as `{kind}`" in readme
    assert f"as {alpha}, {gamma}, {noise} or {epsilon}." in readme
    assert f"a missing one reads as {gamma} or {noise}." in readme


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
