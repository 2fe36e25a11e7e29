"""Tests for the batch CLI: subcommands, file formats, exit codes."""

import json
import struct
from pathlib import Path

import pytest

from spinlets.cli import (DEMO_CONFIG, main, plan_from_config,
                          plan_to_config_text)
from spinlets.errors import InvalidConfigError
from spinlets.fields import read_alm
from spinlets.mc import ExperimentPlan, rows_to_csv, run_experiment


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
    assert run(["transform", "--alm", str(alm_path), "--levels", "4",
                "--mask", str(mask_path), "--epsilon", "0.19",
                "--out-dir", str(out_dir)]) == 0
    report = tmp_path / "rep.json"
    assert run(["estimate", "--kind", "masked",
                "--coeffs", str(out_dir / "level04.snbc"),
                "--mask", str(mask_path), "--epsilon", "0.19",
                "--alpha", "3", "--out", str(report)]) == 0
    payload = json.loads(report.read_text())
    assert payload[0]["kind"] == "masked"
    assert payload[0]["value"] > 0.0
    # wrong level for this mask: clean error before any output
    assert run(["transform", "--alm", str(alm_path), "--levels", "3,4",
                "--mask", str(mask_path),
                "--out-dir", str(tmp_path / "c2")]) == 1
    assert not (tmp_path / "c2").exists() or \
        not list((tmp_path / "c2").iterdir())


def test_transform_missing_mask_clean_error(tmp_path, capsys):
    alm_path = tmp_path / "sig.salm"
    run(["simulate", "--spin", "2", "--lmax", "16", "--seed", "5",
         "--out", str(alm_path)])
    code = run(["transform", "--alm", str(alm_path), "--levels", "3",
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
        code = run(["transform", "--alm", str(alm_path), "--levels", "2",
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
                          ("mask j=2", "header 'mask j=2'")):
        mask_path.write_text(f"{header}\n4\n")
        code = run(["transform", "--alm", str(alm_path), "--levels", "2",
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


def test_config_values_parsed_by_declared_type(tmp_path, capsys):
    path = tmp_path / "plan.cfg"
    path.write_text("[plan]\nj_list = 3..5\nL = auto\nkinds = masked, unfeasible\n"
                    "mask_fraction = 0.1\nregions = none\nreplicates = 7\n")
    plan = plan_from_config(path)
    assert (plan.j_list, plan.L, plan.kinds, plan.mask_fraction,
            plan.regions, plan.replicates) == \
        ((3, 4, 5), None, ("masked", "unfeasible"), 0.1, "none", 7)
    for line, named in (("replicates = ten", "replicates = 'ten' is not int"),
                        ("B = two", "B = 'two' is not float"),
                        ("L = big", "L = 'big' is not int | None"),
                        ("j_list = 3..x", "j_list = '3..x' is not tuple[int, ...]")):
        path.write_text(f"[plan]\n{line}\n")
        with pytest.raises(InvalidConfigError) as err:
            plan_from_config(path)
        assert str(err.value) == f"config {path}: {named}"
        assert run(["mc", "--config", str(path), "--out-dir",
                    str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert f"config {path}: {named}" in err and "Traceback" not in err


def test_config_with_smoothness_order_rejected(tmp_path):
    # the window has no smoothness knob; an old plan.cfg naming one is refused
    path = tmp_path / "plan.cfg"
    path.write_text("[plan]\nj_list = 3\nkinds = masked\nsmoothness_order = 3\n")
    with pytest.raises(InvalidConfigError,
                       match=r"unknown keys \['smoothness_order'\]"):
        plan_from_config(path)


def test_config_roundtrip_idempotent(tmp_path):
    plan = ExperimentPlan(B=2.0, s=2, j_list=(3, 4, 5), L=None, alpha=3.0,
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
    assert run(["selftest", "--fast"]) == 0
