"""Batch command-line front end.

Subcommands: simulate, transform, estimate, mc, selftest.  All diagnostics
go to stderr; data goes to files (or stdout).  Exit code 0 iff no error.
Every run's randomness flows from a single --seed; outputs are never
overwritten without --force.

The mc subcommand reads a flat key=value config with a [plan] section
(command-line flags win over file values), so experiment provenance can be
checked into results directories.
"""

from __future__ import annotations

import argparse
import configparser
import io
import json
import math
import sys
import typing
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import estimators, mc
from .errors import InvalidConfigError, SpinletsError
from .fields import (draw_alm, observe_channels, power_law, read_alm,
                     seed_key, write_alm)
from .grid import build_cubature, empty_mask, hemispheres, read_mask
from .transform import (masked_analyze, needlet_analyze, needlet_synthesize,
                        peek_coefficients, read_coefficients,
                        synthesize_on_grid, write_coefficients)
from .window import build_window

# plan key -> declared type of its ExperimentPlan field, in field order
_PLAN_TYPES = typing.get_type_hints(mc.ExperimentPlan)
DEMO_CONFIG = Path(__file__).parent / "configs" / "demo_estimate.cfg"


def _err(msg: str) -> None:
    print(f"spinlets: {msg}", file=sys.stderr)


def _check_output(path, force: bool) -> Path:
    path = Path(path)
    if path.exists() and not force:
        raise InvalidConfigError(f"output {path} exists; pass --force to overwrite")
    return path


def _parse_levels(text: str) -> tuple:
    text = text.strip()
    if ".." in text:
        lo, hi = text.split("..", 1)
        levels = tuple(range(int(lo), int(hi) + 1))
    else:
        levels = tuple(int(t) for t in text.split(",") if t.strip())
    if not levels:
        raise InvalidConfigError(f"levels: cannot parse {text!r}")
    return levels


def plan_from_config(path) -> mc.ExperimentPlan:
    """Parse an ExperimentPlan from a [plan] section of flat key=value text."""
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    parser.optionxform = str  # plan keys are case-sensitive (B vs b)
    read = parser.read(path)
    if not read:
        raise InvalidConfigError(f"config: cannot read {path}")
    if "plan" not in parser:
        raise InvalidConfigError(f"config {path}: missing [plan] section")
    section = parser["plan"]
    unknown = set(section) - set(_PLAN_TYPES)
    if unknown:
        raise InvalidConfigError(
            f"config {path}: unknown keys {sorted(unknown)}")
    plan = mc.ExperimentPlan(**{key: _parse_value(path, key, section[key])
                                for key in section})
    plan.validate()
    return plan


def _parse_value(path, key: str, text: str):
    """A config value parsed as the declared type of its plan field."""
    hint, raw = _PLAN_TYPES[key], text.strip()
    try:
        if hint == tuple[int, ...]:
            return _parse_levels(raw)
        if hint == tuple[str, ...]:
            return tuple(t.strip() for t in raw.split(",") if t.strip())
        if hint == int | None:
            return None if raw.lower() in ("", "none", "auto") else int(raw)
        return hint(raw)
    except ValueError as exc:
        raise InvalidConfigError(
            f"config {path}: {key} = {raw!r} is not "
            f"{hint.__name__ if isinstance(hint, type) else hint}") from exc


def plan_to_config_text(plan: mc.ExperimentPlan) -> str:
    """Canonical config serialization (idempotent under plan_from_config)."""
    out = io.StringIO()
    out.write("[plan]\n")
    for key in _PLAN_TYPES:
        value = getattr(plan, key)
        if key in ("j_list", "kinds"):
            value = ",".join(str(v) for v in value)
        elif key == "L":
            value = "auto" if value is None else value
        out.write(f"{key} = {value}\n")
    return out.getvalue()


def cmd_simulate(args) -> int:
    out = _check_output(args.out, args.force)
    signal_model = power_law(args.alpha, l_min=max(1, abs(args.spin)))
    half = signal_model.scaled(0.5)
    signal = draw_alm(half, half, args.spin, args.lmax, (args.seed, 0))
    write_alm(out, signal)
    _err(f"wrote signal {out} (spin={args.spin}, L={args.lmax}, "
         f"seed key={seed_key((args.seed, 0))})")
    if args.channels:
        noise_models = [power_law(args.gamma, l_min=max(1, abs(args.spin)),
                                  kind="noise", amplitude=args.noise_level)
                        for _ in range(args.channels)]
        chans = observe_channels(signal, noise_models, (args.seed, 1))
        for r in range(args.channels):
            noise_path = _check_output(
                out.with_name(f"{out.stem}.noise{r}{out.suffix}"), args.force)
            write_alm(noise_path, chans.noise[r])
            _err(f"wrote noise channel {r}: {noise_path} "
                 f"(seed key={seed_key((args.seed, 1)) + (r,)})")
    return 0


def cmd_transform(args) -> int:
    alm = read_alm(args.alm)
    window = build_window(args.bandwidth)
    levels = _parse_levels(args.levels)
    mask = None
    if args.mask is not None:  # validate all inputs before writing anything
        mask = read_mask(args.mask, epsilon=args.epsilon, grid=None)
        bad = [j for j in levels if j != mask.grid.j]
        if bad:
            raise InvalidConfigError(
                f"mask {args.mask} is for level j={mask.grid.j}, "
                f"cannot apply at levels {bad}")
        if mask.grid.B != args.bandwidth:
            raise InvalidConfigError(
                f"mask {args.mask} was built for B={mask.grid.B}, "
                f"got --bandwidth {args.bandwidth}")
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    written = []
    for j in levels:
        grid = mask.grid if mask is not None else build_cubature(j, args.bandwidth)
        if mask is not None:
            pix = synthesize_on_grid(alm.full_coeffs(), grid, alm.s)
            coeffs = masked_analyze(pix, mask, window, grid, j, alm.s)
        else:
            coeffs = needlet_analyze(alm, window, grid, j)
        path = _check_output(out_dir / f"level{j:02d}.snbc", args.force)
        write_coefficients(path, coeffs)
        written.append(coeffs)
        _err(f"wrote {path} ({coeffs.values.size} coefficients, "
             f"masked={coeffs.masked})")
    if args.roundtrip:
        recon = needlet_synthesize(written)
        L = min(recon.L, alm.L)
        err = 0.0
        for arr, ref in ((recon.alm_e, alm.alm_e), (recon.alm_b, alm.alm_b)):
            lo = abs(alm.s) + 1
            if lo <= L:
                err = max(err, float(np.max(np.abs(
                    arr[lo:L + 1, :L + 1] - ref[lo:L + 1, :L + 1]))))
        _err(f"roundtrip max alm error over covered degrees: {err:.3e}")
    return 0


def cmd_estimate(args) -> int:
    if args.demo:
        plan = plan_from_config(DEMO_CONFIG)
        reports = [rep for _, _, rep in mc.replicate_reports(plan, 0)]
        _write_reports(reports, args.out, args.csv, args.force)
        return 0
    if not args.coeffs:
        raise InvalidConfigError("coeffs: need at least one SNBC file (or --demo)")
    window = build_window(args.bandwidth)
    coeff_list = [read_coefficients(
        path, build_cubature(peek_coefficients(path)[0], args.bandwidth), window)
        for path in args.coeffs]
    first = coeff_list[0]
    kinds = [kind.strip() for kind in args.kind.split(",") if kind.strip()]
    inputs = {"masked": first, "gapfree": first, "channels": coeff_list,
              "signal": power_law(args.alpha, l_min=max(1, abs(first.s)))}
    needs = {name for kind in kinds if kind in estimators.KINDS
             for name in estimators.KINDS[kind].args}
    if "mask" in needs:
        inputs["mask"] = empty_mask(first.grid, epsilon=args.epsilon) \
            if args.mask is None else \
            read_mask(args.mask, epsilon=args.epsilon, grid=first.grid)
    if "regions" in needs:
        inputs["regions"] = hemispheres(first.grid, epsilon=args.epsilon)
    if "noise" in needs:
        inputs["noise"] = [power_law(args.gamma, l_min=max(1, abs(first.s)),
                                     kind="noise", amplitude=args.noise_level)
                           for _ in coeff_list]
    reports = [estimators.estimate(kind, inputs) for kind in kinds]
    _write_reports(reports, args.out, args.csv, args.force)
    return 0


def _write_reports(reports, out_path, csv_path, force) -> None:
    payload = [r.to_dict() for r in reports]
    if out_path:
        path = _check_output(out_path, force)
        path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
        _err(f"wrote {path}")
    else:
        print(json.dumps(payload, indent=2, sort_keys=True))
    if csv_path:
        path = _check_output(csv_path, force)
        lines = ["j,s,kind,paper_kind,value,target,variance,standardized"]
        for r in reports:
            d = r.to_dict()
            lines.append(f"{d['j']},{d['s']},{d['kind']},{d['paper_kind']},"
                         f"{d['value']!r},{d['theoretical_target']!r},"
                         f"{d['variance_estimate']!r},{d['standardized']!r}")
        path.write_text("\n".join(lines) + "\n")
        _err(f"wrote {path}")


def cmd_mc(args) -> int:
    plan = plan_from_config(args.config)
    overrides = {"replicates": args.replicates, "base_seed": args.seed}
    plan = replace(plan, **{k: v for k, v in overrides.items() if v is not None})
    plan.validate()
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    raw_path = _check_output(out_dir / "raw.csv", args.force)
    diag_path = _check_output(out_dir / "diagnostics.json", args.force)
    cfg_path = out_dir / "plan.cfg"

    report, rows = mc.run_experiment(plan, threads=args.threads)
    raw_path.write_text(mc.rows_to_csv(rows))
    diag_path.write_text(report.to_json() + "\n")
    cfg_path.write_text(plan_to_config_text(plan))
    for (j, kind), stats in sorted(report.statistics.items()):
        if "ks_distance" in stats:
            _err(f"j={j} kind={kind}: mean={stats['mean']:+.4f} "
                 f"var={stats['variance']:.4f} KS={stats['ks_distance']:.4f}")
    for kind, fit in report.variance_slopes.items():
        _err(f"kind={kind}: log-variance slope {fit['slope']:+.4f} "
             f"+- {fit['stderr']:.4f} over levels {fit['levels']}")
    for flag in report.flags:
        _err(f"flag: {flag}")
    _err(f"wrote {raw_path}, {diag_path}, {cfg_path}")
    return 0


def cmd_selftest(args) -> int:
    """Run the fast invariant suites; prints one line per check."""
    checks = []

    def check(name, fn):
        try:
            fn()
            checks.append((name, None))
            _err(f"selftest PASS {name}")
        except Exception as exc:
            checks.append((name, exc))
            _err(f"selftest FAIL {name}: {exc}")

    from .wigner import SphPoint, spin_sph_harm, wigner_d, wigner_d_slice

    def _wigner():
        assert abs(wigner_d(1, 0, 0, math.pi / 3) - 0.5) < 1e-12
        sl = wigner_d_slice(128, 2, 1.1)
        assert abs(np.sum(sl.values ** 2) - 1.0) < 1e-12

    def _addition():
        p = SphPoint(1.1, 0.3)
        for s in (0, 2):
            total = sum(abs(spin_sph_harm(16, m, s, p)) ** 2
                        for m in range(-16, 17))
            assert abs(total - 33 / (4 * math.pi)) < 1e-10

    def _window():
        w = build_window(2.0)
        x = 7.3
        total = sum(w.b_squared(x / 2.0 ** j) for j in range(12))
        assert abs(total - 1.0) < 1e-12

    def _grid():
        g = build_cubature(3, 2.0)
        assert abs(g.weights.sum() - 4 * math.pi) < 1e-10

    def _roundtrip():
        s, L, B = 2, 14, 2.0
        window = build_window(B)
        half = power_law(3.0, l_min=max(1, s)).scaled(0.5)
        alm = draw_alm(half, half, s, L, 42)
        alm.alm_e[s, :] = 0.0
        alm.alm_b[s, :] = 0.0
        levels = [needlet_analyze(alm, window, build_cubature(j, B), j)
                  for j in range(0, 5)]
        recon = needlet_synthesize(levels, L=L)
        assert np.max(np.abs(recon.alm_e - alm.alm_e)) < 1e-8
        assert np.max(np.abs(recon.alm_b - alm.alm_b)) < 1e-8

    check("wigner-recursion", _wigner)
    check("addition-theorem", _addition)
    check("window-partition", _window)
    check("grid-weights", _grid)
    if not args.fast:
        check("frame-roundtrip", _roundtrip)
    failures = [name for name, exc in checks if exc is not None]
    if failures:
        _err(f"selftest: {len(failures)} failure(s): {failures}")
        return 1
    _err("selftest: all checks passed")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spinlets",
        description="Spin needlet analysis and spectral estimation on the sphere")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="draw spin-field coefficients")
    p.add_argument("--spin", type=int, default=2)
    p.add_argument("--lmax", type=int, required=True)
    p.add_argument("--alpha", type=float, default=3.0)
    p.add_argument("--gamma", type=float, default=2.5)
    p.add_argument("--noise-level", type=float, default=1.0)
    p.add_argument("--channels", type=int, default=0)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--force", action="store_true")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("transform", help="needlet analysis of a SALM file")
    p.add_argument("--alm", required=True)
    p.add_argument("--bandwidth", type=float, default=2.0)
    p.add_argument("--levels", required=True, help="e.g. 2..6 or 2,3,4")
    p.add_argument("--mask", default=None)
    p.add_argument("--epsilon", type=float, default=0.0)
    p.add_argument("--roundtrip", action="store_true")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--force", action="store_true")
    p.set_defaults(func=cmd_transform)

    p = sub.add_parser("estimate", help="run estimators over coefficient files")
    p.add_argument("--kind", default="masked",
                   help="comma list of " + ",".join(estimators.KNOWN_KINDS))
    p.add_argument("--coeffs", nargs="*", default=[],
                   help="SNBC files (one per channel for ap/cp/hausman)")
    p.add_argument("--bandwidth", type=float, default=2.0)
    p.add_argument("--alpha", type=float, default=3.0)
    p.add_argument("--gamma", type=float, default=2.5)
    p.add_argument("--noise-level", type=float, default=1.0)
    p.add_argument("--mask", default=None)
    p.add_argument("--epsilon", type=float, default=0.0)
    p.add_argument("--demo", action="store_true",
                   help="report replicate 0 of the bundled plan "
                        "configs/demo_estimate.cfg")
    p.add_argument("--out", default=None)
    p.add_argument("--csv", default=None)
    p.add_argument("--force", action="store_true")
    p.set_defaults(func=cmd_estimate)

    p = sub.add_parser("mc", help="run a Monte Carlo experiment plan")
    p.add_argument("--config", required=True)
    p.add_argument("--replicates", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--threads", type=int, default=1)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--force", action="store_true")
    p.set_defaults(func=cmd_mc)

    p = sub.add_parser("selftest", help="run the invariant suites")
    p.add_argument("--fast", action="store_true")
    p.set_defaults(func=cmd_selftest)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (SpinletsError, OSError, ValueError) as exc:
        _err(f"error: {exc}")
        return 1


if __name__ == "__main__":
    sys.exit(main())
