"""Batch command-line front end.

Subcommands: simulate, transform, estimate, mc, selftest.  All diagnostics
go to stderr; data goes to files (or stdout).  Exit code 0 iff no error.
Every run's randomness flows from a single --seed; outputs are never
overwritten without --force, and all of a run's outputs are checked before
it writes the first one.

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
from .errors import InvalidConfigError, ResourceLimitError, SpinletsError
from .fields import (draw_alm, observe_channels, power_law, read_alm,
                     seed_key, write_alm)
from .grid import build_cubature, empty_mask, grid_size, hemispheres, read_mask
from .transform import (_check_table_size, _support_or_raise, masked_analyze,
                        needlet_analyze, needlet_synthesize,
                        read_coefficients, synthesize_on_grid,
                        write_coefficients)
from .window import build_window

# plan key -> declared type of its ExperimentPlan field, in field order
_PLAN_TYPES = typing.get_type_hints(mc.ExperimentPlan)
DEMO_CONFIG = Path(__file__).parent / "configs" / "demo_estimate.cfg"
# what a config line that configparser refuses does wrong
_SYNTAX = {configparser.MissingSectionHeaderError: "key before the [plan] header",
           configparser.DuplicateOptionError: "key given twice",
           configparser.DuplicateSectionError: "section given twice"}


def _err(msg: str) -> None:
    print(f"spinlets: {msg}", file=sys.stderr)


def _check_outputs(force: bool, *paths) -> None:
    """Refuse a run before its first write if an output exists (None: stdout)."""
    existing = [p for p in paths if p is not None and Path(p).exists()]
    if existing and not force:
        raise InvalidConfigError(
            f"output {existing[0]} exists; pass --force to overwrite")


def _check_spectrum(args) -> None:
    """Refuse the spectrum flags a plan refuses: a non-finite --alpha,
    --gamma or --noise-level, or a negative --noise-level."""
    for flag in ("alpha", "gamma", "noise_level"):
        value = getattr(args, flag)
        if not math.isfinite(value):
            raise InvalidConfigError(
                f"{flag.replace('_', '-')}: {value} is not a finite number")
    if args.noise_level < 0:
        raise InvalidConfigError("noise-level: must be >= 0")


def _parse_levels(text: str, B: float, name: str = "levels") -> tuple:
    """`lo..hi` or `a,b,c`, each level within the pixel cap of its grid at
    B; a range is bounded before it is expanded: its bottom by 0 and its top
    by the cap.  Errors name the key or flag `name`."""
    text = text.strip()
    parts = text.split("..", 1) if ".." in text else \
        [t for t in text.split(",") if t.strip()]
    ends = []
    for t in parts:
        try:
            ends.append(int(t))
        except ValueError:
            raise InvalidConfigError(
                f"{name}: level {t.strip()!r} in {text!r} is not an integer") from None
    if ".." in text:
        lo, hi = ends
        if lo < 0:
            raise InvalidConfigError(f"{name}: needs levels j >= 0")
        if hi < lo:
            raise InvalidConfigError(f"{name}: range {text!r} is empty")
        levels, checked = range(lo, hi + 1), (hi,)
    else:
        levels = checked = tuple(ends)
    if not levels:
        raise InvalidConfigError(f"{name}: no levels given")
    try:
        for j in checked:
            grid_size(j, B)
    except ResourceLimitError as exc:
        raise InvalidConfigError(f"{name}: {exc}") from None
    return tuple(levels)


def plan_from_config(path) -> mc.ExperimentPlan:
    """Parse an ExperimentPlan from a [plan] section of flat key=value text."""
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"),
                                       interpolation=None)
    parser.optionxform = str  # plan keys are case-sensitive (B vs b)
    try:
        parser.read_string(Path(path).read_text(encoding="utf-8"), str(path))
    except OSError as exc:
        raise InvalidConfigError(f"config: cannot read {path}") from exc
    except UnicodeDecodeError as exc:
        raise InvalidConfigError(
            f"config {path}: byte {exc.start} is not UTF-8") from None
    except configparser.Error as exc:  # no [plan] header, a key given twice
        lineno = getattr(exc, "lineno", None) or exc.errors[0][0]
        raise InvalidConfigError(f"config {path}:{lineno}: "
                                 f"{_SYNTAX.get(type(exc), 'not key = value')}") from None
    if "plan" not in parser:
        raise InvalidConfigError(f"config {path}: missing [plan] section")
    section = parser["plan"]
    unknown = set(section) - set(_PLAN_TYPES)
    if unknown:
        raise InvalidConfigError(
            f"config {path}: unknown keys {sorted(unknown)}")
    values = {}
    for key in sorted(section, key=lambda k: k != "B"):  # levels are checked at B
        values[key] = _parse_value(path, key, section[key],
                                   values.get("B", mc.ExperimentPlan.B))
    plan = mc.ExperimentPlan(**values)
    plan.validate()
    return plan


def _parse_value(path, key: str, text: str, B: float):
    """A config value parsed as the declared type of its plan field."""
    hint, raw = _PLAN_TYPES[key], text.strip()
    try:
        if hint == tuple[int, ...]:
            return _parse_levels(raw, B, key)
        if hint == tuple[str, ...]:
            return tuple(t.strip() for t in raw.split(",") if t.strip())
        return hint(raw)
    except InvalidConfigError as exc:  # a level list names its key itself
        raise InvalidConfigError(f"config {path}: {exc}") from None
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
        out.write(f"{key} = {value}\n")
    return out.getvalue()


def cmd_simulate(args) -> int:
    _check_spectrum(args)
    if args.channels < 0 or args.channels == 1:
        raise InvalidConfigError("channels: must be 0 or >= 2")
    out = Path(args.out)
    noise_paths = [out.with_name(f"{out.stem}.noise{r}{out.suffix}")
                   for r in range(args.channels)]
    _check_outputs(args.force, out, *noise_paths)
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
        for r, noise_path in enumerate(noise_paths):
            write_alm(noise_path, chans.noise[r])
            _err(f"wrote noise channel {r}: {noise_path} "
                 f"(seed key={seed_key((args.seed, 1)) + (r,)})")
    return 0


def cmd_transform(args) -> int:
    if args.mask is not None and args.bandwidth is not None:
        raise InvalidConfigError(f"bandwidth: mask {args.mask} names its level "
                                 f"and B; drop --bandwidth")
    alm = read_alm(args.alm)
    if args.mask is not None:
        mask = read_mask(args.mask)
        grids = [mask.grid]
    else:  # every level's grid, and so the pixel cap, before the first file
        mask = None
        B = 2.0 if args.bandwidth is None else args.bandwidth
        grids = [build_cubature(j, B) for j in _parse_levels(args.levels, B)]
    for grid in grids:  # every level resolvable exactly, before the first file
        support = _support_or_raise(grid, alm.s)
        top = support.stop - 1 if len(support) else -1
        # and the level's largest table within the cap: the whole field is
        # synthesized on a mask's grid, and a roundtrip reads up to the top
        if mask is not None:
            _check_table_size(grid, alm.s, max(alm.L, top))
        else:
            _check_table_size(grid, alm.s, top if args.roundtrip
                              else min(alm.L, top))
    out_dir = Path(args.out_dir)
    paths = [out_dir / f"level{grid.j:02d}.snbc" for grid in grids]
    _check_outputs(args.force, *paths)
    out_dir.mkdir(parents=True, exist_ok=True)
    written = []
    for grid, path in zip(grids, paths):
        if mask is not None:
            pix = synthesize_on_grid(alm.full_coeffs(), grid, alm.s)
            coeffs = masked_analyze(pix, mask, alm.s)
        else:
            coeffs = needlet_analyze(alm, grid)
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
    _check_spectrum(args)
    _check_outputs(args.force, args.out, args.csv)
    if args.demo:
        plan = plan_from_config(DEMO_CONFIG)
        reports = [rep for _, _, rep in mc.replicate_reports(plan, 0)]
        _write_reports(reports, args.out, args.csv)
        return 0
    kinds = [kind.strip() for kind in args.kind.split(",") if kind.strip()]
    if not kinds:
        raise InvalidConfigError(f"kind: {args.kind!r} names no estimator kind")
    if not args.coeffs:
        raise InvalidConfigError("coeffs: need at least one SNBC file (or --demo)")
    coeff_list = [read_coefficients(path) for path in args.coeffs]
    first = coeff_list[0]
    inputs = {"masked": first, "gapfree": first, "channels": coeff_list,
              "signal": power_law(args.alpha, l_min=max(1, abs(first.s)))}
    needs = estimators.inputs_read(kinds)
    if "mask" in needs:
        if args.mask is None and first.masked:
            raise InvalidConfigError(f"coeffs {args.coeffs[0]} were computed "
                                     f"with a mask; pass it as --mask")
        mask = empty_mask(first.grid, epsilon=args.epsilon) \
            if args.mask is None else read_mask(args.mask, epsilon=args.epsilon)
        if mask.grid != first.grid:
            raise InvalidConfigError(
                f"mask {args.mask} is for level j={mask.grid.j} at "
                f"B={mask.grid.B:g}, coeffs {args.coeffs[0]} for level "
                f"j={first.grid.j} at B={first.grid.B:g}")
        inputs["mask"] = mask
    if "regions" in needs:
        inputs["regions"] = hemispheres(first.grid, epsilon=args.epsilon)
    if "noise" in needs:
        inputs["noise"] = [power_law(args.gamma, l_min=max(1, abs(first.s)),
                                     kind="noise", amplitude=args.noise_level)
                           for _ in coeff_list]
    reports = [estimators.estimate(kind, inputs) for kind in kinds]
    _write_reports(reports, args.out, args.csv)
    return 0


def _write_reports(reports, out_path, csv_path) -> None:
    text = json.dumps([r.to_dict() for r in reports], indent=2, sort_keys=True)
    if out_path:
        Path(out_path).write_text(text + "\n")
        _err(f"wrote {out_path}")
    else:
        print(text)
    if csv_path:
        lines = ["j,s,kind,paper_kind,value,target,variance,standardized"]
        for r in reports:
            d = r.to_dict()
            lines.append(f"{d['j']},{d['s']},{d['kind']},{d['paper_kind']},"
                         f"{d['value']!r},{d['theoretical_target']!r},"
                         f"{d['variance_estimate']!r},{d['standardized']!r}")
        Path(csv_path).write_text("\n".join(lines) + "\n")
        _err(f"wrote {csv_path}")


def cmd_mc(args) -> int:
    plan = plan_from_config(args.config)
    overrides = {"replicates": args.replicates, "base_seed": args.seed}
    plan = replace(plan, **{k: v for k, v in overrides.items() if v is not None})
    plan.validate()
    out_dir = Path(args.out_dir)
    raw_path, diag_path, cfg_path = (out_dir / name for name in
                                     ("raw.csv", "diagnostics.json", "plan.cfg"))
    _check_outputs(args.force, raw_path, diag_path, cfg_path)
    report, rows = mc.run_experiment(plan, threads=args.threads)
    out_dir.mkdir(parents=True, exist_ok=True)  # only once there is a table
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
        assert abs(np.sum(sl ** 2) - 1.0) < 1e-12

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
        half = power_law(3.0, l_min=max(1, s)).scaled(0.5)
        alm = draw_alm(half, half, s, L, 42)
        alm.alm_e[s, :] = 0.0
        alm.alm_b[s, :] = 0.0
        levels = [needlet_analyze(alm, build_cubature(j, B)) for j in range(0, 5)]
        recon = needlet_synthesize(levels, L=L)
        assert np.max(np.abs(recon.alm_e - alm.alm_e)) < 1e-8
        assert np.max(np.abs(recon.alm_b - alm.alm_b)) < 1e-8

    check("wigner-recursion", _wigner)
    check("addition-theorem", _addition)
    check("window-partition", _window)
    check("grid-weights", _grid)
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
    p.add_argument("--bandwidth", type=float, default=None,
                   help="B of the --levels grids (default 2)")
    level = p.add_mutually_exclusive_group(required=True)
    level.add_argument("--levels", help="e.g. 2..6 or 2,3,4")
    level.add_argument("--mask", help="mask file; its header names the level and B")
    p.add_argument("--roundtrip", action="store_true")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--force", action="store_true")
    p.set_defaults(func=cmd_transform)

    p = sub.add_parser("estimate", help="run estimators over coefficient files")
    p.add_argument("--kind", default="masked",
                   help="comma list of " + ",".join(estimators.KNOWN_KINDS))
    p.add_argument("--coeffs", nargs="*", default=[],
                   help="SNBC files (one per channel for ap/cp/hausman)")
    p.add_argument("--alpha", type=float, default=3.0)
    p.add_argument("--gamma", type=float, default=2.5)
    p.add_argument("--noise-level", type=float, default=1.0)
    p.add_argument("--mask", default=None,
                   help="required with coefficients computed with a mask")
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
