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
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import estimators, mc
from .errors import (BandLimitExceededError, InvalidConfigError,
                     ResourceLimitError, SpinletsError)
from .fields import (draw_alm, observe_channels, read_alm, seed_key,
                     spin_power_law, write_alm)
from .grid import build_cubature, empty_mask, hemispheres, read_mask
from .transform import (frame_band, level_band, masked_analyze,
                        needlet_analyze, needlet_synthesize, read_coefficients,
                        roundtrip_error, synthesize_on_grid, write_coefficients)
from .wigner import SphPoint, spin_sph_harm, wigner_d, wigner_d_slice
from .window import build_window

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
    unknown = set(section) - set(mc.ExperimentPlan.__dataclass_fields__)
    if unknown:
        raise InvalidConfigError(
            f"config {path}: unknown keys {sorted(unknown)}")
    values = {}
    try:  # every error names the file
        for key, raw in section.items():
            parse, raw = mc.FIELDS[key].parse, raw.strip()
            try:
                values[key] = parse(raw)
            except ValueError:
                raise InvalidConfigError(
                    f"{key} = {raw!r} is not {parse.__name__}") from None
        return mc.ExperimentPlan(**values)
    except InvalidConfigError as exc:
        raise InvalidConfigError(f"config {path}: {exc}") from None


def plan_to_config_text(plan: mc.ExperimentPlan) -> str:
    """Canonical config serialization (idempotent under plan_from_config)."""
    out = io.StringIO()
    out.write("[plan]\n")
    for key, value in vars(plan).items():
        if isinstance(value, tuple):
            value = ",".join(str(v) for v in value)
        out.write(f"{key} = {value}\n")
    return out.getvalue()


def _check_flags(args, reads: set, unread: str, kept=()) -> None:
    """Keep each mc.FIELDS flag of this command but the `kept` ones by its
    rule, and refuse a given one that no input in `reads` reads (`unread`,
    formatted with the flag, ends the error); a missing one reads as its default."""
    for name in (n for n in mc.FIELDS if n in vars(args) and n not in kept):
        field, value = mc.FIELDS[name], getattr(args, name)
        flag = name.replace("_", "-")
        setattr(args, name, field.check(field.default if value is None
                                        else value, flag))
        if value is not None and field.readers and not field.readers & reads:
            raise InvalidConfigError(f"{flag}: " + unread.format(flag=flag))


def cmd_simulate(args) -> int:
    _check_flags(args, {"noise"} if args.channels else set(),
                 "--{flag} sets the noise channels; pass --channels or drop it")
    out = Path(args.out)
    noise_paths = [out.with_name(f"{out.stem}.noise{r}{out.suffix}")
                   for r in range(args.channels)]
    _check_outputs(args.force, out, *noise_paths)
    half = spin_power_law(args.alpha, args.spin).scaled(0.5)
    signal = draw_alm(half, half, args.spin, args.lmax, (args.seed, 0))
    write_alm(out, signal)
    _err(f"wrote signal {out} (spin={args.spin}, L={args.lmax}, "
         f"seed key={seed_key((args.seed, 0))})")
    if args.channels:
        noise = spin_power_law(args.gamma, args.spin, "noise", args.noise_level)
        chans = observe_channels(signal, [noise] * args.channels, (args.seed, 1))
        for r, noise_path in enumerate(noise_paths):
            write_alm(noise_path, chans.noise[r])
            _err(f"wrote noise channel {r}: {noise_path} "
                 f"(seed key={seed_key((args.seed, 1)) + (r,)})")
    return 0


def cmd_transform(args) -> int:
    if args.mask is not None and args.bandwidth is not None:
        raise InvalidConfigError(f"bandwidth: mask {args.mask} names its level "
                                 f"and B; drop --bandwidth")
    if args.mask is not None and args.roundtrip:
        raise InvalidConfigError("roundtrip: masked coefficients are one level "
                                 "of the gap-filled field, not a frame of the "
                                 "field; drop --roundtrip")
    if args.mask is None:  # B, the levels rule and the pixel cap before any read
        B = mc.FIELDS["B"].check(2.0 if args.bandwidth is None
                                 else args.bandwidth, "bandwidth")
        grids = [build_cubature(j, B)
                 for j in mc.FIELDS["j_list"].check(args.levels, "levels", B)]
    alm = read_alm(args.alm)
    mask = None if args.mask is None else read_mask(args.mask)
    if mask is not None:
        grids = [mask.grid]
    source = "levels" if mask is None else f"mask {args.mask}"
    try:  # what each analysis reads; a gap-filled map has no band limit
        for grid in grids:
            level_band(grid, alm.s, alm.L if mask is None else None)
    except (BandLimitExceededError, ResourceLimitError) as exc:
        raise InvalidConfigError(f"{source}: {exc}") from None
    if args.roundtrip:  # its degree, and its coverage, before any transform
        L_rt = frame_band(grids, alm.s, alm.L)
    out_dir = Path(args.out_dir)
    paths = [out_dir / f"level{grid.j:02d}.snbc" for grid in grids]
    _check_outputs(args.force, *paths)
    if mask is not None:  # every transform, and the roundtrip, before any file
        try:  # the whole field, at its own L, on the mask's grid
            pix = synthesize_on_grid(alm.full_coeffs(), mask.grid, alm.s)
        except (BandLimitExceededError, ResourceLimitError) as exc:
            raise InvalidConfigError(f"{source}: {exc}") from None
        levels = [masked_analyze(pix, mask, alm.s)]
    else:  # largest table first, so each smaller one builds in its pages
        analyzed = {grid: needlet_analyze(alm, grid)
                    for grid in sorted(grids, key=lambda g: g.j, reverse=True)}
        levels = [analyzed[grid] for grid in grids]
    if args.roundtrip:
        error = roundtrip_error(alm, needlet_synthesize(levels, L_rt))
    out_dir.mkdir(parents=True, exist_ok=True)
    for path, coeffs in zip(paths, levels):
        write_coefficients(path, coeffs)
        _err(f"wrote {path} ({coeffs.values.size} coefficients, "
             f"masked={coeffs.masked})")
    if args.roundtrip:
        _err(f"roundtrip max alm error over covered degrees: {error:.3e}")
    return 0


def cmd_estimate(args) -> int:
    _check_outputs(args.force, args.out, args.csv)
    if args.demo:
        for name in mc.FIELDS:
            if getattr(args, name, None) is not None:
                flag = name.replace("_", "-")
                raise InvalidConfigError(f"{flag}: --demo reports the bundled "
                                         f"plan; drop --{flag}")
        ctx = mc._PlanContext(plan_from_config(DEMO_CONFIG))
        _write_reports([rep for _, _, rep in ctx.reports(0)], args.out, args.csv)
        return 0
    text = mc.FIELDS["kind"].default if args.kind is None else args.kind
    kinds = mc.FIELDS["kind"].check(text, "kind")
    needs = estimators.inputs_read(kinds)
    _check_flags(args, needs, f"no kind in {text!r} reads --{{flag}}; drop it",
                 kept={"kind"})
    if len(args.coeffs) > 1 and "channels" not in needs:
        raise InvalidConfigError(f"coeffs: no kind in {text!r} reads more than "
                                 f"one file; drop {args.coeffs[1]}")
    coeff_list = [read_coefficients(path) for path in args.coeffs]
    for kind in kinds:
        estimators.check_masked_flags(kind, coeff_list,
                                      [f"coeffs {path}" for path in args.coeffs])
    first = coeff_list[0]
    inputs = {"masked": first, "gapfree": first, "channels": coeff_list,
              "signal": spin_power_law(args.alpha, first.s)}
    if "mask" in needs:
        if args.mask is None and first.masked:
            raise InvalidConfigError(f"coeffs {args.coeffs[0]} were computed "
                                     f"with a mask; pass it as --mask")
        mask = empty_mask(first.grid, epsilon=args.epsilon) \
            if args.mask is None else read_mask(args.mask, epsilon=args.epsilon)
        if mask.grid != first.grid:
            raise InvalidConfigError(
                f"mask {args.mask} is for level j={mask.grid.j} at "
                f"B={mask.grid.B!r}, coeffs {args.coeffs[0]} for level "
                f"j={first.grid.j} at B={first.grid.B!r}")
        inputs["mask"] = mask
    if "regions" in needs:
        inputs["regions"] = hemispheres(first.grid, epsilon=args.epsilon)
    if "noise" in needs:
        inputs["noise"] = [spin_power_law(args.gamma, first.s, "noise",
                                          args.noise_level)] * len(coeff_list)
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


def _frame_roundtrip_error() -> float:
    half = spin_power_law(3.0, 2).scaled(0.5)
    alm = draw_alm(half, half, 2, 14, 42)
    levels = [needlet_analyze(alm, build_cubature(j, 2.0)) for j in range(5)]
    return roundtrip_error(alm, needlet_synthesize(levels, L=alm.L))


# the fast invariant checks of `spinlets selftest`: (name, error, tolerance);
# a check passes when its error is below its tolerance
SELFTEST = (
    ("wigner-recursion", lambda: max(
        abs(wigner_d(1, 0, 0, math.pi / 3) - 0.5),
        abs(np.sum(wigner_d_slice(128, 2, 1.1) ** 2) - 1.0)), 1e-12),
    ("addition-theorem", lambda: max(
        abs(sum(abs(spin_sph_harm(16, m, s, SphPoint(1.1, 0.3))) ** 2
                for m in range(-16, 17)) - 33 / (4 * math.pi)) for s in (0, 2)), 1e-10),
    ("window-partition", lambda: abs(sum(map(build_window(2.0).b_squared,
                                             (7.3 / 2.0 ** j for j in range(12))))
                                     - 1.0), 1e-12),
    ("grid-weights", lambda: abs(build_cubature(3, 2.0).weights.sum() - 4 * math.pi),
     1e-10),
    ("frame-roundtrip", _frame_roundtrip_error, 1e-8),
)


def cmd_selftest(args) -> int:
    """Run SELFTEST; prints one line per check."""
    failures = []
    for name, error, tol in SELFTEST:
        try:
            err = float(error())
            passed = err < tol
            detail = f"error {err:.3e} {'<' if passed else '>='} {tol:g}"
        except Exception as exc:
            passed, detail = False, str(exc)
        if not passed:
            failures.append(name)
        _err(f"selftest {'PASS' if passed else 'FAIL'} {name}: {detail}")
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
    for name in ("spin", "lmax", "alpha", "gamma", "noise_level", "channels",
                 "seed"):  # --gamma and --noise-level set the noise channels
        field = mc.FIELDS[name]
        p.add_argument("--" + name.replace("_", "-"), type=field.parse,
                       required=field.default is None,
                       default=None if field.readers else field.default,
                       help=f"default {field.default}; needs --channels"
                       if field.readers else None)
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
    p.add_argument("--kind", default=None,
                   help="comma list of " + ",".join(estimators.KNOWN_KINDS)
                        + f" (default {mc.FIELDS['kind'].default})")
    p.add_argument("--coeffs", nargs="*", default=None,
                   help="SNBC files (one per channel for ap/cp/hausman)")
    for name in ("alpha", "gamma", "noise_level", "epsilon"):
        field = mc.FIELDS[name]
        p.add_argument("--" + name.replace("_", "-"), type=field.parse, default=None,
                       help=f"default {field.default}; not with --demo")
    p.add_argument("--mask", default=None,
                   help="required with coefficients computed with a mask")
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


def _attach_dash_values(argv) -> list:
    """argv with `--levels -1,2` as `--levels=-1,2`, and so for --kind:
    argparse would take a value that starts with one '-' for an option."""
    out = []
    for arg in argv:
        if out[-1:] in (["--levels"], ["--kind"]) and arg.startswith("-") \
                and not arg.startswith("--"):
            out[-1] += "=" + arg
        else:
            out.append(arg)
    return out


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(_attach_dash_values(
        sys.argv[1:] if argv is None else argv))
    try:
        return args.func(args)
    except (SpinletsError, OSError, ValueError) as exc:
        _err(f"error: {exc}")
        return 1


if __name__ == "__main__":
    sys.exit(main())
