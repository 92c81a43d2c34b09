"""Command-line front end.

Subcommands: sweep, pattern, eigen, analyze, presets. Exit codes: 0 on
success, 1 on configuration errors (bad flags, bad config file), 2 on
numeric failures.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from dataclasses import replace

from . import harness, linalg


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on usage errors; the contract here is 1
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="mpbsim",
                     description="Matrix pair beamformer simulation toolkit")
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_Parser)

    def add_common(p):
        p.add_argument("--config", metavar="PATH",
                       help="JSON experiment config")
        p.add_argument("--preset", metavar="NAME",
                       help="built-in scenario (see `mpbsim presets`)")
        p.add_argument("--out", metavar="DIR", default=None,
                       help="output directory (default: config out_dir)")
        p.add_argument("--seed", type=int, metavar="U64", default=None)
        p.add_argument("--symbols", type=int, metavar="K", default=None)
        p.add_argument("--snr-db", metavar="LIST", default=None,
                       help="comma-separated SNR grid in dB")
        p.add_argument("--inr-db", type=float, metavar="X", default=None)
        p.add_argument("--workers", type=int, metavar="N", default=1,
                       help="upper bound on sweep processes (at least 1); "
                            "a sweep always runs in one")

    for name, text in (("sweep", "Monte Carlo G sweep vs theory, CSV output"),
                       ("pattern", "array patterns for both schemes at one SNR"),
                       ("eigen", "gamma/lambda_max curves over the SNR grid"),
                       ("analyze", "thresholds, boundedness and gamma_1 table")):
        add_common(sub.add_parser(name, help=text))
    sub.add_parser("presets", help="list built-in scenario names")
    return parser


# parse_args builds a fresh namespace per call, so one parser serves them all
_PARSER = build_parser()


def _resolve_config(args) -> harness.ExperimentConfig:
    if args.workers < 1:
        raise harness.ConfigError(f"--workers must be >= 1, got {args.workers}")
    if args.config and args.preset:
        raise harness.ConfigError("give either --config or --preset, not both")
    if args.config:
        config = harness.load_config(args.config)
    elif args.preset:
        config = harness.preset(args.preset)
    else:
        raise harness.ConfigError("a --config file or --preset name is required")

    if args.seed is not None:
        config = replace(config, seed=args.seed)
    if args.symbols is not None:
        config = replace(config, symbols=args.symbols)
    if args.inr_db is not None:
        config = replace(config, inr_db=args.inr_db)
    if args.snr_db is not None:
        try:
            grid = tuple(float(tok) for tok in args.snr_db.split(",") if tok)
        except ValueError:
            raise harness.ConfigError(
                f"--snr-db must be a comma-separated float list, "
                f"got {args.snr_db!r}") from None
        config = replace(config, snr_grid_db=grid)
    if args.out is not None:
        config = replace(config, out_dir=args.out)
    return config


def _cmd_sweep(args) -> int:
    config = _resolve_config(args)
    path = os.path.join(config.out_dir, "sweep.csv")
    rows = harness.run_sweep(config, workers=args.workers, out_path=path)
    errors = [r for r in rows if r.region == "Error"]
    for r in errors:
        print(f"sweep point {r.snr_db:g} dB failed: {r.error}", file=sys.stderr)
    print(f"wrote {path} ({len(rows)} points, {len(errors)} errors)")
    return 0


def _cmd_pattern(args) -> int:
    config = _resolve_config(args)
    if len(config.snr_grid_db) != 1:
        raise harness.ConfigError(
            "pattern needs exactly one SNR point; pass --snr-db X")
    path = os.path.join(config.out_dir, "pattern.csv")
    harness.run_pattern(config, config.snr_grid_db[0], out_path=path)
    print(f"wrote {path}")
    return 0


def _cmd_eigen(args) -> int:
    config = _resolve_config(args)
    path = os.path.join(config.out_dir, "eigen.csv")
    result = harness.run_eigencurves(config, out_path=path)
    t0 = result.empirical_snr_t0_db
    t0_text = f"{t0:.3f} dB" if not math.isnan(t0) else "none on grid"
    print(f"wrote {path} (empirical SNR_T0 crossing: {t0_text})")
    return 0


def _cmd_analyze(args) -> int:
    config = _resolve_config(args)
    report = harness.analyze(config)
    path = os.path.join(config.out_dir, "analysis.json")
    harness.write_analysis(report, path)

    th = report["thresholds"]
    print(f"scheme={report['scheme']}  inr_db={report['inr_db']:g}  "
          f"beta={report['beta']:.6g}  gamma1={report['gamma1']:.6g}")
    print(f"thresholds: T0={th['snr_t0_db']:g} dB  T1={th['snr_t1_db']:g} dB  "
          f"T2={th['snr_t2_db']:g} dB  K0={th['k0']:.6g}  "
          f"G_U={th['g_u']:.6g}  G_L={th['g_l']:.6g}")
    print(f"noise-free pair: C_Y0={report['c_y0']:.6g}  "
          f"has_infinite={report['has_infinite']}  "
          f"infinite_count={report['infinite_count']}  "
          f"geometric_bounded={report['geometric_bounded']}")
    for row in report["gamma1_vs_inr"]:
        lb = row["gamma1_lower_bound_plus1"]
        lb_text = f"{lb:.6g}" if lb is not None else "n/a"
        print(f"  INR {row['inr_db']:5.1f} dB: gamma1+1 = "
              f"{row['gamma1_plus1']:.6g}  bound = {lb_text}")
    slope = report["gamma1_inr_loglog_slope"]
    if slope is not None:
        print(f"log-log slope of gamma1+1 vs INR: {slope:.4f}")
    print(f"wrote {path}")
    return 0


def main(argv=None) -> int:
    try:
        args = _PARSER.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else 0

    if args.command == "presets":
        for name in harness.preset_names():
            print(name)
        return 0
    try:
        return {"sweep": _cmd_sweep, "pattern": _cmd_pattern,
                "eigen": _cmd_eigen, "analyze": _cmd_analyze}[args.command](args)
    except harness.ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except (linalg.LinAlgError, ValueError, ArithmeticError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
