"""Command-line front end for the study harness.

Subcommands: control-rates, oracle-check, compare-refinement, truncation.
Each flag's default is stated once, in `build_parser`, except the cell targets,
which depend on --n.  A key=value config file (--config), keyed by flag name,
replaces the defaults: explicit flags win over the file, which wins over the
defaults.  An unknown or repeated key is refused.
"""

from __future__ import annotations

import argparse
import logging
import os
import sys
from typing import Dict, Optional, Sequence, Tuple

from .control import SCHEMES
from .spectral import DIMENSIONS, ConfigurationError
from .study import (
    StudyConfig,
    emit_report,
    run_compare_refinement,
    run_oracle_check,
    run_rate_study,
    run_truncation_study,
)

_COMMANDS = ("control-rates", "oracle-check", "compare-refinement", "truncation")


def _parse_floats(text: str) -> tuple:
    return tuple(float(tok) for tok in text.replace(" ", "").split(",") if tok)


def _parse_ints(text: str) -> tuple:
    return tuple(int(tok) for tok in text.replace(" ", "").split(",") if tok)


def read_config_file(path: str) -> Dict[str, str]:
    """Parse a simple key=value file; '#' starts a comment.  A key may appear once."""
    out: Dict[str, str] = {}
    seen: Dict[str, int] = {}  # line of each key
    try:
        with open(path) as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise ConfigurationError(f"cannot read config file {path!r}: {exc.strerror}") from exc
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigurationError(f"{path}:{lineno}: expected key=value, "
                                     f"got {raw.rstrip()!r}")
        key, value = line.split("=", 1)
        key = key.strip().replace("-", "_")
        if key in seen:
            raise ConfigurationError(f"{path}:{lineno}: key {key!r} repeats line {seen[key]}")
        seen[key], out[key] = lineno, value.strip()
    return out


def build_parser() -> Tuple[argparse.ArgumentParser, Dict[str, argparse.ArgumentParser]]:
    """The parser and its subparsers by command name."""
    parser = argparse.ArgumentParser(
        prog="fracopt",
        description="Convergence and comparison studies for the fractional control solver",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {}
    for name in _COMMANDS:
        p = commands[name] = sub.add_parser(name)
        p.add_argument("--s", type=_parse_floats,
                       default="0.05" if name == "compare-refinement" else "0.5",
                       help="comma-separated fractional orders")
        p.add_argument("--n", type=int, default=2, choices=DIMENSIONS)
        p.add_argument("--dofs", type=_parse_ints, default=None,
                       help="comma-separated cell targets (default set by --n)")
        p.add_argument("--gamma", type=float, default=None,
                       help="grading exponent (default 3/(2s)+0.1; 1 = uniform mesh)")
        p.add_argument("--truncation-Y", type=_parse_floats,
                       default="1,2,3,4,5" if name == "truncation" else None,
                       help="height override (comma list = heights of the truncation study)")
        p.add_argument("--tol", type=float, default=1e-8, help="optimizer fixed-point tolerance")
        p.add_argument("--out", default=f"fracopt_{name.replace('-', '_')}",
                       help="output prefix for .csv/.json")
        p.add_argument("--scheme", default="fully_discrete", choices=SCHEMES)
        p.add_argument("--config", help="key=value config file")
        p.add_argument("--verbose", action="store_true", help="debug log to stderr")
    return parser, commands


def _default_dofs(command: str, n: int) -> tuple:
    if command == "truncation":
        return (8000,) if n == 2 else (4096,)
    return (3_000, 10_000, 25_000, 50_000) if n == 2 else (256, 1024, 4096, 16384)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser, commands = build_parser()
    args = parser.parse_args(argv)
    if args.verbose:
        logging.basicConfig(format="%(name)s: %(message)s")
        logging.getLogger("fracopt").setLevel(logging.DEBUG)

    try:  # invalid input is reported in one line, with argparse's exit status 2
        if args.config:  # the file's values become the command's defaults
            file_cfg = read_config_file(args.config)
            settable = vars(args).keys() - {"command", "config", "verbose"}
            unknown = sorted(file_cfg.keys() - settable)
            if unknown:
                raise ConfigurationError(f"{args.config}: unknown key {', '.join(unknown)}")
            commands[args.command].set_defaults(**file_cfg)
            args = parser.parse_args(argv)
        Y = args.truncation_Y if args.command != "truncation" else None  # a sweep's one height
        if Y and len(Y) > 1:
            raise ConfigurationError(f"{args.command} runs at one height, got {len(Y)} in "
                                     f"--truncation-Y")
        # refused before the study runs; "d/." resolves only where d is a directory
        if not os.access(os.path.join(os.path.dirname(args.out), "."), os.W_OK):
            raise ConfigurationError(f"--out {args.out}: its directory is missing or read-only")
        cfg = StudyConfig(s_values=args.s, n=args.n, gamma=args.gamma, tol=args.tol,
                          dof_targets=args.dofs or _default_dofs(args.command, args.n),
                          truncation_Y=Y[0] if Y else None, scheme=args.scheme)
        if args.command == "control-rates":
            records = run_rate_study(cfg)
        elif args.command == "oracle-check":
            records = run_oracle_check(cfg)
        elif args.command == "compare-refinement":
            records = [run_compare_refinement(cfg)]
        else:
            records = [run_truncation_study(cfg, args.truncation_Y)]
    except ConfigurationError as exc:
        parser.exit(2, f"{parser.prog}: error: {exc}\n")

    csv_path, json_path = emit_report(records, args.out, cfg)

    all_ok = True
    for rec in records:
        slope_txt = ", ".join(f"{k}: {v:+.3f}" for k, v in rec.slopes.items())
        print(f"[{rec.study}] s={rec.s} mode={rec.mode} scheme={rec.scheme} {slope_txt}")
        for key, value in rec.extras.items():
            if isinstance(value, float):
                print(f"    {key} = {value:.6g}")
            elif isinstance(value, (int, str)) and not isinstance(value, bool):
                print(f"    {key} = {value}")  # a target or row count, or why a check was not made
        for name, ok in rec.checks.items():
            print(f"    {name}: {'PASS' if ok else 'FAIL'}")
            all_ok &= ok
    print(f"wrote {csv_path} and {json_path}")
    return 0 if all_ok else 2


if __name__ == "__main__":
    sys.exit(main())
