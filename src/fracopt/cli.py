"""Command-line front end for the study harness.

Subcommands: state-rates, control-rates, compare-refinement, truncation,
oracle-check.  Flags may also be supplied through a key=value config file
(--config); explicit flags win over the file, which wins over defaults.
"""

from __future__ import annotations

import argparse
import logging
import sys
from typing import Dict, Optional, Sequence

from .spectral import ConfigurationError
from .study import (
    StudyConfig,
    emit_report,
    run_compare_refinement,
    run_oracle_check,
    run_rate_study,
    run_truncation_study,
)

_COMMANDS = ("state-rates", "control-rates", "compare-refinement", "truncation", "oracle-check")


def _parse_floats(text: str) -> tuple:
    return tuple(float(tok) for tok in text.replace(" ", "").split(",") if tok)


def _parse_ints(text: str) -> tuple:
    return tuple(int(tok) for tok in text.replace(" ", "").split(",") if tok)


def read_config_file(path: str) -> Dict[str, str]:
    """Parse a simple key=value file; '#' starts a comment."""
    out: Dict[str, str] = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key=value, got {raw.rstrip()!r}")
            key, value = line.split("=", 1)
            out[key.strip().replace("-", "_")] = value.strip()
    return out


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fracopt",
        description="Convergence and comparison studies for the fractional control solver",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--s", type=str, default=None, help="comma-separated fractional orders")
        p.add_argument("--n", type=int, default=None, choices=(1, 2))
        p.add_argument("--dofs", type=str, default=None, help="comma-separated cell targets")
        p.add_argument("--gamma", type=float, default=None, help="grading exponent override")
        p.add_argument("--truncation-Y", type=str, default=None,
                       help="height override (comma list = heights of the truncation study)")
        p.add_argument("--mode", type=str, default=None, choices=("uniform", "anisotropic"))
        p.add_argument("--tol", type=float, default=None, help="optimizer fixed-point tolerance")
        p.add_argument("--seed", type=int, default=None, help="seed for the VI sampling check")
        p.add_argument("--out", type=str, default=None, help="output prefix for .csv/.json")
        p.add_argument("--scheme", type=str, default=None,
                       choices=("fully_discrete", "variational"))
        p.add_argument("--config", type=str, default=None, help="key=value config file")
        p.add_argument("--verbose", action="store_true", help="debug log to stderr")
    return parser


def _pick(cli_value, file_cfg: Dict[str, str], key: str, conv, default):
    if cli_value is not None:
        return cli_value
    if key in file_cfg:
        return conv(file_cfg[key])
    return default


def _default_dofs(command: str, n: int) -> tuple:
    if command == "truncation":
        return (8000,) if n == 2 else (4096,)
    return (3_000, 10_000, 25_000, 50_000) if n == 2 else (256, 1024, 4096, 16384)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    file_cfg = read_config_file(args.config) if args.config else {}
    if args.verbose:
        logging.basicConfig(format="%(name)s: %(message)s")
        logging.getLogger("fracopt").setLevel(logging.DEBUG)

    n = _pick(args.n, file_cfg, "n", int, 2)
    default_s = (0.05,) if args.command == "compare-refinement" else (0.5,)
    s_values = _pick(_parse_floats(args.s) if args.s else None, file_cfg, "s",
                     _parse_floats, default_s)
    dofs = _pick(_parse_ints(args.dofs) if args.dofs else None, file_cfg, "dofs",
                 _parse_ints, _default_dofs(args.command, n))
    trunc = _pick(_parse_floats(args.truncation_Y) if args.truncation_Y else None,
                  file_cfg, "truncation_Y", _parse_floats, None)
    mode = _pick(args.mode, file_cfg, "mode", str, "anisotropic")
    tol = _pick(args.tol, file_cfg, "tol", float, 1e-8)
    seed = _pick(args.seed, file_cfg, "seed", int, 0)
    scheme = _pick(args.scheme, file_cfg, "scheme", str, "fully_discrete")
    gamma = _pick(args.gamma, file_cfg, "gamma", float, None)
    out = _pick(args.out, file_cfg, "out", str, f"fracopt_{args.command.replace('-', '_')}")

    try:  # invalid input is reported in one line, with argparse's exit status 2
        if trunc and len(trunc) > 1 and args.command != "truncation":
            raise ConfigurationError(f"{args.command} runs at one height, got "
                                     f"{len(trunc)} in --truncation-Y")
        cfg = StudyConfig(s_values=tuple(s_values), n=n, mode=mode, dof_targets=tuple(dofs),
                          gamma=gamma, tol=tol, scheme=scheme, seed=seed,
                          truncation_Y=trunc[0] if trunc and args.command != "truncation" else None)
        if args.command in ("state-rates", "control-rates"):
            records = run_rate_study(cfg)
        elif args.command == "oracle-check":
            records = run_oracle_check(cfg)
        elif args.command == "compare-refinement":
            records = [run_compare_refinement(cfg)]
        else:
            Y_default = (1.0, 1.5, 2.0, 2.5, 3.0, 4.0) if n == 2 else (1.0, 2.0, 3.0, 4.0, 5.0)
            records = [run_truncation_study(cfg, trunc if trunc is not None else Y_default)]
    except ConfigurationError as exc:
        parser.exit(2, f"{parser.prog}: error: {exc}\n")

    csv_path, json_path = emit_report(records, out, cfg)

    all_ok = True
    for rec in records:
        slope_txt = ", ".join(f"{k}: {v:+.3f}" for k, v in rec.slopes.items())
        print(f"[{rec.study}] s={rec.s} mode={rec.mode} scheme={rec.scheme} {slope_txt}")
        for key, value in rec.extras.items():
            if isinstance(value, float):
                print(f"    {key} = {value:.6g}")
        for name, ok in rec.checks.items():
            print(f"    {name}: {'PASS' if ok else 'FAIL'}")
            all_ok &= ok
    print(f"wrote {csv_path} and {json_path}")
    return 0 if all_ok else 2


if __name__ == "__main__":
    sys.exit(main())
