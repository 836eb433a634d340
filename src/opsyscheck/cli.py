"""Command-line interface.

Commands:

* ``verify {lemma|maps|swapbc|ks}``: agreement and invariant checks
* ``norm --map {phi|upsilon|upsilon-prime|gamma}``: norm estimation
* ``certify --which {phi|upsilon|gamma}``: extension certificates
* ``suite``: everything at the default size set

Block sizes are given as ``--n 4``, ``--n 2..8`` or ``--n 1,2,4``.  Seeds
come from ``--seed`` or, when the flag is absent, the ``OPSYS_SEED``
environment variable.  Exit status: 0 all claims passed, 1 some claim
failed, 2 unusable configuration.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from .report import Report, render_text, report_to_csv, report_to_json
from .suite import DEFAULT_N, MAX_N, MIN_N, NORM_DEFAULT_N, ConfigError, RunConfig, run, targets


def parse_n_values(text: str) -> tuple[int, ...]:
    """Parse "4", "2..8" or "1,2,4" into a tuple of sizes."""
    values: list[int] = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            raise ConfigError(f"empty size in {text!r}")
        if ".." in part:
            lo_s, _, hi_s = part.partition("..")
            try:
                lo, hi = int(lo_s), int(hi_s)
            except ValueError as exc:
                raise ConfigError(f"bad size range {part!r}") from exc
            if hi < lo:
                raise ConfigError(f"descending size range {part!r}")
            # bounds first: a wide range would fill memory before RunConfig sees it
            if lo < MIN_N or hi > MAX_N:
                raise ConfigError(f"size range {part!r} leaves [{MIN_N}, {MAX_N}]")
            values.extend(range(lo, hi + 1))
        else:
            try:
                values.append(int(part))
            except ValueError as exc:
                raise ConfigError(f"bad size {part!r}") from exc
    return tuple(values)


def _add_shared(p: argparse.ArgumentParser) -> None:
    p.add_argument("--n", help="block sizes, e.g. 4, 2..8 or 1,2,4")
    p.add_argument("--field", choices=["real", "complex", "both"], default=RunConfig.field)
    p.add_argument("--trials", type=int, default=RunConfig.trials)
    p.add_argument("--restarts", type=int, default=RunConfig.restarts)
    p.add_argument("--seed", type=int, default=None, help="overrides OPSYS_SEED")
    p.add_argument("--output", choices=["text", "json", "csv"], default="text")
    p.add_argument("--output-path", default=None)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="opsyscheck",
        description="numerical checks for block-transpose maps on structured matrix subspaces",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="agreement and invariant checks")
    p_verify.add_argument("target", choices=targets("verify"))
    _add_shared(p_verify)

    p_norm = sub.add_parser("norm", help="norm estimation for one map")
    p_norm.add_argument("--map", dest="target", required=True, choices=targets("norm"))
    _add_shared(p_norm)

    p_cert = sub.add_parser("certify", help="extension certificates")
    p_cert.add_argument("--which", dest="target", required=True, choices=targets("certify"))
    _add_shared(p_cert)

    p_suite = sub.add_parser("suite", help="run everything")
    p_suite.set_defaults(target=None)
    _add_shared(p_suite)

    return parser


def _resolve_seed(args: argparse.Namespace) -> int:
    if args.seed is not None:
        return args.seed
    env = os.environ.get("OPSYS_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError as exc:
            raise ConfigError(f"OPSYS_SEED must be an integer, got {env!r}") from exc
    return 0


def config_from_args(args: argparse.Namespace) -> RunConfig:
    if args.n:
        n_values = parse_n_values(args.n)
    else:
        n_values = NORM_DEFAULT_N[args.target] if args.command == "norm" else DEFAULT_N[args.command]
    return RunConfig(
        command=args.command,
        target=args.target,
        n_values=n_values,
        field=args.field,
        trials=args.trials,
        restarts=args.restarts,
        seed=_resolve_seed(args),
    )


def _emit(report: Report, args: argparse.Namespace) -> None:
    if args.output == "json":
        payload = report_to_json(report) + "\n"
    elif args.output == "csv":
        payload = report_to_csv(report)
    else:
        payload = render_text(report)
    if args.output_path:
        Path(args.output_path).write_text(payload)
    else:
        sys.stdout.write(payload)


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = config_from_args(args)
        report = run(cfg)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    _emit(report, args)
    return 1 if report.failed else 0


if __name__ == "__main__":
    sys.exit(main())
