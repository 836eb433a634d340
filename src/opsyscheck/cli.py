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
from .suite import (
    CERTIFY_TARGETS,
    ConfigError,
    NORM_DEFAULT_N,
    RunConfig,
    SUITE_DEFAULT_N,
    VERIFY_TARGETS,
    run,
)


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
            values.extend(range(lo, hi + 1))
        else:
            try:
                values.append(int(part))
            except ValueError as exc:
                raise ConfigError(f"bad size {part!r}") from exc
    return tuple(values)


def _add_shared(p: argparse.ArgumentParser) -> None:
    p.add_argument("--n", help="block sizes, e.g. 4, 2..8 or 1,2,4")
    p.add_argument("--field", choices=["real", "complex", "both"], default="both")
    p.add_argument("--trials", type=int, default=500)
    p.add_argument("--restarts", type=int, default=50)
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
    p_verify.add_argument("target", choices=list(VERIFY_TARGETS))
    _add_shared(p_verify)

    p_norm = sub.add_parser("norm", help="norm estimation for one map")
    p_norm.add_argument("--map", dest="map_token", required=True, choices=sorted(NORM_DEFAULT_N))
    _add_shared(p_norm)

    p_cert = sub.add_parser("certify", help="extension certificates")
    p_cert.add_argument("--which", required=True, choices=list(CERTIFY_TARGETS))
    _add_shared(p_cert)

    p_suite = sub.add_parser("suite", help="run everything")
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
    command = args.command
    if command == "verify":
        target = args.target
        default_n = (1, 2, 3, 4)
    elif command == "norm":
        target = args.map_token
        default_n = NORM_DEFAULT_N[target]
    elif command == "certify":
        target = args.which
        default_n = (2,)
    else:
        target = None
        default_n = SUITE_DEFAULT_N
    n_values = parse_n_values(args.n) if args.n else tuple(default_n)
    return RunConfig(
        command=command,
        target=target,
        n_values=n_values,
        field=args.field,
        trials=args.trials,
        restarts=args.restarts,
        seed=_resolve_seed(args),
        output=args.output,
        output_path=args.output_path,
    )


def _emit(report: Report, cfg: RunConfig) -> None:
    if cfg.output == "json":
        payload = report_to_json(report) + "\n"
    elif cfg.output == "csv":
        payload = report_to_csv(report)
    else:
        payload = render_text(report)
    if cfg.output_path:
        Path(cfg.output_path).write_text(payload)
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
    _emit(report, cfg)
    return 1 if report.failed else 0


if __name__ == "__main__":
    sys.exit(main())
