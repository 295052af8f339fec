"""Command-line entry point: ``covlss simulate`` and ``covlss verify``.

Config values resolve in increasing precedence: built-in defaults, the
``--desk-scale`` preset, a ``key=value`` config file, then explicit
command-line flags.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path

from .enumeration import EnumerationGuardError
from .harness import (
    ConfigError,
    ExperimentConfig,
    NonFiniteReportError,
    run_experiment,
    run_verification_suite,
)
from .inference import DegenerateCovarianceError
from .population import ConsistencyError

DESK_SCALE = {"reps": 2000, "p": 50, "n": 500}

# config-file key -> caster, one per ExperimentConfig field, from its annotation
_CASTERS = {"int": int, "float": float, "str": str, "bool": bool}
_SIMULATE_KEYS = {
    f.name: _CASTERS[f.type.removesuffix(" | None")] for f in dataclasses.fields(ExperimentConfig)
}


def _parse_bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"expected a boolean, got {text!r}")


def read_config_file(path: str) -> dict:
    """``key=value`` lines; blank lines and ``#`` comments are ignored."""
    values: dict = {}
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in _SIMULATE_KEYS:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        caster = _SIMULATE_KEYS[key]
        try:
            values[key] = _parse_bool(value) if caster is bool else caster(value.strip())
        except ValueError as exc:
            raise ConfigError(f"{path}:{lineno}: bad value for {key}: {exc}") from exc
    return values


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="covlss",
        description="Simulate trace statistics of high-dimensional sample "
        "covariance matrices and verify their moment formulas.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser(
        "simulate",
        help="run replications and write qq.csv / summary.json",
        description="Monte Carlo replication of the whitened (T1, T2) "
        "statistic against its chi-square(2) reference.",
    )
    sim.add_argument("--p", type=int, default=None, help="dimension (required)")
    sim.add_argument("--n", type=int, default=None, help="sample size (required)")
    sim.add_argument("--alpha", type=float, default=None, help="spike growth exponent (default 0)")
    sim.add_argument("--beta", type=float, default=None, help="spike fraction in [0,1] (default 0)")
    sim.add_argument(
        "--dist",
        default=None,
        help="innovation selector: normal | gamma:k:theta | rademacher | twopoint:prob "
        "(default normal)",
    )
    sim.add_argument("--reps", type=int, default=None, help="replications (default 10000)")
    sim.add_argument("--master-seed", type=int, default=None, help="64-bit master seed (default 0)")
    sim.add_argument("--centered", action="store_true", default=None,
                     help="also compute mean-centered statistics")
    sim.add_argument("--max-power", type=int, default=None,
                     help="2..4 (default 2); accepted for config compatibility, "
                     "computes nothing beyond T_2")
    sim.add_argument("--diagonal-only", action="store_true", default=None,
                     help="skip the random orthogonal conjugation")
    sim.add_argument("--output-dir", default=None, help="report directory (default out)")
    sim.add_argument("--format", choices=("csv", "json", "both"), default=None,
                     help="qq table format (default both)")
    sim.add_argument("--grid-size", type=int, default=None, help="Q-Q probability grid points (default 199)")
    sim.add_argument("--workers", type=int, default=None,
                     help="replication kernels in flight at once (default: COVLSS_WORKERS "
                     "or 1), each on one OpenBLAS thread; one more thread draws, all "
                     "in this process")
    sim.add_argument("--config", default=None, help="key=value config file; flags override it")
    sim.add_argument("--desk-scale", action="store_true",
                     help=f"CI preset: {DESK_SCALE}")

    ver = sub.add_parser(
        "verify",
        help="run the exhaustive-enumeration verification suite",
        description="Checks the quadratic-form moment identities and the "
        "exact finite-n moment formulas by exhaustive enumeration.",
    )
    ver.add_argument("--max-dim", type=int, default=3, help="matrix dimension cap, at most 4")
    ver.add_argument("--cases", type=int, default=200, help="randomized cases per identity")
    ver.add_argument("--seed", type=int, default=0, help="seed of the randomized grid")
    ver.add_argument("--output-dir", default="out", help="directory for verify.json")
    return parser


def _resolve_simulate_config(args: argparse.Namespace, parser: argparse.ArgumentParser) -> ExperimentConfig:
    resolved: dict = {}
    if args.desk_scale:
        resolved.update(DESK_SCALE)
    if args.config is not None:
        resolved.update(read_config_file(args.config))
    for key in _SIMULATE_KEYS:
        value = getattr(args, key)
        if value is not None:
            resolved[key] = value
    if "p" not in resolved or "n" not in resolved:
        parser.error("--p and --n are required (directly, via --config, or via a preset)")
    return ExperimentConfig(**resolved)


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "simulate":
            cfg = _resolve_simulate_config(args, parser)
            result = run_experiment(cfg)
            print(f"wrote: {', '.join(result.files)}")
            print(f"ks = {result.qq.ks:.6f} over {result.qq.reps} replications")
            if result.qq_centered is not None:
                print(f"ks (centered) = {result.qq_centered.ks:.6f}")
                print(
                    "note: centered means use E T1^0 = (1 - 1/n) tr(Sigma), the "
                    "divisor-n convention validated by the enumeration suite"
                )
            return 0
        summary = run_verification_suite(
            max_dim=args.max_dim,
            cases=args.cases,
            seed=args.seed,
            output_dir=args.output_dir,
        )
        for name, err in sorted(summary.max_abs_err.items()):
            print(f"{name}: max abs err {err:.3e}")
        if summary.files:
            print(f"wrote: {', '.join(summary.files)}")
        if not summary.ok:
            print(f"FAIL: some identity exceeded {summary.threshold:g}", file=sys.stderr)
            return 1
        print(f"all identities within {summary.threshold:g}")
        return 0
    # OSError: a config file or output directory that is missing or not usable
    except (ConfigError, DegenerateCovarianceError, EnumerationGuardError,
            ConsistencyError, NonFiniteReportError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
