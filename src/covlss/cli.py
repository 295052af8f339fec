"""Command-line entry point: ``covlss simulate`` and ``covlss verify``.

Each ``simulate`` flag sets the one :class:`ExperimentConfig` field of the
same name; a flag left out keeps that field's default.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys

from .enumeration import EnumerationGuardError
from .harness import (
    CENTERED_MEAN_NOTE,
    ConfigError,
    ExperimentConfig,
    NonFiniteReportError,
    VERIFY_THRESHOLD,
    run_experiment,
    run_verification_suite,
)
from .inference import DegenerateCovarianceError
from .population import ConsistencyError


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
    sim.add_argument("--p", type=int, required=True, help="dimension")
    sim.add_argument("--n", type=int, required=True, help="sample size")
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
    sim.add_argument("--diagonal-only", action="store_true", default=None,
                     help="skip the random orthogonal conjugation")
    sim.add_argument("--output-dir", default=None, help="report directory (default out)")
    sim.add_argument("--grid-size", type=int, default=None, help="Q-Q probability grid points (default 199)")
    sim.add_argument("--workers", type=int, default=None,
                     help="replication kernels in flight at once (default 1), each on "
                     "one OpenBLAS thread; one more thread draws, all in this process")

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


def _resolve_simulate_config(args: argparse.Namespace) -> ExperimentConfig:
    """The config of the flags given; every other field keeps its default."""
    values = {f.name: getattr(args, f.name) for f in dataclasses.fields(ExperimentConfig)}
    return ExperimentConfig(**{key: v for key, v in values.items() if v is not None})


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "simulate":
            cfg = _resolve_simulate_config(args)
            result = run_experiment(cfg)
            print(f"wrote: {', '.join(result.files)}")
            print(f"ks = {result.qq.ks:.6f} over {result.qq.reps} replications")
            if result.qq_centered is not None:
                print(f"ks (centered) = {result.qq_centered.ks:.6f}")
                print(f"note: {CENTERED_MEAN_NOTE}")
            return 0
        summary = run_verification_suite(args.max_dim, args.cases, args.seed, args.output_dir)
        for name, err in sorted(summary.max_abs_err.items()):
            print(f"{name}: max abs err {err:.3e}")
        if summary.files:
            print(f"wrote: {', '.join(summary.files)}")
        if not summary.ok:
            print(f"FAIL: some identity exceeded {VERIFY_THRESHOLD:g}", file=sys.stderr)
            return 1
        print(f"all identities within {VERIFY_THRESHOLD:g}")
        return 0
    # OSError: an output directory that cannot be made or written
    except (ConfigError, DegenerateCovarianceError, EnumerationGuardError,
            ConsistencyError, NonFiniteReportError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:  # the estimate's ceiling is physical, not available, memory
        print("error: memory ran out" + (f": {exc}" if str(exc) else ""), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
