"""Command-line entry point: ``covlss simulate`` and ``covlss verify``.

Each ``simulate`` flag is built from the :class:`ExperimentConfig` field of
the same name: it takes the field's type, default and required-ness, a
``bool`` field's flag is a switch, and a flag left out keeps the default.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys

from .enumeration import MAX_IDENTITY_DIM, EnumerationGuardError
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


# the help sentence of each ExperimentConfig field's simulate flag
_SIMULATE_HELP = {
    "p": "dimension",
    "n": "sample size",
    "alpha": "spike growth exponent",
    "beta": "spike fraction in [0,1]",
    "dist": "innovation selector: normal | gamma:k:theta | rademacher | twopoint:prob",
    "reps": "replications",
    "master_seed": "64-bit master seed",
    "centered": "also compute mean-centered statistics",
    "diagonal_only": "skip the random orthogonal conjugation",
    "output_dir": "report directory",
    "workers": "replication kernels in flight at once, at most one per CPU, each on one "
    "OpenBLAS thread; one more thread draws, all in this process",
}
_FLAG_TYPES = {"int": int, "float": float, "str": str}


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
    for f in dataclasses.fields(ExperimentConfig):
        switch, required = f.type == "bool", f.default is dataclasses.MISSING
        kind = {"action": "store_true"} if switch else {"type": _FLAG_TYPES[f.type]}
        text = _SIMULATE_HELP[f.name] + ("" if switch or required else " (default %(default)s)")
        sim.add_argument("--" + f.name.replace("_", "-"), required=required,
                         default=None if required else f.default, help=text, **kind)

    ver = sub.add_parser(
        "verify",
        help="run the exhaustive-enumeration verification suite",
        description="Checks the quadratic-form moment identities and the "
        "exact finite-n moment formulas by exhaustive enumeration.",
    )
    ver.add_argument("--max-dim", type=int, default=3,
                     help=f"matrix dimension cap, at most {MAX_IDENTITY_DIM}")
    ver.add_argument("--cases", type=int, default=200, help="randomized cases per identity")
    ver.add_argument("--seed", type=int, default=0, help="seed of the randomized grid")
    ver.add_argument("--output-dir", default="out", help="directory for verify.json")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = vars(_build_parser().parse_args(argv))
    command = args.pop("command")  # the rest are the command's keyword arguments
    try:
        if command == "simulate":
            result = run_experiment(ExperimentConfig(**args))
            print(f"wrote: {', '.join(result.files)}")
            print(f"ks = {result.qq.ks:.6f} over {result.qq.reps} replications")
            if result.qq_centered is not None:
                print(f"ks (centered) = {result.qq_centered.ks:.6f}")
                print(f"note: {CENTERED_MEAN_NOTE}")
            return 0
        summary = run_verification_suite(**args)
        for name, err in sorted(summary.max_abs_err.items()):
            print(f"{name}: max abs err {err:.3e}")
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
