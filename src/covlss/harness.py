"""Experiment orchestration: config, deterministic parallel replication, reports.

Replication index, not worker, owns the RNG stream, so outputs are
byte-identical for any worker count.  Workers are taken from the
``COVLSS_WORKERS`` environment variable unless set explicitly; the
default is a single in-process block.  A block, in-process or in a pool
worker, runs OpenBLAS on one thread and replicates on two threads that
each draw their own replication's innovations and take turns at the
kernel; where OpenBLAS cannot be pinned it draws inline on one thread.
A pool ships the model to each worker once, and each job names only its
range of replication indices.
"""

from __future__ import annotations

import ctypes
import dataclasses
import hashlib
import json
import os
import threading
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import VERSION_STRING
from .enumeration import (
    EnumerationGuardError,
    FiniteMomentReport,
    IdentityReport,
    SymMatrix,
    verify_finite_n_moments,
    verify_fourth_moment,
    verify_quadratic_covariance,
    verify_triple_product,
)
from .inference import QQReport, check_covariance, qq_report, whiten
from .innovations import parse_dist, rademacher, two_point
from .lss import ReplicationResult, SampleConfig, _draw_x, run_replication
from .moments import MomentSet, moment_set
from .population import PopulationModel, SpectrumSpec, assemble_model, build_model
from .seeding import ROTATION_STREAM, SPECTRUM_STREAM, derive_seed

WORKERS_ENV_VAR = "COVLSS_WORKERS"
VERIFY_THRESHOLD = 1e-9

# (set, get) thread-count symbols of OpenBLAS builds, first match wins
_OPENBLAS_SYMBOLS = [
    ("scipy_openblas_set_num_threads64_", "scipy_openblas_get_num_threads64_"),
    ("openblas_set_num_threads64_", "openblas_get_num_threads64_"),
    ("openblas_set_num_threads", "openblas_get_num_threads"),
]

_FORMATS = ("csv", "json", "both")
# ExperimentConfig fields that change where or how reports are written, not their numbers
_UNDIGESTED = ("output_dir", "format", "workers")


class ConfigError(ValueError):
    """An experiment configuration field is missing or malformed."""


@dataclass
class ExperimentConfig:
    p: int
    n: int
    alpha: float = 0.0
    beta: float = 0.0
    dist: str = "normal"
    reps: int = 10000
    master_seed: int = 0
    centered: bool = False
    max_power: int = 2
    diagonal_only: bool = False
    output_dir: str = "out"
    format: str = "both"
    grid_size: int = 199
    workers: int | None = None

    def validate(self) -> None:
        if self.p < 1:
            raise ConfigError(f"p must be a positive integer, got {self.p}")
        if self.n < 2:
            raise ConfigError(f"n must be at least 2, got {self.n}")
        if not 0 <= self.alpha < np.inf:  # also refuses nan
            raise ConfigError(f"alpha must be finite and >= 0, got {self.alpha}")
        if not 0.0 <= self.beta <= 1.0:
            raise ConfigError(f"beta must lie in [0, 1], got {self.beta}")
        if self.reps < 1:
            raise ConfigError(f"reps must be a positive integer, got {self.reps}")
        if not 2 <= self.max_power <= 4:  # the whitened statistic needs T_2
            raise ConfigError(f"max_power must be in 2..4, got {self.max_power}")
        if self.format not in _FORMATS:
            raise ConfigError(f"format must be one of {_FORMATS}, got {self.format!r}")
        if self.grid_size < 2:
            raise ConfigError(f"grid_size must be at least 2, got {self.grid_size}")
        if self.workers is not None and self.workers < 1:
            raise ConfigError(f"workers must be a positive integer, got {self.workers}")
        try:
            parse_dist(self.dist)
        except ValueError as exc:  # a bad selector or non-finite moments
            raise ConfigError(str(exc)) from exc

    def digest(self) -> str:
        """Digest of every field that affects the statistical output."""
        payload = dataclasses.asdict(self)
        for key in _UNDIGESTED:
            del payload[key]
        blob = json.dumps(payload, sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()


def resolve_workers(cfg_workers: int | None) -> int:
    if cfg_workers is not None:
        return cfg_workers
    env = os.environ.get(WORKERS_ENV_VAR, "").strip()
    if env:
        try:
            value = int(env)
        except ValueError as exc:
            raise ConfigError(f"{WORKERS_ENV_VAR} must be an integer, got {env!r}") from exc
        if value < 1:
            raise ConfigError(f"{WORKERS_ENV_VAR} must be >= 1, got {value}")
        return value
    return 1


def build_experiment_model(cfg: ExperimentConfig) -> PopulationModel:
    """The population model implied by a config, frozen by the master seed."""
    rng = np.random.default_rng(derive_seed(cfg.master_seed, SPECTRUM_STREAM))
    r = rng.random(cfg.p)
    while np.any(r == 0.0):  # Uniform(0,1) draws must stay in the open interval
        r[r == 0.0] = rng.random(int(np.sum(r == 0.0)))
    spec = SpectrumSpec(
        p=cfg.p,
        n=cfg.n,
        alpha=cfg.alpha,
        beta=cfg.beta,
        r_values=r,
        diagonal_only=cfg.diagonal_only,
    )
    return build_model(spec, derive_seed(cfg.master_seed, ROTATION_STREAM))


def _retain_freed_arrays() -> None:
    """Fix glibc's malloc thresholds and keep every thread on one arena, so
    that the p x n arrays a replication frees stay in the heap for the next
    one, on either thread, instead of being faulted in again (about 1,100
    minor faults per replication at p = 1000, n = 300)."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):  # not glibc
        return
    mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD, at its 64-bit maximum
    mallopt(-1, 64 << 20)  # M_TRIM_THRESHOLD
    mallopt(-8, 1)  # M_ARENA_MAX


def _openblas_threads() -> list[tuple]:
    """(set, get) thread-count functions of each OpenBLAS the process has loaded."""
    try:
        with open("/proc/self/maps") as maps:
            paths = sorted(
                {line.split(maxsplit=5)[-1].strip() for line in maps if "openblas" in line}
            )
    except OSError:  # no procfs: the libraries cannot be located
        return []
    controls = []
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for set_name, get_name in _OPENBLAS_SYMBOLS:
            if hasattr(lib, set_name) and hasattr(lib, get_name):
                set_threads, get_threads = getattr(lib, set_name), getattr(lib, get_name)
                set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
                get_threads.argtypes, get_threads.restype = [], ctypes.c_int
                controls.append((set_threads, get_threads))
                break
    return controls


@contextmanager
def _one_blas_thread():
    """Run OpenBLAS on one thread inside the block, then restore its count.

    Yields whether anything was pinned: without an OpenBLAS control symbol
    the BLAS threads are left as they are.
    """
    controls = _openblas_threads()
    saved = [get() for _, get in controls]
    try:
        for set_threads, _ in controls:
            set_threads(1)
        yield bool(controls)
    finally:
        for (set_threads, _), count in zip(controls, saved):
            set_threads(count)


def _replicate_block(args) -> list[ReplicationResult]:
    """Replications start..stop, in index order.

    This thread and one helper each take the next index, draw that
    replication's innovations (numpy's generator releases the GIL), then run
    its kernel under one lock, so both cores draw while at most one Gram
    matrix is in flight.  Each replication owns its seeded stream and every
    kernel runs on one BLAS thread, so no result depends on the thread."""
    _retain_freed_arrays()
    model, dist_selector, n, master_seed, max_power, centered, start, stop = args
    dist = parse_dist(dist_selector)
    cfgs = [
        SampleConfig(
            model=model,
            dist=dist,
            n=n,
            replication_index=rep,
            master_seed=master_seed,
            max_power=max_power,
            centered=centered,
        )
        for rep in range(start, stop)
    ]
    with _one_blas_thread() as pinned:
        if not pinned:  # a many-thread BLAS kernel would contend with the other draw
            return [run_replication(cfg) for cfg in cfgs]
        out: list[ReplicationResult | None] = [None] * len(cfgs)
        indices = iter(range(len(cfgs)))
        claim, kernel, failed = threading.Lock(), threading.Lock(), threading.Event()

        def replicate() -> None:
            try:
                while not failed.is_set():
                    with claim:
                        i = next(indices, None)
                    if i is None:
                        return
                    x = _draw_x(cfgs[i])
                    with kernel:
                        out[i] = run_replication(cfgs[i], x)
                    del x  # not held through the next draw
            except BaseException:
                failed.set()  # the other thread stops at its next replication
                raise

        with ThreadPoolExecutor(max_workers=1, thread_name_prefix="covlss-replicate") as helper:
            other = helper.submit(replicate)
            replicate()
            other.result()
        return out


# what every job of one pool shares, sent to each worker once by its initializer
_pool_block: tuple = ()


def _init_pool_worker(block: tuple) -> None:
    global _pool_block
    _pool_block = block


def _replicate_pool_job(bounds: tuple[int, int]) -> list[ReplicationResult]:
    return _replicate_block(_pool_block + bounds)


def run_replications(
    model: PopulationModel, cfg: ExperimentConfig, workers: int
) -> list[ReplicationResult]:
    """All replications, in replication-index order regardless of scheduling:
    each job is one index range, and ``pool.map`` yields jobs in order."""
    base = (model, cfg.dist, cfg.n, cfg.master_seed, cfg.max_power, cfg.centered)
    if workers <= 1:
        return _replicate_block(base + (0, cfg.reps))
    block = max(1, -(-cfg.reps // (workers * 4)))
    jobs = [(start, min(start + block, cfg.reps)) for start in range(0, cfg.reps, block)]
    results: list[ReplicationResult] = []
    with ProcessPoolExecutor(
        max_workers=workers, initializer=_init_pool_worker, initargs=(base,)
    ) as pool:
        for chunk in pool.map(_replicate_pool_job, jobs):
            results.extend(chunk)
    return results


@dataclass(frozen=True)
class ExperimentResult:
    config: ExperimentConfig
    moments: MomentSet
    qq: QQReport
    qq_centered: QQReport | None
    files: list[str]


def _fmt17(v: float) -> str:
    return f"{v:.17g}"


def _write_qq_csv(path: Path, report: QQReport) -> None:
    lines = ["prob,q_theoretical,q_empirical"]
    for p, qt, qe in zip(report.probs, report.q_theoretical, report.q_empirical):
        lines.append(f"{_fmt17(p)},{_fmt17(qt)},{_fmt17(qe)}")
    path.write_text("\n".join(lines) + "\n")


def _qq_arrays(report: QQReport) -> dict:
    return {
        "prob": [float(v) for v in report.probs],
        "q_theoretical": [float(v) for v in report.q_theoretical],
        "q_empirical": [float(v) for v in report.q_empirical],
    }


def run_experiment(cfg: ExperimentConfig) -> ExperimentResult:
    """Build the model once, replicate, whiten, and write the reports.

    Raises :class:`ConfigError` on bad input and
    :class:`DegenerateCovarianceError` when the (dist, spectrum)
    combination yields a singular covariance of (T1, T2).
    """
    cfg.validate()
    workers = resolve_workers(cfg.workers)
    out_dir = Path(cfg.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    model = build_experiment_model(cfg)
    dist = parse_dist(cfg.dist)
    ms = moment_set(model.traces, cfg.n, dist.profile.nu4, centered=cfg.centered)
    check_covariance(
        ms,
        context=f"dist={cfg.dist}, spectrum p={cfg.p} alpha={cfg.alpha} "
        f"beta={cfg.beta} diagonal_only={cfg.diagonal_only}",
    )

    results = run_replications(model, cfg, workers)
    digest = cfg.digest()
    ts = np.array([whiten(r.t[0], r.t[1], ms) for r in results])
    qq = qq_report(ts, "chi2_df2", cfg.grid_size, config_digest=digest)

    qq_centered = None
    notes: list[str] = []
    if cfg.centered:
        centered_ms = ms.centered_view()
        ts0 = np.array(
            [whiten(r.t_centered[0], r.t_centered[1], centered_ms) for r in results]
        )
        qq_centered = qq_report(ts0, "chi2_df2", cfg.grid_size, config_digest=digest)
        notes.append(
            "centered mean convention: E T1^0 = (1 - 1/n) tr(Sigma) for the "
            "divisor-n centered sample covariance, validated by enumeration"
        )

    files: list[str] = []
    write_csv = cfg.format in ("csv", "both")
    embed_json = cfg.format in ("json", "both")
    if write_csv:
        qq_path = out_dir / "qq.csv"
        _write_qq_csv(qq_path, qq)
        files.append(str(qq_path))
        if qq_centered is not None:
            qqc_path = out_dir / "qq_centered.csv"
            _write_qq_csv(qqc_path, qq_centered)
            files.append(str(qqc_path))

    config_out = dict(dataclasses.asdict(cfg), workers=workers)
    summary = {
        "version": VERSION_STRING,
        "config": config_out,
        "config_digest": digest,
        "reps": cfg.reps,
        "ks": qq.ks,
        "moments": ms.as_dict(),
        "model": {
            "p": model.p,
            "top_eigenvalue": float(model.eigenvalues[0]),
            "traces": model.traces.as_dict(),
        },
        "centered": None if qq_centered is None else {"ks": qq_centered.ks},
        "notes": notes,
    }
    if embed_json:
        summary["qq"] = _qq_arrays(qq)
        if qq_centered is not None:
            summary["qq_centered"] = _qq_arrays(qq_centered)
    summary_path = out_dir / "summary.json"
    summary_path.write_text(json.dumps(summary, indent=2, sort_keys=True, allow_nan=False) + "\n")
    files.append(str(summary_path))

    return ExperimentResult(
        config=cfg, moments=ms, qq=qq, qq_centered=qq_centered, files=files
    )


# --- verification suite -----------------------------------------------------


@dataclass(frozen=True)
class VerificationSummary:
    cases: list[dict]
    max_abs_err: dict[str, float]
    threshold: float
    ok: bool
    files: list[str]


def _symmetric_stack(mats: list[np.ndarray]) -> SymMatrix:
    a = np.stack(mats)
    return SymMatrix(0.5 * (a + a.transpose(0, 2, 1)))


def _verification_dists():
    # two-point members carry mu3 != 0, which the triple-product identity needs
    return [rademacher(), two_point(0.2), two_point(0.35)]


def _finite_moment_grid() -> list[tuple[PopulationModel, int]]:
    theta = np.pi / 4
    rot = np.array(
        [[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]]
    )
    models = []
    for p, n in ((1, 2), (2, 2), (2, 3)):
        if p == 1:
            models.append((assemble_model([1.0]), n))
            models.append((assemble_model([2.0]), n))
        else:
            models.append((assemble_model([1.0, 1.0]), n))
            models.append((assemble_model([2.0, 1.0]), n))
            models.append((assemble_model([2.0, 1.0], rot), n))
    return models


def _identity_reports(
    rng: np.random.Generator, max_dim: int, cases: int
) -> list[IdentityReport]:
    """Draw the random cases one at a time, check each (dimension, law)
    group as one stack, and return the reports in case order."""
    dists = _verification_dists()
    groups: dict[tuple[int, int], tuple[list[int], list, list]] = {}
    for i in range(cases):
        dim = int(rng.integers(1, max_dim + 1))
        members, a, b = groups.setdefault((dim, i % len(dists)), ([], [], []))
        members.append(i)
        a.append(rng.uniform(-1.0, 1.0, size=(dim, dim)))
        b.append(rng.uniform(-1.0, 1.0, size=(dim, dim)))
    by_case: list = [None] * cases
    for (_, law), (members, a_mats, b_mats) in groups.items():
        a, b, dist = _symmetric_stack(a_mats), _symmetric_stack(b_mats), dists[law]
        checks = zip(
            verify_quadratic_covariance(a, b, dist),
            verify_fourth_moment(a, dist),
            verify_triple_product(a, b, dist),
        )
        for i, case in zip(members, checks):
            by_case[i] = case
    return [r for case in by_case for r in case]


def run_verification_suite(
    max_dim: int, cases: int, seed: int, output_dir: str | None = None
) -> VerificationSummary:
    """Randomized identity checks plus the fixed finite-n moment grid.

    ``cases`` random (matrix, distribution) draws are checked per
    identity at dimensions 1..max_dim; a report row is emitted per check,
    in case order, and the suite passes only if every exact comparison
    stays within ``VERIFY_THRESHOLD``.  The cases of one (dimension, law)
    group are checked together, one enumeration per identity and group.
    """
    if max_dim > 4:
        raise EnumerationGuardError(f"max_dim is capped at 4, got {max_dim}")
    if max_dim < 1:
        raise ConfigError(f"max_dim must be at least 1, got {max_dim}")
    if cases < 1:
        raise ConfigError(f"cases must be at least 1, got {cases}")
    if seed < 0:
        raise ConfigError(f"seed must be non-negative, got {seed}")

    reports: list[IdentityReport | FiniteMomentReport] = _identity_reports(
        np.random.default_rng(seed), max_dim, cases
    )
    for model, n in _finite_moment_grid():
        for dist in (rademacher(), two_point(0.2)):
            reports.append(verify_finite_n_moments(model, n, dist))

    rows = [r.as_dict() for r in reports]
    max_err: dict[str, float] = {}
    for row in rows:
        max_err[row["lemma"]] = max(max_err.get(row["lemma"], 0.0), row["abs_err"])
    ok = all(v <= VERIFY_THRESHOLD for v in max_err.values())

    files: list[str] = []
    if output_dir is not None:
        out_dir = Path(output_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        payload = {
            "version": VERSION_STRING,
            "threshold": VERIFY_THRESHOLD,
            "max_abs_err": max_err,
            "ok": ok,
            "cases": rows,
        }
        path = out_dir / "verify.json"
        path.write_text(json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n")
        files.append(str(path))

    return VerificationSummary(
        cases=rows,
        max_abs_err=max_err,
        threshold=VERIFY_THRESHOLD,
        ok=ok,
        files=files,
    )
