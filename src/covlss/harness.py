"""Experiment orchestration: config, deterministic parallel replication, reports.

An :class:`ExperimentConfig` is checked once, when it is made.  Replication
index, not thread, owns the RNG stream, so every report is byte-identical
for any worker count.  ``workers`` (default 1) is the number of replication
kernels in flight at once, all in this process: OpenBLAS runs on one thread,
as it does while the model is built, and ``workers + 1`` threads each draw
their own replication's innovations and then wait for a kernel slot.  Where
OpenBLAS cannot be pinned, the caller runs the same loop alone and
``workers`` has no effect.  Each replication writes its row of one array,
(T_1, T_2) extended by the centered pair (T_1^0, T_2^0) when centered, and
each pair of columns is whitened, about its means, in one call.

A run writes its Q-Q table to ``qq.csv``, and the centered one to
``qq_centered.csv``; ``summary.json`` holds the digested config fields
(not ``output_dir`` or ``workers``), the moments, the model's traces and
the KS distances, but no Q-Q arrays.
``summary.json`` and ``verify.json`` are the bytes of ``json.dumps(value,
indent=2, sort_keys=True, allow_nan=False)`` plus a newline.  The
verification suite works on columns up to its rows: each (dimension, law)
group is enumerated once, on one grid for its three identities, and fills
rows of ``(cases, 3)`` lhs and rhs arrays; the errors, maxima and ``ok``
are array reductions.  The finite-n rows come from one grouped check per
(p, n, law), 12 passes over a grid in all, whose ``(models, 5)`` arrays
become one row per model.  Each row is built once, as the dict that the
suite's summary returns and ``verify.json`` is written from.  Each
identity row is streamed from one fixed ``%``-format string, keys sorted
and indented, each float rendered once by ``repr`` (the ``float.__repr__``
that ``json`` writes); the header and the finite-n rows come from one
``json.dumps``.  Every value is checked finite before the file is opened.
Every report (``qq.csv``, ``qq_centered.csv``, ``summary.json`` and
``verify.json``) is written to a temporary file that replaces it once
whole, so a failed write leaves no partial report.
"""

from __future__ import annotations

import ctypes
import dataclasses
import functools
import hashlib
import itertools
import json
import math
import operator
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import VERSION_STRING
from .enumeration import (
    FINITE_N_COLUMNS,
    IDENTITY_COLUMNS,
    MAX_IDENTITY_DIM,
    EnumerationGuardError,
    SymMatrix,
    verify_finite_n_moments,
    verify_identities,
)
from .inference import QQReport, check_covariance, qq_report, whiten
from .innovations import InnovationDist, parse_dist, rademacher, two_point
from .lss import _draw_x, run_replication
from .moments import moment_set
from .population import PopulationModel, assemble_model, build_model
from .seeding import ROTATION_STREAM, SPECTRUM_STREAM, derive_seed

VERIFY_THRESHOLD = 1e-9
# the laws of verify's cases, case i under the law i % 3; the two-point
# members carry mu3 != 0, which the triple-product identity needs
VERIFICATION_LAWS = (rademacher(), two_point(0.2), two_point(0.35))
# the note of a centered run, in summary.json and on the command line
CENTERED_MEAN_NOTE = (
    "centered mean convention: E T1^0 = (1 - 1/n) tr(Sigma) for the "
    "divisor-n centered sample covariance, validated by enumeration"
)

# (set, get) thread-count symbols of OpenBLAS builds, first match wins
_OPENBLAS_SYMBOLS = [
    ("scipy_openblas_set_num_threads64_", "scipy_openblas_get_num_threads64_"),
    ("openblas_set_num_threads64_", "openblas_get_num_threads64_"),
    ("openblas_set_num_threads", "openblas_get_num_threads"),
]

# peak bytes per grid point of one qq_report table: 89 measured at 10^6 points
# (tracemalloc and VmHWM agree), most of it the theoretical quantiles' list
_QQ_BYTES_PER_POINT = 96
# peak bytes per p^2 of a rotated model: 33 measured for its build at p = 1000,
# of which F and the dense Sigma that the p <= n kernel caches keep 16
_MODEL_BYTES_PER_P2 = 40
# peak bytes per value drawn: 16.07 measured at 10^6 values for the largest,
# rademacher's int64 draw and its float copy
_DRAW_BYTES_PER_VALUE = 17
# peak bytes per replication of its statistics, whitening and Q-Q sorts: 72
# measured at 10^6 replications, 88 centered (16 more)
_BYTES_PER_REP = 80
# peak bytes per random case of verify, most of it its three row dicts: 1,234
# traced and 1,480 by VmHWM at 10^5 cases, at every max_dim
_BYTES_PER_CASE = 1500

# ExperimentConfig fields that change where or how reports are written, not their numbers
_UNDIGESTED = ("output_dir", "workers")


def _flag(value) -> bool:
    if not isinstance(value, (bool, np.bool_)):  # 1 is not a flag
        raise TypeError
    return bool(value)


def _text(value) -> str:
    text = os.fspath(value)  # a Path is stored as its str
    if not isinstance(text, str):  # os.fspath passes bytes through
        raise TypeError
    return text


# how an ExperimentConfig field of each annotated type is stored, so that 1
# and 1.0, or np.int64(3) and 3, make one config and one digest;
# operator.index refuses 1.5 and 10.0
_CANONICAL = {"int": operator.index, "float": float, "bool": _flag, "str": _text}


class ConfigError(ValueError):
    """An experiment configuration field is missing or malformed."""


def _canonical(name: str, kind: str, value):
    """``value`` as a field or argument ``name`` of annotated type ``kind``
    stores it, or :class:`ConfigError` naming it."""
    try:
        return _CANONICAL[kind](value)
    except (TypeError, ValueError):
        raise ConfigError(f"{name} must be of type {kind}, got {value!r}") from None


class NonFiniteReportError(ValueError):
    """A report value is NaN or infinite, so the report is not written."""


@dataclass(frozen=True)
class ExperimentConfig:
    """One run's inputs, checked when made: a malformed field, or a run above
    physical memory, raises :class:`ConfigError`.  ``law``, an attribute and
    not a field, is the innovation law that ``dist`` selects, parsed once.
    ``max_power``, a keyword and not a field, is checked to lie in 2..4 and
    then ignored: the kernel computes only T_1, T_2 and the centered pair."""

    p: int
    n: int
    alpha: float = 0.0
    beta: float = 0.0
    dist: str = "normal"
    reps: int = 10000
    master_seed: int = 0
    centered: bool = False
    max_power: dataclasses.InitVar[int] = 2  # in no digest, report or flag
    diagonal_only: bool = False
    output_dir: str = "out"
    grid_size: int = 199
    workers: int = 1

    def __post_init__(self, max_power: int) -> None:
        for f in dataclasses.fields(self):
            object.__setattr__(self, f.name, _canonical(f.name, f.type, getattr(self, f.name)))
        if self.p < 1:
            raise ConfigError(f"p must be a positive integer, got {self.p}")
        if self.n < 2:
            raise ConfigError(f"n must be at least 2, got {self.n}")
        if not 0 <= self.alpha < np.inf:  # also refuses nan
            raise ConfigError(f"alpha must be finite and >= 0, got {self.alpha}")
        if not 0.0 <= self.beta <= 1.0:
            raise ConfigError(f"beta must lie in [0, 1], got {self.beta}")
        if not 0 <= self.master_seed < 2**64:  # seeding keeps only 64 bits
            raise ConfigError(f"master_seed must lie in [0, 2**64), got {self.master_seed}")
        if self.reps < 1:
            raise ConfigError(f"reps must be a positive integer, got {self.reps}")
        if not 2 <= max_power <= 4:  # the whitened statistic needs T_2
            raise ConfigError(f"max_power must be in 2..4, got {max_power}")
        if self.grid_size < 2:
            raise ConfigError(f"grid_size must be at least 2, got {self.grid_size}")
        if self.workers < 1:
            raise ConfigError(f"workers must be a positive integer, got {self.workers}")
        p, n, slots = self.p, self.n, min(self.workers, self.reps)
        parts = {  # peak bytes by the field that sets them, summed as if all coexist
            f"grid_size {self.grid_size}":
                self.grid_size * _QQ_BYTES_PER_POINT * (1 + self.centered),
            f"p {p}": 0 if self.diagonal_only else p * p * _MODEL_BYTES_PER_P2,
            # each drawing thread's p x n innovations, and a Gram per kernel slot
            f"p * n = {p} * {n}": (slots + 1) * p * n * _DRAW_BYTES_PER_VALUE
            + slots * 8 * min(p, n) ** 2,
            f"reps {self.reps}": self.reps * (_BYTES_PER_REP + 16 * self.centered),
        }
        _refuse_beyond_memory(parts)
        try:
            object.__setattr__(self, "law", parse_dist(self.dist))
        except ValueError as exc:  # a bad selector or non-finite moments
            raise ConfigError(str(exc)) from exc
        object.__setattr__(self, "dist", self.law.selector)  # one spelling per law

    def digested(self) -> dict:
        """The fields that affect the statistical output, by name: what
        ``summary.json`` writes as its config and :meth:`digest` hashes."""
        return {f.name: getattr(self, f.name) for f in dataclasses.fields(self)
                if f.name not in _UNDIGESTED}

    def digest(self) -> str:
        """SHA-256 of :meth:`digested`, which names a run's statistical inputs."""
        return hashlib.sha256(json.dumps(self.digested(), sort_keys=True).encode()).hexdigest()


del ExperimentConfig.max_power  # the keyword's default, left as a class attribute, would read 2


def _physical_memory() -> float:
    """Bytes of physical memory, or infinity where the OS does not say."""
    try:
        return os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    except (AttributeError, ValueError, OSError):  # no sysconf, or no such name
        return math.inf


def _refuse_beyond_memory(parts: dict[str, float]) -> None:
    """Raise :class:`ConfigError` when the peak bytes ``parts``, keyed by the
    input that sets each, sum to more than physical memory, naming the input
    of the largest part."""
    total, memory = sum(parts.values()), _physical_memory()
    if total > memory:
        field = max(parts, key=parts.get)
        raise ConfigError(
            f"{field} needs about {parts[field] / 2**30:.3g} GiB, and the run "
            f"{total / 2**30:.3g} GiB in all, more than the {memory / 2**30:.3g} GiB "
            "of physical memory"
        )


def build_experiment_model(cfg: ExperimentConfig) -> PopulationModel:
    """The population model implied by a config, frozen by the master seed,
    built on one BLAS thread so that its bits do not depend on the host."""
    with _one_blas_thread():
        rng = np.random.default_rng(derive_seed(cfg.master_seed, SPECTRUM_STREAM))
        r = rng.random(cfg.p)
        while np.any(r == 0.0):  # Uniform(0,1) draws must stay in the open interval
            r[r == 0.0] = rng.random(int(np.sum(r == 0.0)))
        rotation_seed = None if cfg.diagonal_only else derive_seed(cfg.master_seed, ROTATION_STREAM)
        return build_model(r, cfg.n, cfg.alpha, cfg.beta, rotation_seed)


def _retain_freed_arrays() -> None:
    """Keep every thread on one glibc malloc arena and fix the mmap and trim
    thresholds, for the whole process and for good.

    The one arena lowers peak RSS, since each thread reuses the p x n arrays
    the other frees: at p = 500, n = 1000 (40 gamma replications, glibc 2.36,
    x86-64) a fresh process peaks at 52.9 MB with the policy, 56.7 MB
    without and 52.6 MB with the arena alone.  The thresholds keep freed
    arrays in the heap: 100 replications at p = 1000, n = 300 (centered,
    diagonal, alpha 0.5, beta 0.1) fault 1,680 pages with the policy and
    3,210 without.  Setting either threshold turns off glibc's adjustment
    of both, so either alone makes it 43k-77k."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):  # not glibc
        return
    mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD, at its 64-bit maximum
    mallopt(-1, 64 << 20)  # M_TRIM_THRESHOLD
    mallopt(-8, 1)  # M_ARENA_MAX


@functools.cache
def _openblas_threads() -> tuple[tuple, ...]:
    """(set, get) thread-count functions of each OpenBLAS the process has
    loaded, looked up on the first call only.  numpy loads its OpenBLAS at
    import, before any call here; a BLAS loaded later is not pinned."""
    try:
        with open("/proc/self/maps") as maps:
            paths = sorted(
                {line.split(maxsplit=5)[-1].strip() for line in maps if "openblas" in line}
            )
    except OSError:  # no procfs: the libraries cannot be located
        return ()
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
    return tuple(controls)


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


def run_replications(model: PopulationModel, cfg: ExperimentConfig, workers: int) -> np.ndarray:
    """Every replication's statistics as row ``rep`` of one array: (T_1, T_2)
    in a (reps, 2) array, or (T_1, T_2, T_1^0, T_2^0) in a (reps, 4) array
    when ``cfg.centered``.

    This thread and ``min(workers, reps)`` helpers each take the next index,
    draw that replication's innovations (numpy's generator releases the
    GIL), then run its kernel once one of ``workers`` kernel slots is free,
    so every thread draws while at most ``workers`` Gram matrices are in
    flight.  Each replication owns its seeded stream and every kernel runs
    on one BLAS thread, so no result depends on the thread or on ``workers``.
    Where OpenBLAS cannot be pinned, a many-thread kernel would contend with
    the other draws, so this thread replicates alone and ``workers`` has no
    effect."""
    _retain_freed_arrays()
    t = np.empty((cfg.reps, 4 if cfg.centered else 2))
    with _one_blas_thread() as pinned:
        slots = min(workers, cfg.reps) if pinned else 1
        indices = iter(range(cfg.reps))
        claim, failed = threading.Lock(), threading.Event()
        kernels = threading.Semaphore(slots)

        def replicate() -> None:
            try:
                while not failed.is_set():
                    with claim:
                        i = next(indices, None)
                    if i is None:
                        return
                    x = _draw_x(cfg.law, model.p, cfg.n, cfg.master_seed, i)
                    with kernels:
                        t[i] = run_replication(model, x, i, cfg.centered)
                    del x  # not held through the next draw
            except BaseException:
                failed.set()  # the other threads stop at their next replication
                raise

        with ThreadPoolExecutor(
            max_workers=slots, thread_name_prefix="covlss-replicate"
        ) as helpers:
            others = [helpers.submit(replicate) for _ in range(slots if pinned else 0)]
            replicate()
            for other in others:
                other.result()
    return t


@dataclass(frozen=True)
class ExperimentResult:
    qq: QQReport
    qq_centered: QQReport | None
    files: list[str]


def _write_text(path: Path, chunks) -> None:
    """Write the text ``chunks`` to a temporary file in the same directory
    that replaces ``path`` only once it is whole, so a write that fails part
    way leaves ``path`` as it was and no temporary file behind."""
    tmp = path.with_name(f".{path.name}.{os.getpid()}-{threading.get_ident()}.tmp")
    try:
        with open(tmp, "x", encoding="utf-8") as out:
            out.writelines(chunks)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _dump(value) -> str:
    return json.dumps(value, indent=2, sort_keys=True, allow_nan=False)


def _write_qq_csv(path: Path, report: QQReport) -> None:
    rows = zip(report.probs, report.q_theoretical, report.q_empirical)
    lines = (f"{p:.17g},{qt:.17g},{qe:.17g}\n" for p, qt, qe in rows)
    _write_text(path, itertools.chain(["prob,q_theoretical,q_empirical\n"], lines))


def run_experiment(cfg: ExperimentConfig) -> ExperimentResult:
    """Build the model once, replicate, whiten, and write the reports.

    Raises :class:`DegenerateCovarianceError` when the (dist, spectrum)
    combination yields a singular covariance of (T1, T2).
    """
    out_dir = Path(cfg.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    model = build_experiment_model(cfg)
    ms = moment_set(model.traces, cfg.n, cfg.law.profile.nu4, centered=cfg.centered)
    check_covariance(
        ms,
        context=f"dist={cfg.dist}, spectrum p={cfg.p} alpha={cfg.alpha} "
        f"beta={cfg.beta} diagonal_only={cfg.diagonal_only}",
    )

    t = run_replications(model, cfg, cfg.workers)
    qq = qq_report(whiten(t[:, 0] - ms.e_t1, t[:, 1] - ms.e_t2, ms), cfg.grid_size)

    qq_centered = None
    notes: list[str] = []
    if cfg.centered:  # the same covariance about the centered means
        ts0 = whiten(t[:, 2] - ms.e_t1_centered, t[:, 3] - ms.e_t2_centered, ms)
        qq_centered = qq_report(ts0, cfg.grid_size)
        notes.append(CENTERED_MEAN_NOTE)

    files: list[str] = []
    for name, report in (("qq.csv", qq), ("qq_centered.csv", qq_centered)):
        if report is not None:
            path = out_dir / name
            _write_qq_csv(path, report)
            files.append(str(path))

    summary = {
        "version": VERSION_STRING,
        "config": cfg.digested(),
        "config_digest": cfg.digest(),
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
    summary_path = out_dir / "summary.json"
    _write_text(summary_path, (_dump(summary), "\n"))
    files.append(str(summary_path))

    return ExperimentResult(qq=qq, qq_centered=qq_centered, files=files)


# --- verification suite -----------------------------------------------------


@dataclass(frozen=True)
class VerificationSummary:
    cases: list[dict]
    max_abs_err: dict[str, float]
    ok: bool
    files: list[str]


# one verify.json identity row as json.dumps(indent=2, sort_keys=True) writes
# it inside "cases", and the separator that a finite-n row always follows
_IDENTITY_ROW = (
    '    {\n      "abs_err": %s,\n      "dims": %d,\n      "dist": %s,\n'
    '      "lemma": %s,\n      "lhs": %s,\n      "rhs": %s\n    },\n'
)


def _finite_moment_grid() -> list[tuple[int, list[PopulationModel]]]:
    """The finite-n checks as (n, models) groups whose models share one p."""
    theta = np.pi / 4
    rot = np.array(
        [[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]]
    )
    scalars = [assemble_model([1.0]), assemble_model([2.0])]
    pairs = [
        assemble_model([1.0, 1.0]), assemble_model([2.0, 1.0]), assemble_model([2.0, 1.0], rot)
    ]
    return [(2, scalars), (2, pairs), (3, pairs)]


def _finite_rows(n: int, models: list[PopulationModel], dist: InnovationDist) -> list[dict]:
    """The report rows of one (p, n, law) group, a row per model: each column
    of ``FINITE_N_COLUMNS`` as an [enumerated, formula] pair, and abs_err the
    largest error of the four exact columns, NaN if any of the ten values is
    not finite."""
    enumerated, formula = verify_finite_n_moments(models, n, dist)
    finite = np.isfinite(enumerated).all(axis=1) & np.isfinite(formula).all(axis=1)
    errors = np.where(finite, np.abs(enumerated - formula)[:, :4].max(axis=1), np.nan)
    return [
        {"lemma": "finite_n_moments", "dims": [models[0].p, n], "dist": dist.selector,
         **{column: list(pair) for column, pair in zip(FINITE_N_COLUMNS, zip(left, right))},
         "abs_err": err}
        for left, right, err in zip(enumerated.tolist(), formula.tolist(), errors.tolist())
    ]


def _identity_columns(
    rng: np.random.Generator, max_dim: int, cases: int
) -> tuple[np.ndarray, np.ndarray, list[int]]:
    """Draw the random cases one at a time, case ``i`` under
    ``VERIFICATION_LAWS[i % 3]``, and check each (dimension, law) group as
    one stack.  Returns the enumerated and closed-form sides as
    ``(cases, 3)`` arrays in case order, a column per lemma of
    ``IDENTITY_COLUMNS``, and each case's dimension."""
    dims: list[int] = []
    groups: dict[tuple[int, int], tuple[list[int], list]] = {}
    for i in range(cases):
        dim = int(rng.integers(1, max_dim + 1))
        dims.append(dim)
        members, draws = groups.setdefault((dim, i % 3), ([], []))
        members.append(i)
        draws.append(rng.random((2, dim, dim)))  # the case's A and B, on [0, 1)
    lhs, rhs = np.empty((cases, 3)), np.empty((cases, 3))
    for (_, law), (members, draws) in groups.items():
        # uniform(-1, 1) is -1 + 2 u of the same doubles u
        a, b = (SymMatrix(0.5 * (m + m.transpose(0, 2, 1)))
                for m in -1.0 + 2.0 * np.stack(draws, axis=1))
        lhs[members], rhs[members] = verify_identities(a, b, VERIFICATION_LAWS[law])
    return lhs, rhs, dims


def _write_verify_json(
    path: Path, header: dict, identity_rows: list[dict], finite_rows: list[dict]
) -> None:
    """Write verify.json: the bytes of ``_dump`` of ``header`` with the
    identity and finite-n rows as its "cases", and a newline.  Every value
    is checked finite before the file is opened, through the header's
    maxima: a row's abs_err is not finite where one of its values is not."""
    if not all(map(math.isfinite, header["max_abs_err"].values())):
        k, row = next(
            (k, row) for k, row in enumerate(identity_rows + finite_rows)
            if not math.isfinite(row["abs_err"])
        )
        if k >= len(identity_rows):
            raise NonFiniteReportError(
                f"finite_n_moments of case {row['dims']}, {row['dist']} is not finite"
            )
        raise NonFiniteReportError(
            f"{row['lemma']} of case {k // 3} is not finite: "
            f"lhs {row['lhs']!r}, rhs {row['rhs']!r}"
        )
    # "cases" sorts first: the identity rows go right after its opening line
    head = '{\n  "cases": [\n'
    tail = _dump({**header, "cases": finite_rows})[len(head):] + "\n"
    path.parent.mkdir(parents=True, exist_ok=True)
    _write_text(path, itertools.chain([head], _identity_rows(identity_rows), [tail]))


def _identity_rows(rows: list[dict]):
    """verify.json's identity rows, one string at a time, each float rendered
    by ``repr`` once: abs_err (never -0.0) through a cache of its few
    distinct values, and rhs by lhs's text where the two are equal and not
    zero, so that they have the same bits (0.0 == -0.0 is written apart)."""
    error_texts = {err: repr(err) for err in {row["abs_err"] for row in rows}}
    names = {*IDENTITY_COLUMNS, *(row["dist"] for row in rows)}
    quoted = {name: json.dumps(name) for name in names}
    for row in rows:
        left, right = row["lhs"], row["rhs"]
        text = repr(left)
        yield _IDENTITY_ROW % (
            error_texts[row["abs_err"]], row["dims"], quoted[row["dist"]], quoted[row["lemma"]],
            text, text if left == right != 0.0 else repr(right),
        )


def run_verification_suite(
    max_dim: int, cases: int, seed: int, output_dir: str | None = None
) -> VerificationSummary:
    """Randomized identity checks plus the fixed finite-n moment grid.

    ``cases`` random (matrix, distribution) draws are checked per
    identity at dimensions 1..max_dim; a report row is emitted per check,
    in case order, and the suite passes only if every exact comparison
    stays within ``VERIFY_THRESHOLD`` (a NaN never does).  The cases of one
    (dimension, law) group are checked together, on one enumeration of
    the group's grid.  With ``output_dir`` a NaN or infinite value raises
    :class:`NonFiniteReportError` and no verify.json is written.  A suite
    whose ``cases`` need more than physical memory, at ``_BYTES_PER_CASE``
    each, raises :class:`ConfigError` before anything is drawn.
    """
    max_dim, cases = _canonical("max_dim", "int", max_dim), _canonical("cases", "int", cases)
    seed = _canonical("seed", "int", seed)
    if max_dim > MAX_IDENTITY_DIM:
        raise EnumerationGuardError(f"max_dim is capped at {MAX_IDENTITY_DIM}, got {max_dim}")
    if max_dim < 1:
        raise ConfigError(f"max_dim must be at least 1, got {max_dim}")
    if cases < 1:
        raise ConfigError(f"cases must be at least 1, got {cases}")
    if seed < 0:
        raise ConfigError(f"seed must be non-negative, got {seed}")
    _refuse_beyond_memory({f"cases {cases}": cases * _BYTES_PER_CASE})

    lhs, rhs, dims = _identity_columns(np.random.default_rng(seed), max_dim, cases)
    abs_err = np.abs(lhs - rhs)
    max_err = dict(zip(IDENTITY_COLUMNS, abs_err.max(axis=0).tolist()))  # NaN propagates
    # row k checks IDENTITY_COLUMNS[k % 3] of case k // 3, under VERIFICATION_LAWS[k // 3 % 3]
    laws = [dist.selector for dist in VERIFICATION_LAWS for _ in IDENTITY_COLUMNS]
    rows = [
        {"lemma": lemma, "dims": dim, "dist": law, "lhs": left, "rhs": right, "abs_err": err}
        for lemma, dim, law, left, right, err in zip(
            itertools.cycle(IDENTITY_COLUMNS), np.repeat(dims, 3).tolist(), itertools.cycle(laws),
            lhs.ravel().tolist(), rhs.ravel().tolist(), abs_err.ravel().tolist(),
        )
    ]
    finite_rows = []
    for n, models in _finite_moment_grid():  # under the first two laws of the cases
        by_law = [_finite_rows(n, models, dist) for dist in VERIFICATION_LAWS[:2]]
        finite_rows += itertools.chain.from_iterable(zip(*by_law))  # model first, then law
    max_err["finite_n_moments"] = float(np.max([row["abs_err"] for row in finite_rows]))
    ok = all(v <= VERIFY_THRESHOLD for v in max_err.values())

    files: list[str] = []
    if output_dir is not None:
        header = {
            "version": VERSION_STRING,
            "threshold": VERIFY_THRESHOLD,
            "max_abs_err": max_err,
            "ok": ok,
        }
        path = Path(output_dir) / "verify.json"
        _write_verify_json(path, header, rows, finite_rows)
        files.append(str(path))

    return VerificationSummary(
        cases=rows + finite_rows,
        max_abs_err=max_err,
        ok=ok,
        files=files,
    )
