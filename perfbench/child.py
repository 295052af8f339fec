"""One measured call of a workload, in a fresh process.

``run.py`` starts this script once per call so that each call's peak
resident memory is its own.  The argument is a JSON job; the last line
of standard output is a JSON result.  Jobs:

* ``call``: one ``run_experiment`` / ``run_verification_suite`` call,
  timed, its outputs checked, then the set-up timed on its own several
  times.  With ``trace`` the call runs under :class:`tracer.Tracer`.
* ``reference``: the workload at the stored reference seed, compared with
  ``reference.json``; also records the environment and a DGEMM rate.
* ``table``: per-replication stage times of the baseline configs.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import resource
import sys
from pathlib import Path
from statistics import median
from time import perf_counter

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402

from covlss.harness import (  # noqa: E402
    ExperimentConfig,
    build_experiment_model,
    run_experiment,
    run_replications,
    run_verification_suite,
)
from covlss.inference import check_covariance  # noqa: E402
from covlss.innovations import parse_dist  # noqa: E402
from covlss.moments import moment_set  # noqa: E402
from covlss.population import assemble_model  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import (  # noqa: E402
    REFERENCE_RTOL,
    REFERENCE_SEED,
    VERIFY_ABS_ERR_MAX,
    WORKLOADS,
    experiment_kwargs,
)

REFERENCE_ATOL = 1e-12
SETUP_MIN_SECONDS = 0.3
SETUP_MIN_SAMPLES = 3
SETUP_MAX_SAMPLES = 200


def _peak_rss_mb(who: int) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0  # Linux reports KiB


def _reject_constant(name: str):
    raise ValueError(f"non-finite JSON constant {name}")


def _simulate_config(w, seed: int, reps: int, out: str, workers=None) -> ExperimentConfig:
    kwargs = experiment_kwargs(w, seed, reps)
    if workers is not None:
        kwargs["workers"] = workers
    return ExperimentConfig(output_dir=out, **kwargs)


def _simulate_setup(cfg: ExperimentConfig) -> None:
    """What run_experiment does before its first replication."""
    model = build_experiment_model(cfg)
    dist = parse_dist(cfg.dist)
    ms = moment_set(model.traces, cfg.n, dist.profile.nu4, centered=cfg.centered)
    check_covariance(ms, context="benchmark set-up")


def _verify_setup(w, seed: int) -> None:
    """The suite's fixed cost: distributions, the finite-n grid and its checks."""
    run_verification_suite(w.config["max_dim"], 1, seed)


def _time_setup(fn, *args) -> list[float]:
    samples: list[float] = []
    began = perf_counter()
    while len(samples) < SETUP_MAX_SAMPLES and (
        len(samples) < SETUP_MIN_SAMPLES or perf_counter() - began < SETUP_MIN_SECONDS
    ):
        t0 = perf_counter()
        fn(*args)
        samples.append(perf_counter() - t0)
    return samples


def _check_qq(report, grid_size: int, label: str, problems: list[str]) -> None:
    q = np.asarray(report.q_empirical)
    if not (math.isfinite(report.ks) and 0.0 < report.ks <= 1.0):
        problems.append(f"{label}: ks {report.ks!r} outside (0, 1]")
    if q.shape != (grid_size,) or not np.all(np.isfinite(q)):
        problems.append(f"{label}: Q-Q quantiles missing or not finite")
    elif np.any(np.diff(q) < 0):
        problems.append(f"{label}: Q-Q quantiles not nondecreasing")


def _check_simulate(cfg: ExperimentConfig, result, problems: list[str]) -> str:
    """Check one run_experiment call's outputs; return a digest of its Q-Q files.

    The digest only compares calls within one run (reruns and worker
    counts must agree byte for byte); across commits the stored reference
    values are compared with a tolerance instead.
    """
    out = Path(cfg.output_dir)
    _check_qq(result.qq, cfg.grid_size, "qq", problems)
    names = ["qq.csv"]
    if cfg.centered:
        if result.qq_centered is None:
            problems.append("centered run returned no centered Q-Q report")
        else:
            _check_qq(result.qq_centered, cfg.grid_size, "qq_centered", problems)
            names.append("qq_centered.csv")
    try:
        summary = json.loads(
            (out / "summary.json").read_text(), parse_constant=_reject_constant
        )
    except (OSError, ValueError) as exc:
        problems.append(f"summary.json unreadable: {exc}")
    else:
        if summary.get("reps") != cfg.reps or summary.get("ks") != result.qq.ks:
            problems.append("summary.json disagrees with the returned result")
    digest = hashlib.sha256()
    for name in names:
        path = out / name
        if not path.is_file():
            problems.append(f"{name} was not written")
            continue
        data = path.read_bytes()
        lines = data.count(b"\n")
        if lines != cfg.grid_size + 1:
            problems.append(f"{name} has {lines} lines, not {cfg.grid_size + 1}")
        digest.update(data)
    return digest.hexdigest()


def _check_verify(w, cases: int, summary, problems: list[str]) -> str:
    """Check one run_verification_suite call; return a digest of verify.json."""
    if not summary.ok:
        problems.append("verification suite reported not ok")
    worst = max(summary.max_abs_err.values())
    if not worst <= VERIFY_ABS_ERR_MAX:
        problems.append(f"max abs_err {worst!r} exceeds {VERIFY_ABS_ERR_MAX:g}")
    for lemma in ("quadratic_covariance", "fourth_moment", "triple_product"):
        rows = sum(1 for row in summary.cases if row["lemma"] == lemma)
        if rows != cases:
            problems.append(f"{rows} {lemma} rows, expected {cases}")
    if not any(row["lemma"] == "finite_n_moments" for row in summary.cases):
        problems.append("no finite_n_moments rows")
    try:
        data = Path(summary.files[0]).read_bytes()
        payload = json.loads(data, parse_constant=_reject_constant)
    except (OSError, ValueError, IndexError) as exc:
        problems.append(f"verify.json unreadable: {exc}")
        return ""
    if len(payload.get("cases", [])) != len(summary.cases) or payload.get("ok") is not True:
        problems.append("verify.json disagrees with the returned summary")
    return hashlib.sha256(data).hexdigest()


def job_call(job: dict) -> dict:
    w = WORKLOADS[job["workload"]]
    seed, reps, out = job["seed"], job["reps"], job["out"]
    problems: list[str] = []
    tracer = Tracer().install() if job.get("trace") else None
    try:
        if w.kind == "simulate":
            cfg = _simulate_config(w, seed, reps, out, job.get("workers"))
            call, args = run_experiment, (cfg,)
        else:
            call, args = run_verification_suite, (w.config["max_dim"], reps, seed, out)
        t0 = perf_counter()
        result = tracer.span("harness." + call.__name__, call, *args) if tracer else call(*args)
        wall = perf_counter() - t0
    finally:
        if tracer:
            tracer.close()
    rss = _peak_rss_mb(resource.RUSAGE_SELF)
    worker_rss = _peak_rss_mb(resource.RUSAGE_CHILDREN)
    record = {"wall_s": wall, "peak_rss_mb": rss, "worker_peak_rss_mb": worker_rss}
    if w.kind == "simulate":
        record["output_digest"] = _check_simulate(cfg, result, problems)
        record["items"] = reps
        record["setup_s"] = _time_setup(_simulate_setup, cfg)
    else:
        record["output_digest"] = _check_verify(w, reps, result, problems)
        record["items"] = len(result.cases)
        record["setup_s"] = _time_setup(_verify_setup, w, seed)
    record["problems"] = problems
    if tracer:
        record["spans"] = [row + [job["run_id"]] for row in tracer.spans]
        record["counters"] = dict(tracer.counters)
    return record


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= REFERENCE_RTOL * max(abs(a), abs(b)) + REFERENCE_ATOL


def reference_outputs(name: str, out: str) -> dict:
    """The values ``reference.json`` stores for one workload."""
    w = WORKLOADS[name]
    if w.kind == "verify":
        s = run_verification_suite(w.config["max_dim"], w.reference_reps, REFERENCE_SEED)
        return {"rows": [[r["lemma"], r["lhs"], r["rhs"]] for r in s.cases
                         if r["lemma"] != "finite_n_moments"]}
    cfg = _simulate_config(w, REFERENCE_SEED, w.reference_reps, out)
    r = run_experiment(cfg)
    values = {"ks": r.qq.ks, "q_empirical": [float(v) for v in r.qq.q_empirical]}
    if r.qq_centered is not None:
        values["ks_centered"] = r.qq_centered.ks
        values["q_empirical_centered"] = [float(v) for v in r.qq_centered.q_empirical]
    return values


def _flatten(values) -> list[float]:
    if isinstance(values, (int, float)):
        return [float(values)]
    if isinstance(values, str):
        return []
    return [x for v in values for x in _flatten(v)]


def environment(dgemm_size: int = 1000, repeats: int = 5) -> dict:
    """Library, BLAS and thread setup as found, plus a measured DGEMM rate."""
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    rng = np.random.default_rng(0)
    a = rng.standard_normal((dgemm_size, dgemm_size))
    b = rng.standard_normal((dgemm_size, dgemm_size))
    a @ b  # start the BLAS threads before timing
    times = []
    for _ in range(repeats):
        t0 = perf_counter()
        a @ b
        times.append(perf_counter() - t0)
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS", "unset"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "dgemm_gflop_per_s": 2.0 * dgemm_size**3 / median(times) / 1e9,
    }


def job_reference(job: dict) -> dict:
    name = job["workload"]
    stored = json.loads((HERE / "reference.json").read_text())[name]
    got = reference_outputs(name, job["out"])
    problems = []
    worst = 0.0
    for key, want in stored.items():
        a, b = _flatten(want), _flatten(got.get(key, []))
        if len(a) != len(b):
            problems.append(f"reference {key}: {len(b)} values, expected {len(a)}")
            continue
        for x, y in zip(a, b):
            worst = max(worst, abs(x - y) / max(abs(x), abs(y), REFERENCE_ATOL))
            if not _close(x, y):
                problems.append(f"reference {key}: {y!r} differs from stored {x!r}")
                break
    return {"problems": problems, "max_rel_err": worst, "env": environment()}


# The ROADMAP baseline table: per-replication stages at the panel configs
# and at the criterion 5 config (p = n = 500, diagonal with one spike
# tau1 = 5, normal).  Rows: label, config fields, reps, spike (None: the
# config's own rotated model).
TABLE_ROWS = [
    ("p=100, n=1000, gamma", dict(p=100, n=1000, alpha=0.2, beta=0.1, dist="gamma:4:0.5"), 60, None),
    ("p=500, n=1000, gamma", dict(p=500, n=1000, alpha=0.2, beta=0.5, dist="gamma:4:0.5"), 30, None),
    ("Criterion 5 (p=n=500, diagonal, normal)", dict(p=500, n=500, dist="normal"), 40, 5.0),
]
TABLE_STAGES = [
    ("total", "lss.run_replication"),
    ("draw", "innovations.sample_block"),
    ("sigma_half_x", "lss.half_times"),
    ("yy_traces", "lss.traces_p_side"),
]


def job_table(job: dict) -> dict:
    rows = []
    for label, fields, reps, spike in TABLE_ROWS:
        cfg = ExperimentConfig(reps=reps, master_seed=job["seed"], **fields)
        if spike is None:
            model = build_experiment_model(cfg)
        else:
            model = assemble_model([spike] + [1.0] * (cfg.p - 1))
        run_replications(model, cfg, 1)  # warm-up: BLAS threads, page faults
        with Tracer() as tracer:
            run_replications(model, cfg, 1)
        by_name: dict[str, list[float]] = {}
        for name, start, end, _ in tracer.spans:
            by_name.setdefault(name, []).append(end - start)
        row = {"config": label, "reps": reps}
        for key, span in TABLE_STAGES:
            got = by_name.get(span)
            row[key + "_ms"] = median(got) * 1e3 if got else None
        rows.append(row)
    return {"rows": rows, "env": environment(), "problems": []}


def main() -> None:
    job = json.loads(sys.argv[1])
    handler = {"call": job_call, "reference": job_reference, "table": job_table}[job["mode"]]
    print(json.dumps(handler(job)))


if __name__ == "__main__":
    main()
