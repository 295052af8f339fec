"""The covlss benchmark: end-to-end and per-layer cost of simulate and verify.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload panel_p500 --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload panel_p500 --seed 1 --seconds 30 --trace 1
    python3 perfbench/run.py --table --seed 1

``--trace 0`` repeats one complete call of the workload (``run_experiment``
for ``simulate``, ``run_verification_suite`` for ``verify``), each in a
fresh process, until ``--seconds`` have passed, and reports the medians of
the end-to-end metrics.  ``--trace 1`` runs the same calls with spans
around each layer boundary (see ``tracer.py``) and reports the per-layer
metrics, the tracing overhead and the environment.  ``--table`` prints the
per-replication stage table of ROADMAP's baseline.  Workloads and the
reasons for them are in ``workloads.py``.

Every run also checks outputs: each call's reports, the replay of a stored
reference seed against ``reference.json``, byte-identical reports across
the calls of a run and, for the pool workload, against one worker.  A call
that raises, exits nonzero or fails a check counts in ``failed``.

The benchmark sets no BLAS or OpenMP thread variable: the thread setup
found is recorded, so that oversubscription in the worker pool shows.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines above it
are a readable report.  A copy of everything measured goes to
``.perfbench_out/results/``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path
from statistics import median

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_ROOT = ROOT / ".perfbench_out"
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402

CHILD_TIMEOUT_S = 150
MIN_CALLS = 3
# untraced calls in a traced run, the base of the tracing overhead
UNTRACED_CALLS = 3

END_TO_END_UNITS = {
    "wall_s": "s",
    "setup_s": "s",
    "items_per_s": "1/s",
    "peak_rss_mb": "MB",
}

# name -> unit.  Each comment names the end-to-end metric the layer metric
# should move and on which workload; elsewhere the prediction is no move.
PER_LAYER_UNITS = {
    # items_per_s on every simulate workload, by a little (~24 us per rep)
    "seeding.derive_seed_us": "us",
    # items_per_s on panel_p500 and pool_p100_w2 (gamma); not on gram_wide
    "innovations.sample_block_ms": "ms",
    "innovations.values_per_s": "1/s",
    "innovations.share_of_rep": "ratio",
    # items_per_s on panel_p500 (p side) and gram_wide (Gram side)
    "lss.run_replication_ms": "ms",
    "lss.kernel_ms": "ms",
    "lss.kernel_flops": "flop-computed",
    "lss.kernel_bytes": "B-computed",
    "lss.kernel_gflop_per_s": "GFLOP/s",
    "lss.kernel_rate_over_dgemm": "ratio",
    # items_per_s on panel_p500 and pool_p100_w2 only (the p-side stages)
    "lss.sigma_half_x_ms": "ms",
    "lss.yy_traces_ms": "ms",
    # items_per_s on gram_wide only
    "lss.generate_gram_ms": "ms",
    "lss.lss_traces_ms": "ms",
    "lss.centered_lss_ms": "ms",
    "symmat.symmatrix_ms": "ms",
    # setup_s on panel_p500 and gram_wide; negligible on pool_p100_w2
    "population.haar_orthogonal_ms": "ms",
    "population.assemble_model_ms": "ms",
    "symmat.trace_set_ms": "ms",
    "moments.moment_set_us": "us",
    # wall_s on every simulate workload, by a small share
    "inference.whiten_us": "us",
    "inference.qq_report_ms": "ms",
    "harness.residual_ms": "ms",
    # items_per_s and peak_rss_mb on pool_p100_w2 only
    "harness.run_replications_s": "s",
    "harness.jobs": "count",
    "harness.job_pickle_bytes": "B",
    "harness.parallel_efficiency": "ratio",
    "harness.worker_peak_rss_mb": "MB",
    # items_per_s on verify_dim4 only
    "enumeration.quadratic_covariance_us": "us",
    "enumeration.fourth_moment_us": "us",
    "enumeration.triple_product_us": "us",
    "enumeration.finite_n_moments_ms": "ms",
    "enumeration.assignments": "count",
    "enumeration.us_per_assignment": "us",
    # traced wall_s minus untraced wall_s, and the machine's DGEMM rate
    "trace.overhead_s": "s",
    "env.dgemm_gflop_per_s": "GFLOP/s",
}

# timing metric -> (span name, scale from seconds)
SPAN_TIMINGS = {
    "seeding.derive_seed_us": ("seeding.derive_seed", 1e6),
    "innovations.sample_block_ms": ("innovations.sample_block", 1e3),
    "lss.run_replication_ms": ("lss.run_replication", 1e3),
    "lss.sigma_half_x_ms": ("lss.half_times", 1e3),
    "lss.yy_traces_ms": ("lss.traces_p_side", 1e3),
    "lss.generate_gram_ms": ("lss.generate_gram", 1e3),
    "lss.lss_traces_ms": ("lss.lss_traces", 1e3),
    "lss.centered_lss_ms": ("lss.centered_lss", 1e3),
    "symmat.symmatrix_ms": ("symmat.symmatrix", 1e3),
    "population.haar_orthogonal_ms": ("population.haar_orthogonal", 1e3),
    "population.assemble_model_ms": ("population.assemble_model", 1e3),
    "symmat.trace_set_ms": ("symmat.trace_set", 1e3),
    "moments.moment_set_us": ("moments.moment_set", 1e6),
    "inference.whiten_us": ("inference.whiten", 1e6),
    "inference.qq_report_ms": ("inference.qq_report", 1e3),
    "enumeration.quadratic_covariance_us": ("enumeration.quadratic_covariance", 1e6),
    "enumeration.fourth_moment_us": ("enumeration.fourth_moment", 1e6),
    "enumeration.triple_product_us": ("enumeration.triple_product", 1e6),
    "enumeration.finite_n_moments_ms": ("enumeration.finite_n_moments", 1e3),
}


class Run:
    """One benchmark run: its child jobs, their outcomes and failures."""

    def __init__(self, workload: str, seed: int, reps: int | None = None) -> None:
        self.workload = WORKLOADS[workload]
        self.seed = seed
        self.reps = reps or self.workload.reps
        self.work = OUT_ROOT / "work" / f"{workload}-{seed}-{os.getpid()}"
        self.attempted = 0
        self.failures: list[str] = []

    def job(self, mode: str, **fields) -> dict | None:
        """Run one child job; return its record, or None if it crashed.

        A record whose output check found problems is returned, and counted
        as failed.
        """
        self.attempted += 1
        out = self.work / f"job{self.attempted}"
        spec = dict(
            mode=mode, workload=self.workload.name, seed=self.seed, out=str(out),
            run_id=self.attempted,
        )
        spec.update(fields)
        try:
            proc = subprocess.run(
                [sys.executable, str(HERE / "child.py"), json.dumps(spec)],
                capture_output=True,
                text=True,
                timeout=CHILD_TIMEOUT_S,
                cwd=ROOT,
            )
        except subprocess.TimeoutExpired:
            return self._fail(f"{mode} job {self.attempted} timed out")
        finally:
            shutil.rmtree(out, ignore_errors=True)
        if proc.returncode != 0:
            tail = proc.stderr.strip().splitlines()[-1:] or ["no message"]
            return self._fail(f"{mode} job {self.attempted} exited {proc.returncode}: {tail[0]}")
        try:
            record = json.loads(proc.stdout.strip().splitlines()[-1])
        except (IndexError, ValueError):
            return self._fail(f"{mode} job {self.attempted} printed no result")
        if record["problems"]:
            self._fail(f"{mode} job {self.attempted}: " + "; ".join(record["problems"]))
        return record

    def _fail(self, message: str) -> None:
        self.failures.append(message)
        return None

    def calls(self, seconds: float, minimum: int, **fields) -> list[dict]:
        """Timed calls until ``seconds`` have passed and at least ``minimum`` ran."""
        records: list[dict] = []
        began = time.perf_counter()
        tries = 0
        while tries < minimum or time.perf_counter() - began < seconds:
            tries += 1
            record = self.job("call", reps=self.reps, **fields)
            if record is not None and not record["problems"]:
                records.append(record)
        return records

    def check_same_outputs(self, records: list[dict], label: str) -> None:
        """Reports must be byte-identical across the calls of one run."""
        for i, record in enumerate(records[1:], start=2):
            if record["output_digest"] != records[0]["output_digest"]:
                self.failures.append(f"{label} {i}: reports differ from the first call")


def summarize(samples: list[float], scale: float = 1.0) -> dict:
    """Median and the highest percentile with at least ten samples beyond it."""
    n = len(samples)
    if n == 0:
        return {"median": 0.0, "tail": None, "tail_value": None, "samples": 0}
    ordered = sorted(samples)
    out = {"median": median(ordered) * scale, "tail": None, "tail_value": None, "samples": n}
    for level in (99.9, 99.0, 90.0, 75.0, 50.0):
        rank = math.ceil(level / 100.0 * n)
        if n - rank >= 10:
            out["tail"], out["tail_value"] = f"p{level:g}", ordered[rank - 1] * scale
            break
    return out


def kernel_cost(cfg: dict) -> tuple[float, float]:
    """Computed (not measured) flops and bytes of one replication's kernel.

    The kernel is run_replication less the draw and the seed: the
    projection by Sigma (or Sigma^1/2), the product on the smaller side
    (YY' if p <= n, X'Sigma X otherwise), the traces up to max_power and
    the centered pair.  Products count 2mnk flops as DGEMM does; bytes
    count each operand read once and each result written once.
    """
    p, n = cfg["p"], cfg["n"]
    diagonal = cfg.get("diagonal_only", False)
    m = min(p, n)
    flops = (p * n if diagonal else 2 * p * p * n) + 2 * m * m * max(p, n) + 2 * m * m
    words = 2 * p * n + (p if diagonal else p * p) + 2 * p * n + m * m + m * m
    if cfg.get("max_power", 2) >= 3:
        flops += 2 * m**3 + 4 * m * m
        words += 3 * m * m
    if cfg.get("centered", False):
        flops += 3 * p * n if p <= n else m * m + 2 * m
        words += 2 * p * n if p <= n else m * m
    return float(flops), 8.0 * words


def end_to_end(records: list[dict]) -> dict:
    """Each metric's samples: one per call, set-up several times per call."""
    return {
        "wall_s": [r["wall_s"] for r in records],
        "setup_s": [s for r in records for s in r["setup_s"]],
        "items_per_s": [r["items"] / (r["wall_s"] - median(r["setup_s"])) for r in records],
        "peak_rss_mb": [r["peak_rss_mb"] for r in records],
    }


def per_layer(run: Run, traced: list[dict], aux: list[dict], untraced: list[dict], env: dict):
    """Per-layer metrics from the spans of the traced calls.

    ``aux`` holds the one-worker call of a pool workload, whose
    replications run in this process's child and so are visible to the
    tracer; the pool's own replications run in workers and are not.
    """
    durations: dict[str, list[float]] = defaultdict(list)
    self_time: dict[str, list[float]] = defaultdict(list)
    kernel: list[float] = []
    residual: list[float] = []
    for is_main, record in [(True, r) for r in traced] + [(False, r) for r in aux]:
        spans = record["spans"]
        children = [0.0] * len(spans)
        draw_and_seed = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                children[parent] += end - start
                if name in ("innovations.sample_block", "seeding.derive_seed"):
                    draw_and_seed[parent] += end - start
        for i, (name, start, end, parent, _) in enumerate(spans):
            durations[name].append(end - start)
            self_time[name].append(end - start - children[i])
            if name == "lss.run_replication":
                kernel.append(end - start - draw_and_seed[i])
            if parent < 0 and is_main:
                residual.append(end - start - children[i])

    timings = {name: summarize(durations[span], scale) for name, (span, scale) in SPAN_TIMINGS.items()}
    timings["lss.kernel_ms"] = summarize(kernel, 1e3)
    timings["harness.residual_ms"] = summarize(residual, 1e3)
    main_replications = [
        end - start for r in traced for name, start, end, *_ in r["spans"]
        if name == "harness.run_replications"
    ]
    timings["harness.run_replications_s"] = summarize(main_replications)

    metrics = {name: t["median"] for name, t in timings.items()}
    counters = [r["counters"] for r in traced]
    drawn = sum(durations["innovations.sample_block"])
    replicating = sum(durations["lss.run_replication"])
    values = sum(r["counters"].get("values", 0) for r in traced + aux)
    metrics["innovations.values_per_s"] = values / drawn if drawn else 0.0
    metrics["innovations.share_of_rep"] = drawn / replicating if replicating else 0.0

    w = run.workload
    flops, nbytes = kernel_cost(w.config) if w.kind == "simulate" else (0.0, 0.0)
    kernel_s = timings["lss.kernel_ms"]["median"] / 1e3
    gflops = flops / kernel_s / 1e9 if kernel_s else 0.0
    metrics["lss.kernel_flops"] = flops
    metrics["lss.kernel_bytes"] = nbytes
    metrics["lss.kernel_gflop_per_s"] = gflops
    metrics["lss.kernel_rate_over_dgemm"] = gflops / env["dgemm_gflop_per_s"]

    metrics["harness.jobs"] = median(c.get("jobs", 0) for c in counters)
    metrics["harness.job_pickle_bytes"] = median(c.get("job_pickle_bytes", 0) for c in counters)
    one_worker = [
        end - start for r in aux for name, start, end, *_ in r["spans"]
        if name == "harness.run_replications"
    ]
    workers = w.config.get("workers", 1)
    metrics["harness.parallel_efficiency"] = (
        one_worker[0] / (workers * metrics["harness.run_replications_s"])
        if one_worker and workers > 1 else 0.0
    )
    metrics["harness.worker_peak_rss_mb"] = (
        median(r["worker_peak_rss_mb"] for r in traced) if workers > 1 else 0.0
    )

    metrics["enumeration.assignments"] = median(c.get("assignments", 0) for c in counters)
    enumerating = sum(self_time["enumeration.exact_expectation"]) + sum(
        self_time["enumeration.exact_variance"]
    )
    assignments = sum(c.get("assignments", 0) for c in counters)
    metrics["enumeration.us_per_assignment"] = enumerating / assignments * 1e6 if assignments else 0.0

    metrics["trace.overhead_s"] = median(r["wall_s"] for r in traced) - median(
        r["wall_s"] for r in untraced
    )
    metrics["env.dgemm_gflop_per_s"] = env["dgemm_gflop_per_s"]
    return metrics, timings


def _print_env(env: dict) -> None:
    print("environment: " + ", ".join(f"{k}={v}" for k, v in env.items() if k != "dgemm_gflop_per_s")
          + f", dgemm={env['dgemm_gflop_per_s']:.2f} GFLOP/s")


def _fmt(value: float) -> str:
    return f"{value:.6g}"


def benchmark(
    workload: str, seed: int, seconds: float, trace: bool, reps: int | None = None
) -> int:
    """One run; ``reps`` shrinks each call below the workload's run length."""
    run = Run(workload, seed, reps)
    w = run.workload
    print(f"covlss benchmark: workload={workload} seed={seed} seconds={seconds:g} trace={int(trace)}")
    print(f"  why: {w.why}")
    reference = run.job("reference")
    env = reference["env"] if reference else None

    untraced: list[dict] = []
    traced: list[dict] = []
    aux: list[dict] = []
    if trace:
        untraced = run.calls(0.0, UNTRACED_CALLS)
        traced = run.calls(seconds, MIN_CALLS, trace=True)
        measured = traced
    else:
        untraced = run.calls(seconds, MIN_CALLS)
        measured = untraced
    run.check_same_outputs(untraced + traced, "call")
    if w.config.get("workers", 1) > 1:
        # the worker-count determinism contract: one worker, same bytes
        one = run.job("call", reps=run.reps, workers=1, trace=trace)
        if one is not None and not one["problems"]:
            aux.append(one)
            run.check_same_outputs(measured[:1] + aux, "one-worker call")

    shutil.rmtree(run.work, ignore_errors=True)
    if not measured or not untraced or env is None:
        for failure in run.failures:
            print(f"FAILED: {failure}")
        print("no result: the workload did not complete", file=sys.stderr)
        return 1
    _print_env(env)
    if not reference["problems"]:
        print(f"reference check: ok (max relative error {reference['max_rel_err']:.3g})")

    failed = len(run.failures)
    per_call, rate = ("reps", "reps_per_s") if w.kind == "simulate" else ("cases", "checks_per_s")
    print(f"calls: {len(measured)} measured, {run.reps} {per_call} each")
    if trace:
        metrics, timings = per_layer(run, traced, aux, untraced, env)
        units = PER_LAYER_UNITS
        print(f"{'metric':38} {'median':>14} {'tail':>16} {'samples':>8}  unit")
        for name in units:
            t = timings.get(name)
            tail = f"{t['tail']}={_fmt(t['tail_value'])}" if t and t["tail"] else "-"
            count = str(t["samples"]) if t else "-"
            print(f"{name:38} {_fmt(metrics[name]):>14} {tail:>16} {count:>8}  {units[name]}")
    else:
        timings = {name: summarize(v) for name, v in end_to_end(measured).items()}
        metrics = {name: t["median"] for name, t in timings.items()}
        units = END_TO_END_UNITS
        for name, unit in units.items():
            label = f"{name} ({rate})" if name == "items_per_s" else name
            print(f"{label:32} {_fmt(metrics[name]):>14} {unit:4}  median of {timings[name]['samples']}")
        if w.config.get("workers", 1) > 1:
            worker_rss = median(r["worker_peak_rss_mb"] for r in measured)
            print(f"{'largest worker peak_rss_mb':32} {_fmt(worker_rss):>14} MB")
    print(f"failed_share: {failed}/{run.attempted} = {failed / run.attempted:.3g}")
    for failure in run.failures:
        print(f"FAILED: {failure}")

    result = {
        "correct": failed == 0,
        "attempted": run.attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    _save(run, trace, env, result, timings, measured + aux)
    print(json.dumps(result))
    return 0


def _save(run: Run, trace: bool, env: dict, result: dict, timings: dict, records: list[dict]) -> None:
    """Write the run's record and, for a traced run, its spans, one per line."""
    results = OUT_ROOT / "results"
    results.mkdir(parents=True, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    path = results / f"{run.workload.name}-seed{run.seed}-trace{int(trace)}-{stamp}.json"
    calls = [{k: v for k, v in r.items() if k != "spans"} for r in records]
    if trace:
        with open(path.with_suffix(".spans.jsonl"), "w") as spans:
            for record in records:
                spans.writelines(json.dumps(row) + "\n" for row in record["spans"])
    payload = {
        "workload": run.workload.name,
        "seed": run.seed,
        "trace": trace,
        "environment": env,
        "result": result,
        "timings": timings,
        "failures": run.failures,
        "calls": calls,
    }
    path.write_text(json.dumps(payload, indent=1) + "\n")


def table(seed: int) -> int:
    run = Run(next(iter(WORKLOADS)), seed)  # the table job ignores the workload
    record = run.job("table")
    shutil.rmtree(run.work, ignore_errors=True)
    if record is None:
        print(f"FAILED: {run.failures[0]}", file=sys.stderr)
        return 1
    _print_env(record["env"])
    print("| Config | Reps | Total | Draw | Sigma^1/2 X | YY' + traces |")
    print("|---|---|---|---|---|---|")
    for row in record["rows"]:
        cells = [
            "-" if row[k] is None else f"{row[k]:.2f} ms"
            for k in ("total_ms", "draw_ms", "sigma_half_x_ms", "yy_traces_ms")
        ]
        print(f"| {row['config']} | {row['reps']} | " + " | ".join(cells) + " |")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--table", action="store_true", help="print the baseline stage table")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "covlss").is_dir():
        print(f"covlss sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.table:
        return table(args.seed)
    if args.workload is None:
        parser.error("--workload is required")
    return benchmark(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
