"""The benchmark's workloads, each with the reason it was chosen.

A workload fixes the experiment config.  The master seed comes from the
benchmark's ``--seed`` argument; the run length of one call (``reps`` for
``simulate``, ``cases`` for ``verify``) is fixed here so that every commit
measures the same amount of work.  Later issues cite workloads and metrics
by the names used here and in ``BENCHMARK.json``.

This module is plain data: the orchestrator imports it without numpy.
"""

from __future__ import annotations

from dataclasses import dataclass, field

# Seed of the stored reference outputs (``reference.json``).  It is not a
# workload seed: every run also replays this seed at ``reference_reps`` and
# compares ks and the Q-Q quantiles against the stored values.
REFERENCE_SEED = 20211

# Relative tolerance of the reference comparison.  The tolerance, not a
# byte digest, lets a kernel change the last bits of T_1 and T_2; whitening
# amplifies such a change to about 1e-12 relative, far below this bound,
# while any change to the statistic itself moves the quantiles by more.
REFERENCE_RTOL = 1e-6

# ``verify`` must report ok with every exact comparison within this bound.
VERIFY_ABS_ERR_MAX = 1e-9


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "simulate" (harness.run_experiment) or "verify" (run_verification_suite)
    why: str
    config: dict = field(default_factory=dict)
    reps: int = 0  # replications (simulate) or random cases (verify) per call
    reference_reps: int = 0


WORKLOADS = {
    w.name: w
    for w in (
        # The heavy half of the paper's grid.  The gamma draw is about 63% of
        # a replication and the p-side kernel (Sigma^1/2 X, then YY' and the
        # traces) the rest; set-up includes a 500x500 Haar QR.  It is the
        # workload for cheaper gamma draws and the Sigma (XX') kernel
        # (ROADMAP 2(b), 2(c)).
        Workload(
            name="panel_p500",
            kind="simulate",
            why=(
                "Heavy half of the paper's grid: the gamma draw is ~63% of a "
                "replication and the p-side kernel (Sigma^1/2 X, YY' and traces) "
                "the rest; set-up runs a 500x500 Haar QR."
            ),
            config=dict(
                p=500, n=1000, alpha=0.2, beta=0.5, dist="gamma:4:0.5", workers=1
            ),
            reps=40,
            reference_reps=12,
        ),
        # The paper's first panel, run the way a user speeds up the grid.  The
        # kernel is small (about 1 ms against a 4.4 ms draw), so the worker
        # pool, per-job model pickling and BLAS threads inside workers set
        # the throughput (ROADMAP 2(a)).  It is the only workload that runs
        # harness's process pool.  With default BLAS threads its call time
        # swings between about 3 and 7.5 s from the oversubscription itself,
        # so it is not in BENCHMARK.json; run it by name to see the pool's
        # metrics.  The benchmark does not pin threads to steady it, because
        # that would hide the defect.
        Workload(
            name="pool_p100_w2",
            kind="simulate",
            why=(
                "The paper's first panel run with workers=2: a small kernel, so the "
                "process pool, per-job model pickling and BLAS threads inside "
                "workers set the throughput."
            ),
            config=dict(
                p=100, n=1000, alpha=0.2, beta=0.1, dist="gamma:4:0.5", workers=2
            ),
            reps=300,
            reference_reps=40,
        ),
        # p > n takes the n x n Gram side: the Gram build, a SymMatrix symmetry
        # scan on every replication, lss_traces up to T_4 and the centered
        # pair.  Normal innovations and a diagonal model bypass the gamma
        # sampler and the Sigma^1/2 projection, so a p-side or gamma-only
        # change predicts no move here.  Set-up runs a dense 1000x1000
        # trace_set on the diagonal model.
        Workload(
            name="gram_wide",
            kind="simulate",
            why=(
                "p > n takes the n x n Gram side (symmetry scan, traces to T_4, "
                "centered pair) and bypasses the gamma sampler and the Sigma^1/2 "
                "projection; set-up runs a dense 1000x1000 trace_set."
            ),
            config=dict(
                p=1000,
                n=300,
                alpha=0.5,
                beta=0.1,
                dist="normal",
                diagonal_only=True,
                centered=True,
                max_power=4,
                workers=1,
            ),
            reps=100,
            reference_reps=20,
        ),
        # Pure-Python exhaustive enumeration (itertools.product and
        # math.fsum) behind ``covlss verify``.  No BLAS and no replications:
        # the only workload for the enumeration layer, and no simulate-side
        # change should move it.
        Workload(
            name="verify_dim4",
            kind="verify",
            why=(
                "Pure-Python exhaustive enumeration of the moment identities: no "
                "BLAS and no replications, so only enumeration changes move it."
            ),
            config=dict(max_dim=4),
            reps=2000,
            reference_reps=60,
        ),
    )
}


def experiment_kwargs(w: Workload, seed: int, reps: int) -> dict:
    """ExperimentConfig fields of one simulate call (output_dir excluded)."""
    return dict(w.config, reps=reps, master_seed=seed)
