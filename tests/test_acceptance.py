"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL line.

Heavier Monte Carlo criteria reuse the production replication path with a
single worker; every run is pinned to a fixed master seed.
"""

import time

import numpy as np

from covlss.enumeration import FINITE_N_COLUMNS, verify_finite_n_moments
from covlss.harness import (
    ExperimentConfig,
    build_experiment_model,
    run_experiment,
    run_replications,
    run_verification_suite,
)
from covlss.innovations import rademacher, two_point
from covlss.moments import moment_set, single_spike_variance
from covlss.population import TraceSet, assemble_model


def announce(criterion, ok, detail):
    print(f"[criterion {criterion}] {'PASS' if ok else 'FAIL'} - {detail}")


def rotation(theta):
    return np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])


def spiked_model(tau1, p):
    return assemble_model([tau1] + [1.0] * (p - 1))


def monte_carlo_t_pairs(model, n, dist_selector, reps, seed, centered=False):
    cfg = ExperimentConfig(
        p=model.p, n=n, dist=dist_selector, reps=reps, master_seed=seed,
        centered=centered,
    )
    return run_replications(model, cfg, workers=1).T  # T_1, T_2 and, centered, T_1^0, T_2^0


def test_criterion_1_exact_moment_oracle_suite():
    # p = 1 cells use the 1x1 leading principal submatrix of each listed
    # population matrix; matrices repeat across (p, n) pairs otherwise
    start = time.monotonic()
    rot = rotation(np.pi / 4)
    exact = [FINITE_N_COLUMNS.index(c) for c in ("e_t1", "var_t1", "e_t2")]
    worst = 0.0
    cells = 0
    for p, n in ((1, 2), (2, 2), (2, 3)):
        if p == 1:
            models = [assemble_model([1.0]), assemble_model([1.5])]
        else:
            models = [
                assemble_model([1.0, 1.0]),
                assemble_model([2.0, 1.0]),
                assemble_model([2.0, 1.0], rot),
            ]
        for dist in (rademacher(), two_point(0.2)):
            enumerated, formula = verify_finite_n_moments(models, n, dist)
            for left, right in zip(enumerated[:, exact].ravel(), formula[:, exact].ravel()):
                worst = max(worst, abs(left - right))
            cells += len(models)
    elapsed = time.monotonic() - start
    ok = worst <= 1e-10 and elapsed < 5.0
    announce(1, ok, f"{cells} cells, max abs err {worst:.3e}, {elapsed:.2f}s")
    assert worst <= 1e-10
    assert elapsed < 5.0


def test_criterion_2_identity_verification_grid():
    start = time.monotonic()
    summary = run_verification_suite(max_dim=3, cases=200, seed=20260809)
    elapsed = time.monotonic() - start
    worst = max(summary.max_abs_err.values())
    ok = summary.ok and elapsed < 30.0
    announce(2, ok, f"per-identity max {summary.max_abs_err}, {elapsed:.2f}s")
    assert summary.ok, summary.max_abs_err
    assert worst <= 1e-9
    assert elapsed < 30.0


def test_criterion_3_leading_order_covariance_entries():
    start = time.monotonic()
    cfg = ExperimentConfig(
        p=50, n=500, alpha=0.2, beta=0.1, dist="normal", reps=10**4,
        master_seed=31, diagonal_only=True,
    )
    model = build_experiment_model(cfg)
    t1, t2 = monte_carlo_t_pairs(model, 500, "normal", 10**4, 31)
    ms = moment_set(model.traces, 500, 0.0)
    p12, p22 = ms.psi12, ms.psi22
    cov = np.cov(t1, t2, ddof=1)
    err12 = abs(cov[0, 1] / p12 - 1.0)
    err22 = abs(cov[1, 1] / p22 - 1.0)
    elapsed = time.monotonic() - start
    ok = err12 <= 0.10 and err22 <= 0.10 and elapsed < 120.0
    announce(
        3,
        ok,
        f"cov rel err {err12:.3f}, var(T2) rel err {err22:.3f}, {elapsed:.1f}s",
    )
    assert err12 <= 0.10
    assert err22 <= 0.10
    assert elapsed < 120.0


def test_criterion_4_chi_square_qq_reproduction(tmp_path):
    start = time.monotonic()
    cfg = ExperimentConfig(
        p=100, n=1000, alpha=0.2, beta=0.1, dist="gamma:4:0.5", reps=2000,
        master_seed=41, output_dir=str(tmp_path / "fig"),
    )
    result = run_experiment(cfg)
    elapsed = time.monotonic() - start
    ok = result.qq.ks <= 0.05 and elapsed < 300.0
    announce(4, ok, f"ks {result.qq.ks:.4f} over 2000 reps, {elapsed:.1f}s")
    assert result.qq.ks <= 0.05
    assert elapsed < 300.0


def single_spike_traces(tau1, p):
    # diag(tau1, 1, ..., 1): every trace functional is an eigenvalue power sum
    tr1, tr2, tr3, tr4 = (tau1**k + (p - 1) for k in range(1, 5))
    return TraceSet(tr1=tr1, tr2=tr2, tr3=tr3, tr4=tr4, trH11=tr2, trH12=tr3, trH22=tr4)


def test_criterion_5_weak_spike_variance():
    # the weak-spike value 4c(2+5c+2c^2) = 36 at c = 1, nu4 = 0 is the
    # p -> infinity limit of Var T2 for a fixed spike tau1; at tau1 = 5,
    # p = n = 500 the spike term tau1^4/p = 1.25 is not small, so the
    # finite-p reference is the leading-order psi22 of this spectrum
    start = time.monotonic()
    tau1, p, n, reps = 5.0, 500, 500, 10**4
    model = spiked_model(tau1, p)
    t1, t2 = monte_carlo_t_pairs(model, n, "normal", reps, 51)
    var_emp = float(t2.var(ddof=1))
    # standard error of the sample variance from the fourth central moment
    m4 = float(np.mean((t2 - t2.mean()) ** 4))
    se = np.sqrt((m4 - var_emp**2 * (reps - 3) / (reps - 1)) / reps)
    p22 = moment_set(model.traces, n, 0.0).psi22
    limit = single_spike_variance(1, 1.0, 0.0).variance
    case2 = single_spike_variance(2, 1.0, 0.0, delta=tau1 / p**0.25).variance
    rel = abs(var_emp / p22 - 1.0)

    # fixed tau1, p = n growing: psi22 falls monotonically to the limit 36
    path = [
        moment_set(single_spike_traces(tau1, m), m, 0.0).psi22
        for m in (500, 5000, 50000, 10**6)
    ]
    gaps = [abs(v - limit) for v in path]
    monotone = all(a > b for a, b in zip(gaps, gaps[1:]))
    converged = gaps[-1] / limit <= 1e-3
    off_limit = abs(var_emp - limit) > 3 * se
    elapsed = time.monotonic() - start
    ok = rel <= 0.10 and off_limit and monotone and converged and elapsed < 180.0
    announce(
        5,
        ok,
        f"tau1^4/p {tau1 ** 4 / p:.2f}; empirical Var(T2) {var_emp:.2f} +- {se:.2f} (1 SE) "
        f"vs psi22 {p22:.2f} (rel err {rel:.3f}, {abs(var_emp - p22) / se:.1f} SE) "
        f"and limit {limit:g} ({abs(var_emp - limit) / se:.1f} SE); case-2 value {case2:g}; "
        f"psi22 at p = n = 1e6 is {path[-1]:.4f}; {elapsed:.1f}s",
    )
    assert elapsed < 180.0
    assert rel <= 0.10, (
        f"empirical Var(T2) = {var_emp:.2f} is {rel:.1%} from psi22 = {p22:.2f}"
    )
    assert off_limit, (
        f"empirical Var(T2) = {var_emp:.2f} is within 3 SE ({se:.2f}) of the "
        f"limit {limit:g}; the finite-p spike term tau1^4/p = {tau1 ** 4 / p:.2f} should show"
    )
    assert monotone, path
    assert converged, path


def test_criterion_6_dominant_spike_rescaled_variance():
    start = time.monotonic()
    tau1, p, n, reps = 60.0, 200, 200, 10**4
    model = spiked_model(tau1, p)
    t1, t2 = monte_carlo_t_pairs(model, n, "normal", reps, 61)
    scaled = np.sqrt(n) / tau1**2 * (t2 - t2.mean())
    var_emp = float(scaled.var(ddof=1))
    target = single_spike_variance(3, p / n, 0.0).variance
    rel = abs(var_emp / target - 1.0)
    elapsed = time.monotonic() - start
    ok = rel <= 0.15 and elapsed < 120.0
    announce(6, ok, f"rescaled Var {var_emp:.3f} vs {target} (rel err {rel:.3f}), {elapsed:.1f}s")
    assert rel <= 0.15
    assert elapsed < 120.0


def test_criterion_7_centered_mean_shift():
    # enumeration side: p=2, n=3, sigma = diag(1, 2)
    model = assemble_model([2.0, 1.0])
    n = 3
    ts = model.traces
    formula_shift = -(ts.tr1**2 + 2 * n * ts.tr2) / n**2

    e_t2, e_t2c = FINITE_N_COLUMNS.index("e_t2"), FINITE_N_COLUMNS.index("e_t2_centered")
    (enum_tp,), _ = verify_finite_n_moments([model], n, two_point(0.2))
    enum_shift_tp = enum_tp[e_t2c] - enum_tp[e_t2]
    ratio = enum_shift_tp / formula_shift
    (enum_rad,), _ = verify_finite_n_moments([model], n, rademacher())
    enum_shift_rad = enum_rad[e_t2c] - enum_rad[e_t2]

    # Monte Carlo side: E T1^0 discriminates (1 - 1/n) tr S from (1 + 1/n) tr S
    cfg = ExperimentConfig(
        p=50, n=500, alpha=0.2, beta=0.1, dist="normal", reps=3000,
        master_seed=71, diagonal_only=True, centered=True,
    )
    mc_model = build_experiment_model(cfg)
    _, _, t1c, _ = monte_carlo_t_pairs(mc_model, 500, "normal", 3000, 71, centered=True)
    se = float(t1c.std(ddof=1)) / np.sqrt(t1c.size)
    tr1 = mc_model.traces.tr1
    divisor_n_value = tr1 * (1 - 1 / 500)
    stated_value = tr1 * (1 + 1 / 500)
    dev_ours = abs(float(t1c.mean()) - divisor_n_value)
    dev_alt = abs(float(t1c.mean()) - stated_value)

    ok = (
        enum_shift_tp < 0
        and abs(ratio - 1.0) <= 0.25
        and dev_ours <= 3 * se
        and dev_alt > 3 * se
    )
    announce(
        7,
        ok,
        f"enumerated shift {enum_shift_tp:.4f} vs formula {formula_shift:.4f} "
        f"(ratio {ratio:.3f}; sign-innovation residual {enum_shift_rad - formula_shift:+.4f} "
        f"reported unasserted); MC mean T1^0 off by {dev_ours:.4f} "
        f"(3se = {3 * se:.4f}) and {dev_alt:.4f} from the +1/n variant",
    )
    assert enum_shift_tp < 0
    assert abs(ratio - 1.0) <= 0.25
    assert dev_ours <= 3 * se
    assert dev_alt > 3 * se


def test_criterion_8_worker_count_determinism(tmp_path):
    outputs = {}
    for workers in (1, 2, 8):
        out = tmp_path / f"w{workers}"
        cfg = ExperimentConfig(
            p=8, n=12, alpha=0.3, beta=0.25, dist="gamma:4:0.5", reps=64,
            master_seed=81, workers=workers, output_dir=str(out), centered=True,
        )
        run_experiment(cfg)
        outputs[workers] = (
            (out / "qq.csv").read_bytes(),
            (out / "qq_centered.csv").read_bytes(),
        )
    ok = outputs[1] == outputs[2] == outputs[8]
    announce(8, ok, "qq.csv and qq_centered.csv byte-identical for 1, 2, 8 workers")
    assert outputs[1] == outputs[2]
    assert outputs[1] == outputs[8]
