import numpy as np
import pytest

from covlss.innovations import rademacher, sample_block, standard_normal
from covlss.lss import (
    ReplicationInvariantError,
    _check_invariants,
    _draw_x,
    _trace_stats,
    run_replication,
)
from covlss.population import assemble_model, haar_orthogonal
from covlss.seeding import REPLICATION_STREAM, derive_seed

SEED = 1234


def replicate(eigs, dist, n, rep=0, u=None, centered=False):
    """Replication ``rep``'s row of statistics, drawn and computed as the harness does."""
    model = assemble_model(eigs, u)
    return run_replication(model, _draw_x(dist, model.p, n, SEED, rep), rep, centered)


def symmetric_half(eigs, u=None):
    """The symmetric root Sigma^{1/2} = U L^{1/2} U', built independently of the model."""
    root = np.sqrt(np.asarray(eigs, dtype=float))
    if u is None:
        return np.diag(root)
    half = (u * root) @ u.T
    return 0.5 * (half + half.T)


def dense_sigma(eigs, u=None):
    half = symmetric_half(eigs, u)
    return half @ half


def replication_x(dist, p, n, rep):
    seed = derive_seed(SEED, REPLICATION_STREAM, rep)
    return sample_block(dist, seed, p * n).reshape(p, n)


def direct_pxp(x, half):
    """(T_1, T_2) of B and (T_1^0, T_2^0) of B - ybar ybar', built the p x p way
    from Y = half x for a square root ``half`` of Sigma."""
    y = half @ x
    b = (y @ y.T) / x.shape[1]
    ybar = y.mean(axis=1)
    b0 = b - np.outer(ybar, ybar)
    t = [float(np.trace(np.linalg.matrix_power(b, k))) for k in range(1, 3)]
    return t, (float(np.trace(b0)), float(np.trace(b0 @ b0)))


class TestGenerateGram:
    """The Gram matrix the kernel forms, seen through its traces."""

    def test_rademacher_single_column_identity(self):
        # x'x = p for any +-1 column, so the 1x1 Gram (p > n side) is always (2)
        for rep in range(5):
            t = replicate([1.0, 1.0], rademacher(), n=1, rep=rep)
            assert t == pytest.approx((2.0, 4.0), abs=1e-12)

    def test_scalar_population_rank_one(self):
        # p = 1: B = 4 |x|^2 / n is a scalar, so T_2 = T_1^2
        x = replication_x(standard_normal(), 1, 3, rep=1)
        t = replicate([4.0], standard_normal(), n=3, rep=1)
        assert t[0] == pytest.approx(4.0 * float(x[0] @ x[0]) / 3, rel=1e-12)
        assert t[1] == pytest.approx(t[0] ** 2, rel=1e-12)

    def test_matches_naive_triple_loop(self):
        u = haar_orthogonal(3, 7)
        x = replication_x(standard_normal(), 3, 2, rep=3)
        sig = dense_sigma([2.0, 1.0, 0.5], u)
        naive = np.zeros((2, 2))
        for i in range(2):
            for j in range(2):
                naive[i, j] = sum(
                    x[a, i] * sig[a, b] * x[b, j] for a in range(3) for b in range(3)
                )
        want = [np.trace(np.linalg.matrix_power(naive, k)) / 2**k for k in range(1, 3)]
        t = replicate([2.0, 1.0, 0.5], standard_normal(), n=2, rep=3, u=u)
        assert t == pytest.approx(want, rel=1e-12)

    def test_gram_is_psd(self):
        # power sums of nonnegative eigenvalues: T_k >= 0 and T_2 <= T_1^2
        for n in (1, 2, 4):
            for rep in range(5):
                t1, t2 = replicate([3.0, 1.0], standard_normal(), n=n, rep=rep)
                assert min(t1, t2) >= 0.0
                assert t2 <= t1 * t1 * (1 + 1e-12)


class TestLssTraces:
    def test_scaled_identity(self):
        # Sigma = 2 I_2, X = I_2 and n = 2: M = 2 I_2, so T_k = tr(M^k) / 2^k = 2
        t = _trace_stats(assemble_model([2.0, 2.0]), np.eye(2), False)
        assert t == pytest.approx([2.0, 2.0])

    def test_rank_one(self):
        x = np.array([[np.sqrt(2.0), 0.0], [0.0, 0.0]])
        assert _trace_stats(assemble_model([1.0, 1.0]), x, False) == pytest.approx([1.0, 1.0])

    def test_sides_agree(self):
        rng = np.random.default_rng(31)
        for trial in range(50):
            p, n = int(rng.integers(1, 6)), int(rng.integers(1, 7))
            eigs = list(rng.uniform(0.2, 4.0, p))
            u = haar_orthogonal(p, trial) if p > 1 else None
            want, _ = direct_pxp(replication_x(standard_normal(), p, n, trial),
                                 symmetric_half(eigs, u))
            t = replicate(eigs, standard_normal(), n=n, rep=trial, u=u)
            assert t == pytest.approx(want, rel=1e-10, abs=1e-12)


class TestCenteredLss:
    def test_identical_columns_vanish(self):
        # both sides: p < n and p > n
        for p, n in ((2, 3), (3, 2)):
            x = np.tile(np.linspace(-0.4, 1.3, p)[:, None], (1, n))
            model = assemble_model(np.linspace(0.5, 2.0, p), haar_orthogonal(p, 3))
            _, _, t1c, t2c = _trace_stats(model, x, True)
            assert t1c == pytest.approx(0.0, abs=1e-12)
            assert t2c == pytest.approx(0.0, abs=1e-12)

    def test_antisymmetric_pair_already_centered(self):
        model = assemble_model([1.0, 2.0])
        col = np.array([[0.7], [1.1]])
        t1, t2, t1c, t2c = _trace_stats(model, np.hstack([col, -col]), True)
        assert t1c == pytest.approx(t1, rel=1e-12)
        assert t2c == pytest.approx(t2, rel=1e-12)

    def test_matches_direct_pxp_construction(self):
        # n = 2 takes the Y'Y side, n = 3 and 4 the Sigma X X' side
        rng = np.random.default_rng(8)
        u = haar_orthogonal(3, 5)
        model = assemble_model([2.0, 1.0, 0.5], u)
        half = symmetric_half([2.0, 1.0, 0.5], u)
        for n in (2, 3, 4):
            x = rng.standard_normal((3, n))
            y = half @ x
            b = (y @ y.T) / n
            ybar = y.mean(axis=1)
            b0 = b - np.outer(ybar, ybar)
            _, _, t1c, t2c = _trace_stats(model, x, True)
            assert t1c == pytest.approx(float(np.trace(b0)), rel=1e-10)
            assert t2c == pytest.approx(float(np.sum(b0 * b0)), rel=1e-10)


class TestRunReplication:
    def test_agrees_with_gram_route(self):
        # the n x n route X' Sigma X, built here, on both sides of p = n
        for p, n in ((3, 5), (5, 3)):
            eigs = list(np.linspace(0.5, 2.0, p))
            row = replicate(eigs, standard_normal(), n=n, rep=4, centered=True)
            t, tc = row[:2], row[2:]
            x = replication_x(standard_normal(), p, n, rep=4)
            a = x.T @ dense_sigma(eigs) @ x
            want = [np.trace(np.linalg.matrix_power(a, k)) / n**k for k in range(1, 3)]
            assert t == pytest.approx(want, rel=1e-10)
            rowsum = a.sum(axis=1)
            yy = rowsum.sum() / n**2
            want_c = (want[0] - yy, want[1] - 2.0 * (rowsum @ rowsum) / n**3 + yy * yy)
            assert tc == pytest.approx(want_c, rel=1e-9, abs=1e-12)

    @pytest.mark.parametrize("rotated", [False, True])
    @pytest.mark.parametrize(
        "p,n", [(4, 7), (5, 5), (7, 4), (40, 80), (60, 60), (80, 40), (120, 300), (150, 150)]
    )
    def test_matches_direct_pxp_oracle(self, p, n, rotated):
        # the kernel's Sigma X X' (p <= n) or Y'Y with Y = F X (p > n) against
        # B built here from Y = Sigma^{1/2} X with the symmetric root: all
        # share the nonzero eigenvalues of B, so every statistic agrees
        eigs = list(np.linspace(3.0, 0.3, p))
        u = haar_orthogonal(p, 17) if rotated else None
        half = symmetric_half(eigs, u)
        for rep in range(3):
            row = replicate(eigs, standard_normal(), n=n, rep=rep, u=u, centered=True)
            t, tc = row[:2], row[2:]
            want, want_c = direct_pxp(replication_x(standard_normal(), p, n, rep), half)
            assert t == pytest.approx(want, rel=1e-12)
            assert tc == pytest.approx(want_c, rel=1e-12)

    def test_deterministic_per_index(self):
        def again():
            return replicate([1.0, 2.0], standard_normal(), n=6, rep=9)

        assert again() == again()

    def test_rademacher_identity_t1_is_exactly_p(self):
        # sharpest end-to-end check: every x_ij^2 = 1, so T1 = p exactly
        for rep in range(20):
            t = replicate([1.0] * 4, rademacher(), n=5, rep=rep)
            assert t[0] == 4.0

    def test_psd_ordering_invariants(self):
        for rep in range(30):
            t1, t2, t1c, _ = replicate([3.0, 1.0, 0.4], standard_normal(), n=6, rep=rep,
                                       centered=True)
            assert t1 >= 0 and t2 >= 0
            assert t2 <= t1 * t1 * (1 + 1e-9)
            assert t2 >= t1 * t1 / 3 * (1 - 1e-9)
            assert t1c <= t1 + 1e-12

    @pytest.mark.parametrize(
        "t,tc", [([np.nan, 1.0], None), ([1.0, np.inf], None), ([2.0, 3.0], (1.0, np.nan))]
    )
    def test_non_finite_statistics_rejected(self, t, tc):
        # the row is (T_1, T_2), extended by the centered pair tc when given
        with pytest.raises(ReplicationInvariantError, match="not finite"):
            _check_invariants([*t, *(tc or ())], 2, 0)
