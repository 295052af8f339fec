import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from covlss.population import assemble_model, haar_orthogonal
from covlss.symmat import (
    SymMatrix,
    SymmetryError,
    trace_hadamard,
    trace_power,
    trace_product,
    triple_product_terms,
)


def identity(p):
    return SymMatrix(np.eye(p))


def diagonal(values):
    return SymMatrix(np.diag(np.asarray(values, dtype=float)))


def random_sym(rng, dim, scale=1.0):
    a = rng.uniform(-scale, scale, size=(dim, dim))
    return SymMatrix(0.5 * (a + a.T))


def random_model(rng, dim, scale=1.0, seed=0):
    """A rotated model with a positive spectrum in (0.01, 1) * scale, and its dense Sigma."""
    lam = scale * rng.uniform(0.01, 1.0, dim)
    u = haar_orthogonal(dim, seed)
    sigma = (u * lam) @ u.T
    return assemble_model(lam, u), SymMatrix(0.5 * (sigma + sigma.T))


class TestConstruction:
    def test_rejects_asymmetric(self):
        with pytest.raises(SymmetryError):
            SymMatrix(np.array([[1.0, 2.0], [2.1, 1.0]]))

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            SymMatrix(np.zeros((2, 3)))

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            SymMatrix(np.array([[np.nan]]))

    def test_tolerates_roundoff_asymmetry(self):
        a = np.array([[1.0, 0.5], [0.5 * (1 + 1e-14), 1.0]])
        m = SymMatrix(a)
        assert m.dim == 2

    def test_array_is_frozen(self):
        m = identity(3)
        with pytest.raises(ValueError):
            m.array[0, 0] = 5.0


class TestTracePower:
    def test_identity(self):
        assert trace_power(identity(3), 2) == 3.0

    def test_diagonal_cubes(self):
        assert trace_power(diagonal([2.0, 1.0]), 3) == 9.0

    def test_matches_eigenvalue_oracle(self):
        rng = np.random.default_rng(101)
        for _ in range(20):
            m = random_sym(rng, 4, scale=3.0)
            eigs = np.linalg.eigvalsh(m.array)
            for k in (1, 2, 3, 4):
                want = float(np.sum(eigs**k))
                got = trace_power(m, k)
                assert got == pytest.approx(want, rel=1e-10, abs=1e-12)

    @pytest.mark.parametrize("k", [0, 5, -1])
    def test_rejects_bad_power(self, k):
        with pytest.raises(ValueError):
            trace_power(identity(2), k)

    def test_power_two_is_squared_frobenius(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            m = random_sym(rng, int(rng.integers(1, 7)))
            frob2 = float(np.linalg.norm(m.array, "fro") ** 2)
            assert trace_power(m, 2) == pytest.approx(frob2, rel=1e-12)


class TestTraceHadamard:
    def test_identity_with_itself(self):
        assert trace_hadamard(identity(5), identity(5)) == 5.0

    def test_diagonal_case(self):
        assert trace_hadamard(diagonal([2.0, 3.0]), diagonal([4.0, 5.0])) == 23.0

    def test_matches_entrywise_brute_force(self):
        rng = np.random.default_rng(11)
        a, b = random_sym(rng, 5), random_sym(rng, 5)
        want = float(np.trace(a.array * b.array))
        assert trace_hadamard(a, b) == pytest.approx(want, rel=1e-12)

    def test_symmetric_in_arguments(self):
        rng = np.random.default_rng(12)
        a, b = random_sym(rng, 4), random_sym(rng, 4)
        assert trace_hadamard(a, b) == trace_hadamard(b, a)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            trace_hadamard(identity(2), identity(3))


class TestTripleProductTerms:
    def test_identity_pair_collapses(self):
        terms = triple_product_terms(identity(2), identity(2))
        for f in ("dt_t_dw", "dt_w_dt", "ones_ttw", "tr_t_dw_t", "tr_w_dt_t", "tr_ttw_diag"):
            assert getattr(terms, f) == 2.0

    def test_diagonal_pair_collapses_to_common_value(self):
        # diagonal operands collapse all six scalars to sum_i t_ii^2 w_ii
        terms = triple_product_terms(diagonal([1.0, 2.0]), diagonal([3.0, 4.0]))
        for f in ("dt_t_dw", "dt_w_dt", "ones_ttw", "tr_t_dw_t", "tr_w_dt_t", "tr_ttw_diag"):
            assert getattr(terms, f) == pytest.approx(19.0, rel=1e-14)

    def test_matches_naive_loops(self):
        rng = np.random.default_rng(21)
        t, w = random_sym(rng, 3), random_sym(rng, 3)
        ta, wa = t.array, w.array
        p = 3
        dt = np.diagonal(ta)
        dw = np.diagonal(wa)
        dt_t_dw = sum(dt[i] * ta[i, j] * dw[j] for i in range(p) for j in range(p))
        dt_w_dt = sum(dt[i] * wa[i, j] * dt[j] for i in range(p) for j in range(p))
        ones_ttw = sum(ta[i, j] ** 2 * wa[i, j] for i in range(p) for j in range(p))
        tr_t_dw_t = sum(ta[i, j] * wa[j, j] * ta[j, i] for i in range(p) for j in range(p))
        tr_w_dt_t = sum(wa[i, j] * ta[j, j] * ta[j, i] for i in range(p) for j in range(p))
        tr_ttw = sum(ta[i, i] ** 2 * wa[i, i] for i in range(p))
        got = triple_product_terms(t, w)
        assert got.dt_t_dw == pytest.approx(dt_t_dw, rel=1e-12)
        assert got.dt_w_dt == pytest.approx(dt_w_dt, rel=1e-12)
        assert got.ones_ttw == pytest.approx(ones_ttw, rel=1e-12)
        assert got.tr_t_dw_t == pytest.approx(tr_t_dw_t, rel=1e-12)
        assert got.tr_w_dt_t == pytest.approx(tr_w_dt_t, rel=1e-12)
        assert got.tr_ttw_diag == pytest.approx(tr_ttw, rel=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            triple_product_terms(identity(2), identity(3))


class TestTraceSet:
    """The TraceSet a population model carries, against dense functionals."""

    def test_identity(self):
        ts = assemble_model(np.ones(4)).traces
        assert (ts.tr1, ts.tr2, ts.tr3, ts.tr4) == (4.0, 4.0, 4.0, 4.0)
        assert (ts.trH11, ts.trH12, ts.trH22) == (4.0, 4.0, 4.0)

    def test_rank_one_diagonal(self):
        ts = assemble_model([2.0]).traces
        assert (ts.tr1, ts.tr2, ts.tr3, ts.tr4) == (2.0, 4.0, 8.0, 16.0)
        assert (ts.trH11, ts.trH12, ts.trH22) == (4.0, 8.0, 16.0)

    def test_consistent_with_componentwise_ops(self):
        rng = np.random.default_rng(31)
        model, m = random_model(rng, 5, seed=31)
        m2 = SymMatrix(m.array @ m.array)
        ts = model.traces
        assert ts.tr1 == pytest.approx(trace_power(m, 1), rel=1e-12)
        assert ts.tr2 == pytest.approx(trace_power(m, 2), rel=1e-12)
        assert ts.tr3 == pytest.approx(trace_power(m, 3), rel=1e-12)
        assert ts.tr4 == pytest.approx(trace_power(m, 4), rel=1e-12)
        assert ts.trH11 == pytest.approx(trace_hadamard(m, m), rel=1e-12)
        assert ts.trH12 == pytest.approx(trace_hadamard(m, m2), rel=1e-12)
        assert ts.trH22 == pytest.approx(trace_hadamard(m2, m2), rel=1e-12)

    @pytest.mark.parametrize("c", [0.5, 2.0, 10.0])
    def test_scaling_covariance(self, c):
        rng = np.random.default_rng(41)
        lam = rng.uniform(0.1, 1.0, 6)
        u = haar_orthogonal(6, 41)
        base = assemble_model(lam, u).traces
        scaled = assemble_model(c * lam, u).traces
        assert scaled.tr1 == pytest.approx(c * base.tr1, rel=1e-10)
        assert scaled.tr2 == pytest.approx(c**2 * base.tr2, rel=1e-10)
        assert scaled.tr3 == pytest.approx(c**3 * base.tr3, rel=1e-10)
        assert scaled.tr4 == pytest.approx(c**4 * base.tr4, rel=1e-10)
        assert scaled.trH11 == pytest.approx(c**2 * base.trH11, rel=1e-10)
        assert scaled.trH12 == pytest.approx(c**3 * base.trH12, rel=1e-10)
        assert scaled.trH22 == pytest.approx(c**4 * base.trH22, rel=1e-10)

    def test_diagonal_powers_are_eigenvalue_sums(self):
        lam = np.array([0.3, 1.7, 4.0])
        m = diagonal(lam)
        for k in (1, 2, 3, 4):
            assert trace_power(m, k) == pytest.approx(float(np.sum(lam**k)), rel=1e-12)


@settings(max_examples=60, deadline=None)
@given(
    dim=st.integers(1, 6),
    seed=st.integers(0, 2**32 - 1),
    scale=st.floats(0.01, 100),
)
def test_square_traces_nonnegative(dim, seed, scale):
    # tr2, tr4, trH11, trH22 are sums of squares, and they match the dense Sigma
    rng = np.random.default_rng(seed)
    model, m = random_model(rng, dim, scale=scale, seed=seed)
    ts = model.traces
    assert ts.tr2 >= 0 and ts.tr4 >= 0 and ts.trH11 >= 0 and ts.trH22 >= 0
    assert ts.tr2 == pytest.approx(trace_power(m, 2), rel=1e-10)
    assert ts.trH22 == pytest.approx(float(np.sum(np.diagonal(m.array @ m.array) ** 2)), rel=1e-10)


def test_trace_product_matches_matmul_trace():
    rng = np.random.default_rng(55)
    a, b = random_sym(rng, 4), random_sym(rng, 4)
    want = float(np.trace(a.array @ b.array))
    assert trace_product(a, b) == pytest.approx(want, rel=1e-12)
