import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from covlss.harness import ConfigError, ExperimentConfig
from covlss.lss import _half_times
from covlss.population import (
    ConsistencyError,
    assemble_model,
    build_model,
    haar_orthogonal,
)


def dense_sigma(eigs, u=None):
    """Sigma = U L U' built densely, the oracle the model's traces must match."""
    lam = np.asarray(eigs, dtype=float)
    if u is None:
        return np.diag(lam)
    sigma = (u * lam) @ u.T
    return 0.5 * (sigma + sigma.T)


def random_model(rng, dim, scale=1.0, seed=0):
    """A rotated model with a positive spectrum in (0.01, 1) * scale, and its dense Sigma."""
    lam = scale * rng.uniform(0.01, 1.0, dim)
    u = haar_orthogonal(dim, seed)
    return assemble_model(lam, u), dense_sigma(lam, u)


def dense_traces(sigma):
    """The seven trace functionals of a dense Sigma, by brute force."""
    s2 = sigma @ sigma
    d1, d2 = np.diagonal(sigma), np.diagonal(s2)
    return {
        "tr1": np.trace(sigma),
        "tr2": np.trace(s2),
        "tr3": np.trace(s2 @ sigma),
        "tr4": np.trace(s2 @ s2),
        "trH11": np.sum(d1 * d1),
        "trH12": np.sum(d1 * d2),
        "trH22": np.sum(d2 * d2),
    }


def assert_traces_match(model, sigma, rel):
    want = dense_traces(sigma)
    for name, got in model.traces.as_dict().items():
        assert got == pytest.approx(float(want[name]), rel=rel), name


def spectrum(p, n, alpha, beta, r=None):
    """The eigenvalues build_model gives r (default all 0.5), unrotated."""
    r = np.full(p, 0.5) if r is None else r
    return build_model(r, n, alpha, beta, rotation_seed=None).eigenvalues


class TestBuildSpectrum:
    """The eigenvalues of build_model, read from unrotated models."""

    def test_no_spikes_half_r(self):
        assert np.allclose(spectrum(4, 100, 0.0, 0.0), [1.0, 1.0, 1.0, 1.0])

    def test_two_spikes(self):
        assert np.allclose(spectrum(4, 100, 0.5, 0.5), [25.0, 25.0, 1.0, 1.0])

    def test_grouped_ranges(self):
        rng = np.random.default_rng(5)
        p, n = 100, 1000
        lam = spectrum(p, n, 0.2, 0.1, r=rng.random(p))
        growth = n**0.2
        spikes, bulk = lam[:10], lam[10:]
        assert len(spikes) == 10 and len(bulk) == 90
        assert np.all(spikes >= 2 * growth) and np.all(spikes <= 3 * growth)
        assert np.all(bulk > 0) and np.all(bulk < 2)
        assert np.all(np.diff(lam) <= 0)

    def test_spike_count_floors(self):
        # spikes are (2 + r) * 10^0.1 > 2.5, the bulk 2r = 1
        assert np.sum(spectrum(5, 10, 0.1, 0.5) > 2.0) == 2
        assert np.sum(spectrum(5, 10, 0.1, 1.0) > 2.0) == 5

    def test_rejects_bad_beta(self):
        # build_model trusts beta; ExperimentConfig, checked when made, is the one
        # gate in front of it
        for beta in (0.0, 1.0):
            ExperimentConfig(p=4, n=100, beta=beta)
            assert np.sum(spectrum(4, 100, 0.5, beta) > 2.0) == int(4 * beta)
        for beta in (-0.1, 1.5):
            with pytest.raises(ConfigError, match="beta"):
                ExperimentConfig(p=4, n=100, beta=beta)

    def test_overflowing_growth_rejected(self):
        for alpha, beta in ((1e308, 0.5), (400.0, 0.3)):  # one spike is enough
            with pytest.raises(ConsistencyError, match="spike growth n\\^alpha"):
                spectrum(4, 1000, alpha, beta)
        # without a spike n^alpha scales nothing, so it is never computed
        assert np.allclose(spectrum(4, 1000, 400.0, 0.0), [1.0, 1.0, 1.0, 1.0])


class TestHaarOrthogonal:
    def test_one_by_one(self):
        for seed in range(5):
            u = haar_orthogonal(1, seed)
            assert u.shape == (1, 1)
            assert abs(abs(u[0, 0]) - 1.0) < 1e-12

    def test_orthogonality(self):
        u = haar_orthogonal(5, 42)
        assert np.linalg.norm(u @ u.T - np.eye(5)) <= 1e-10

    def test_deterministic(self):
        assert np.array_equal(haar_orthogonal(8, 3), haar_orthogonal(8, 3))

    def test_first_entry_second_moment(self):
        # Haar columns are uniform on the sphere: E u_00^2 = 1/p
        p, trials = 50, 1000
        vals = np.array([haar_orthogonal(p, seed)[0, 0] ** 2 for seed in range(trials)])
        # Var(u^2) is approximately 2/p^2 for large p
        se = np.sqrt(2.0 / p**2 / trials)
        assert abs(vals.mean() - 1.0 / p) <= 3 * se + 1e-4


class TestAssembleModel:
    def test_identity(self):
        m = assemble_model([1.0, 1.0, 1.0])
        assert m.factor is None
        assert m.p == 3
        assert m.traces.as_dict() == dict.fromkeys(m.traces.as_dict(), 3.0)

    def test_diagonal_square_root(self):
        m = assemble_model([4.0, 1.0])
        assert m.factor is None
        assert np.array_equal(_half_times(m, np.eye(2)), np.diag([2.0, 1.0]))

    def test_trace_invariance_under_conjugation(self):
        eigs = [25.0, 25.0, 1.0, 1.0]
        for seed in range(5):
            m = assemble_model(eigs, haar_orthogonal(4, seed))
            assert m.traces.tr1 == pytest.approx(52.0, rel=1e-10)
            assert m.traces.tr2 == pytest.approx(1252.0, rel=1e-10)

    def test_square_root_squares_back(self):
        # the factor F = L^{1/2} U' satisfies F'F = Sigma
        u = haar_orthogonal(3, 11)
        m = assemble_model([9.0, 4.0, 0.5], u)
        sigma = dense_sigma([9.0, 4.0, 0.5], u)
        err = np.linalg.norm(m.factor.T @ m.factor - sigma)
        assert err <= 1e-12 * np.linalg.norm(sigma)
        assert np.array_equal(_half_times(m, np.eye(3)), m.factor)

    @pytest.mark.parametrize("rotated", [False, True])
    def test_dense_sigma_formed_once(self, rotated):
        # Sigma = F'F for the p <= n kernel: exactly symmetric, frozen, and
        # formed on first use only
        u = haar_orthogonal(3, 11) if rotated else None
        m = assemble_model([9.0, 4.0, 0.5], u)
        want = dense_sigma([9.0, 4.0, 0.5], u)
        assert np.linalg.norm(m.sigma - want) <= 1e-12 * np.linalg.norm(want)
        assert np.array_equal(m.sigma, m.sigma.T)
        assert m.sigma is m.sigma
        with pytest.raises(ValueError):
            m.sigma[0, 0] = 1.0

    def test_rejects_nonpositive_eigenvalue(self):
        with pytest.raises(ValueError):
            assemble_model([1.0, 0.0])
        with pytest.raises(ValueError):
            assemble_model([1.0, -2.0])

    def test_rejects_non_orthogonal_u(self):
        with pytest.raises(ValueError):
            assemble_model([1.0, 2.0], np.array([[1.0, 1.0], [0.0, 1.0]]))
        with pytest.raises(ValueError, match="must be 2 x 2"):
            assemble_model([1.0, 2.0], np.eye(3))

    def test_rejects_diagonal_sum_disagreement(self):
        # ||UU' - I||_F = 3e-8 passes the 1e-8 * p orthogonality check, but
        # on the spike the diagonal of Sigma sums 2.9e-8 away from tr Sigma
        u = np.diag([np.sqrt(1.0 + 3e-8), 1.0, 1.0, 1.0])
        with pytest.raises(ConsistencyError, match="disagrees"):
            assemble_model([100.0, 1.0, 1.0, 1.0], u)

    def test_overflowing_trace_rejected(self):
        # tr Sigma^4 of a 1e100 eigenvalue overflows, rotated or not
        for u in (None, haar_orthogonal(2, 1)):
            with pytest.raises(ConsistencyError, match="overflow"):
                assemble_model([1e100, 1.0], u)

    def test_arrays_frozen(self):
        m = assemble_model([2.0, 1.0], haar_orthogonal(2, 3))
        for a in (m.eigenvalues, m.factor):
            with pytest.raises(ValueError):
                a[0] = 5.0

    def test_full_trace_set_conjugation_invariant(self):
        rng = np.random.default_rng(17)
        eigs = np.sort(rng.uniform(0.5, 5.0, 50))[::-1]
        base = assemble_model(eigs.copy()).traces
        for seed in range(20):
            rotated = assemble_model(eigs.copy(), haar_orthogonal(50, seed)).traces
            for field in ("tr1", "tr2", "tr3", "tr4"):
                got, want = getattr(rotated, field), getattr(base, field)
                assert got == pytest.approx(want, rel=1e-8)

    def test_hadamard_trace_not_conjugation_invariant(self):
        # tr(S∘S) depends on the eigenvector basis: only the diagonal
        # regime pins it to the eigenvalue power sum
        eigs = np.array([5.0, 1.0, 0.5])
        plain = assemble_model(eigs.copy())
        rotated = assemble_model(eigs.copy(), haar_orthogonal(3, 2))
        assert plain.traces.trH11 == pytest.approx(float(np.sum(eigs**2)), rel=1e-12)
        assert abs(rotated.traces.trH11 - plain.traces.trH11) > 1e-3


class TestBuildModel:
    def test_spectral_norm_tracks_n_growth(self):
        rng = np.random.default_rng(23)
        r = rng.random(10)
        alpha = 0.3
        lam_n = spectrum(10, 400, alpha, 0.2, r=r)
        lam_2n = spectrum(10, 800, alpha, 0.2, r=r)
        assert lam_2n[0] / lam_n[0] == pytest.approx(2.0**alpha, rel=1e-10)

    def test_traces_match_eigenvalues(self):
        m = build_model(np.random.default_rng(3).random(20), 200, 0.4, 0.25, rotation_seed=4)
        for k in (1, 2, 3, 4):
            want = float(np.sum(m.eigenvalues**k))
            got = getattr(m.traces, f"tr{k}")
            assert got == pytest.approx(want, rel=1e-8)

    def test_positive_definite(self):
        m = build_model(np.random.default_rng(8).random(12), 300, 1.0, 0.2, rotation_seed=1)
        assert np.all(np.linalg.eigvalsh(m.factor.T @ m.factor) > 0)

    def test_trace_set_of_sigma_matches_bundle(self):
        m = build_model(np.random.default_rng(2).random(6), 50, 0.2, 0.5, rotation_seed=0)
        assert_traces_match(m, dense_sigma(m.eigenvalues, haar_orthogonal(6, 0)), rel=1e-12)


class TestModelTraces:
    """The traces taken from the spectrum against a dense Sigma = U L U'."""

    @pytest.mark.parametrize("rotated", [False, True])
    @pytest.mark.parametrize("p", [1, 2, 5, 50])
    def test_matches_dense_sigma(self, p, rotated):
        rng = np.random.default_rng(p)
        eigs = np.sort(rng.uniform(0.1, 3.0, p))[::-1]
        eigs[0] *= 30.0  # one spike
        u = haar_orthogonal(p, 5) if rotated else None
        assert_traces_match(assemble_model(eigs, u), dense_sigma(eigs, u), rel=1e-12)

    def test_hadamard_traces_from_diagonals(self):
        # trH11 = d1.d1, trH12 = d1.d2, trH22 = d2.d2 for the diagonals of Sigma, Sigma^2
        u = haar_orthogonal(4, 8)
        eigs = [5.0, 2.0, 1.0, 0.25]
        m = assemble_model(eigs, u)
        d1 = (u * u) @ np.asarray(eigs)
        d2 = (u * u) @ np.asarray(eigs) ** 2
        assert m.traces.trH11 == pytest.approx(d1 @ d1, rel=1e-14)
        assert m.traces.trH12 == pytest.approx(d1 @ d2, rel=1e-14)
        assert m.traces.trH22 == pytest.approx(d2 @ d2, rel=1e-14)


@settings(max_examples=50, deadline=None)
@given(
    eigs=st.lists(st.floats(1e-3, 1e3), min_size=1, max_size=8),
    seed=st.integers(0, 2**32 - 1),
    rotated=st.booleans(),
)
def test_traces_match_dense_sigma_over_spectra(eigs, seed, rotated):
    u = haar_orthogonal(len(eigs), seed) if rotated else None
    assert_traces_match(assemble_model(eigs, u), dense_sigma(eigs, u), rel=1e-9)


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
        model, s = random_model(rng, 5, seed=31)
        s2 = s @ s
        ts = model.traces
        for k in (1, 2, 3, 4):
            want = float(np.trace(np.linalg.matrix_power(s, k)))
            assert getattr(ts, f"tr{k}") == pytest.approx(want, rel=1e-12)
        assert ts.trH11 == pytest.approx(np.diagonal(s) @ np.diagonal(s), rel=1e-12)
        assert ts.trH12 == pytest.approx(np.diagonal(s) @ np.diagonal(s2), rel=1e-12)
        assert ts.trH22 == pytest.approx(np.diagonal(s2) @ np.diagonal(s2), rel=1e-12)

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
        ts = assemble_model(lam).traces
        for k in (1, 2, 3, 4):
            assert getattr(ts, f"tr{k}") == pytest.approx(float(np.sum(lam**k)), rel=1e-12)


@settings(max_examples=60, deadline=None)
@given(
    dim=st.integers(1, 6),
    seed=st.integers(0, 2**32 - 1),
    scale=st.floats(0.01, 100),
)
def test_square_traces_nonnegative(dim, seed, scale):
    # tr2, tr4, trH11, trH22 are sums of squares, and they match the dense Sigma
    rng = np.random.default_rng(seed)
    model, s = random_model(rng, dim, scale=scale, seed=seed)
    ts = model.traces
    assert ts.tr2 >= 0 and ts.tr4 >= 0 and ts.trH11 >= 0 and ts.trH22 >= 0
    assert ts.tr2 == pytest.approx(float(np.trace(s @ s)), rel=1e-10)
    assert ts.trH22 == pytest.approx(float(np.sum(np.diagonal(s @ s) ** 2)), rel=1e-10)
