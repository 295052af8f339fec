import numpy as np
import pytest

from covlss.moments import (
    MomentSet,
    centered_expected_values,
    expected_values,
    moment_set,
    psi_matrix,
    single_spike_variance,
)
from covlss.population import assemble_model


def traces_of_diag(values):
    return assemble_model(values).traces


class TestExpectedValues:
    def test_identity_population(self):
        p, n = 6, 11
        ts = traces_of_diag([1.0] * p)
        e1, e2 = expected_values(ts, n, nu4=0.0)
        assert e1 == p
        assert e2 == pytest.approx((p**2 + (n + 1) * p) / n, rel=1e-14)

    def test_single_spike_worked_example(self):
        # diag(4, 1), n = 2, gaussian: E T1 = 5, E T2 = (25 + 3*17)/2 = 38
        ts = traces_of_diag([4.0, 1.0])
        e1, e2 = expected_values(ts, 2, nu4=0.0)
        assert e1 == 5.0
        assert e2 == pytest.approx(38.0, rel=1e-14)

    def test_rejects_bad_n(self):
        with pytest.raises(ValueError):
            expected_values(traces_of_diag([1.0]), 0, 0.0)


class TestPsiMatrix:
    def test_identity_population_gaussian(self):
        p, n = 5, 9
        ts = traces_of_diag([1.0] * p)
        p11, p12, p22 = psi_matrix(ts, n, nu4=0.0)
        assert p11 == pytest.approx(2 * p / n, rel=1e-14)
        assert p12 == pytest.approx((4 * p**2 + 4 * n * p) / n**2, rel=1e-14)
        assert p22 == pytest.approx(
            (8 * p**3 + 16 * n * p**2 + 4 * n * p**2 + 8 * n**2 * p) / n**3, rel=1e-14
        )

    def test_rademacher_identity_degenerates(self):
        # T1 is constant when every x^2 = 1 and the spectrum is flat
        ts = traces_of_diag([1.0] * 4)
        p11, _, _ = psi_matrix(ts, 7, nu4=-2.0)
        assert p11 == 0.0

    def test_psi11_linear_in_nu4_with_exact_slope(self):
        ts = traces_of_diag([2.0, 0.7, 1.3])
        n = 5
        a = psi_matrix(ts, n, nu4=0.0)[0]
        b = psi_matrix(ts, n, nu4=1.0)[0]
        assert b - a == pytest.approx(ts.trH11 / n, rel=1e-14)

    @pytest.mark.parametrize("c", [0.5, 2.0, 10.0])
    def test_scaling_covariance(self, c):
        rng = np.random.default_rng(3)
        vals = rng.uniform(0.5, 3.0, 6)
        n, nu4 = 13, 1.5
        base_tr = traces_of_diag(vals)
        scaled_tr = traces_of_diag(c * vals)
        e1, e2 = expected_values(base_tr, n, nu4)
        s1, s2 = expected_values(scaled_tr, n, nu4)
        assert s1 == pytest.approx(c * e1, rel=1e-10)
        assert s2 == pytest.approx(c**2 * e2, rel=1e-10)
        p11, p12, p22 = psi_matrix(base_tr, n, nu4)
        q11, q12, q22 = psi_matrix(scaled_tr, n, nu4)
        assert q11 == pytest.approx(c**2 * p11, rel=1e-10)
        assert q12 == pytest.approx(c**3 * p12, rel=1e-10)
        assert q22 == pytest.approx(c**4 * p22, rel=1e-10)

    def test_psi11_positive_for_nondegenerate_nu4(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            vals = rng.uniform(0.1, 5.0, int(rng.integers(1, 8)))
            nu4 = rng.uniform(-1.99, 3.0)
            p11 = psi_matrix(traces_of_diag(vals), 7, nu4)[0]
            assert p11 > 0


class TestCenteredExpectedValues:
    def test_identity_population(self):
        p, n = 4, 8
        ts = traces_of_diag([1.0] * p)
        e1c, e2c = centered_expected_values(ts, n, nu4=0.0)
        _, e2 = expected_values(ts, n, nu4=0.0)
        assert e1c == pytest.approx(p * (1 - 1 / n), rel=1e-14)
        assert e2c == pytest.approx(e2 - (p**2 + 2 * n * p) / n**2, rel=1e-14)

    def test_scalar_analytic_case(self):
        # p=1, sigma=1, n=2: E tr(B - ybar ybar') = (1 - 1/n) = 0.5
        ts = traces_of_diag([1.0])
        e1c, _ = centered_expected_values(ts, 2, nu4=0.0)
        assert e1c == 0.5

    def test_needs_n_at_least_two(self):
        with pytest.raises(ValueError):
            centered_expected_values(traces_of_diag([1.0]), 1, 0.0)


class TestSingleSpikeVariance:
    def test_case1_at_c_one_gaussian(self):
        assert single_spike_variance(1, 1.0, 0.0).variance == 36.0

    def test_case3_gaussian(self):
        res = single_spike_variance(3, 1.0, 0.0)
        assert res.variance == 8.0
        assert res.scaling == "sqrt(n)/tau1^2"

    def test_case2_continuous_at_zero_delta(self):
        for c, nu4 in ((0.5, 0.0), (1.0, 1.5), (2.0, -1.0)):
            assert (
                single_spike_variance(2, c, nu4, delta=0.0).variance
                == single_spike_variance(1, c, nu4).variance
            )

    def test_case2_adds_spike_term(self):
        got = single_spike_variance(2, 2.0, 1.0, delta=1.5).variance
        want = single_spike_variance(1, 2.0, 1.0).variance + 1.5**4 * 2.0 * 12.0
        assert got == pytest.approx(want, rel=1e-14)

    def test_bad_case_id(self):
        with pytest.raises(ValueError):
            single_spike_variance(4, 1.0, 0.0)

    def test_bad_c(self):
        with pytest.raises(ValueError):
            single_spike_variance(1, -1.0, 0.0)


class TestSpikeDominanceOfPsi22:
    @pytest.mark.parametrize("nu4", [0.0, 1.5])
    def test_ratio_approaches_single_spike_value(self, nu4):
        # as tau1 grows with p, n fixed, n psi22 / tau1^4 converges to the
        # exact single-spike (p = 1) value at the same n, which itself
        # tends to 8 + 4 nu4 as n grows
        p, n = 50, 500

        def ratio(tau1, dim):
            ts = traces_of_diag([tau1] + [1.0] * (dim - 1))
            return n * psi_matrix(ts, n, nu4)[2] / tau1**4

        limit = ratio(1e6, 1)  # pure spike at the same n
        assert abs(ratio(1e3, p) / limit - 1.0) <= 0.01
        assert abs(ratio(1e4, p) / limit - 1.0) <= 1e-4
        big_n_value = 500 * psi_matrix(traces_of_diag([1e6]), 500, nu4)[2] / 1e24
        assert big_n_value == pytest.approx(limit, rel=1e-9)
        # the same-n limit approaches the asymptotic constant as n grows
        huge_n = 10**6
        asymptotic = huge_n * psi_matrix(traces_of_diag([1e8]), huge_n, nu4)[2] / 1e32
        assert abs(asymptotic / (8.0 + 4.0 * nu4) - 1.0) <= 3e-5


class TestMomentSet:
    def test_as_dict_field_names(self):
        ms = moment_set(traces_of_diag([1.0, 2.0]), 5, 0.5, centered=True)
        d = ms.as_dict()
        assert set(d) == {
            "e_t1", "e_t2", "psi11", "psi12", "psi22", "n", "nu4",
            "e_t1_centered", "e_t2_centered",
        }
        assert d["n"] == 5 and d["nu4"] == 0.5

    def test_centered_view_swaps_means_only(self):
        ms = moment_set(traces_of_diag([1.0, 2.0]), 5, 0.0, centered=True)
        cv = ms.centered_view()
        assert cv.e_t1 == ms.e_t1_centered
        assert cv.e_t2 == ms.e_t2_centered
        assert (cv.psi11, cv.psi12, cv.psi22) == (ms.psi11, ms.psi12, ms.psi22)

    def test_centered_view_requires_centered_build(self):
        ms = moment_set(traces_of_diag([1.0]), 5, 0.0)
        with pytest.raises(ValueError):
            ms.centered_view()

    def test_det_psi(self):
        ms = MomentSet(e_t1=0, e_t2=0, psi11=2.0, psi12=1.0, psi22=2.0, n=3, nu4=0.0)
        assert ms.det_psi == 3.0


class TestMonteCarloAgreement:
    def test_psi_entries_against_simulation_small(self):
        # small-scale version of the covariance check: p=10, n=80, gaussian
        rng = np.random.default_rng(404)
        vals = rng.uniform(0.5, 4.0, 10)
        model = assemble_model(list(vals))
        n, reps = 80, 4000
        t1s, t2s = np.empty(reps), np.empty(reps)
        sq = np.sqrt(vals)
        for r in range(reps):
            x = rng.standard_normal((10, n))
            y = sq[:, None] * x
            g = y @ y.T
            t1s[r] = np.trace(g) / n
            t2s[r] = np.sum(g * g) / n**2
        e1, e2 = expected_values(model.traces, n, 0.0)
        p11, p12, p22 = psi_matrix(model.traces, n, 0.0)
        assert t1s.mean() == pytest.approx(e1, rel=0.01)
        assert t2s.mean() == pytest.approx(e2, rel=0.01)
        cov = np.cov(t1s, t2s, ddof=1)
        assert cov[0, 0] == pytest.approx(p11, rel=0.15)
        assert cov[0, 1] == pytest.approx(p12, rel=0.15)
        assert cov[1, 1] == pytest.approx(p22, rel=0.15)
