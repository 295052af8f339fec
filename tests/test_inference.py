import math
import subprocess
import sys

import numpy as np
import pytest
import scipy.stats

from covlss.inference import (
    DegenerateCovarianceError,
    chi2_df2_cdf,
    chi2_df2_quantile,
    ks_distance,
    qq_report,
    whiten,
)
from covlss.moments import MomentSet, moment_set
from covlss.population import assemble_model


def ms_with(psi11, psi12, psi22, e1=0.0, e2=0.0):
    return MomentSet(e_t1=e1, e_t2=e2, psi11=psi11, psi12=psi12, psi22=psi22, n=10, nu4=0.0)


class TestChi2:
    def test_cdf_at_zero_and_below(self):
        assert chi2_df2_cdf(0.0) == 0.0
        assert chi2_df2_cdf(-3.0) == 0.0

    def test_median(self):
        assert chi2_df2_quantile(0.5) == pytest.approx(2 * math.log(2), abs=1e-15)

    def test_round_trip(self):
        assert chi2_df2_cdf(chi2_df2_quantile(0.95)) == pytest.approx(0.95, abs=1e-14)
        for q in np.linspace(0.001, 0.999, 37):
            assert chi2_df2_cdf(chi2_df2_quantile(q)) == pytest.approx(q, abs=1e-14)
        # inverting through the cdf value amplifies its half-ulp storage
        # error by 2 e^{x/2}, the best any float64 cdf representation allows
        for x in np.geomspace(1e-6, 40, 25):
            tol = max(1e-12, 4 * np.finfo(float).eps * np.exp(x / 2))
            assert chi2_df2_quantile(chi2_df2_cdf(x)) == pytest.approx(x, abs=tol)

    @pytest.mark.parametrize("q", [0.0, 1.0, -0.1, 1.1])
    def test_quantile_domain(self, q):
        with pytest.raises(ValueError):
            chi2_df2_quantile(q)

    def test_against_scipy(self):
        ref = scipy.stats.chi2(df=2)
        xs = np.linspace(0.01, 30, 50)
        assert np.allclose(chi2_df2_cdf(xs), ref.cdf(xs), atol=1e-13)
        for q in (0.01, 0.3, 0.5, 0.9, 0.999):
            assert chi2_df2_quantile(q) == pytest.approx(ref.ppf(q), rel=1e-12)


class TestWhiten:
    def test_centered_point_is_zero(self):
        ms = moment_set(assemble_model([1.0, 2.0]).traces, 7, 0.5)
        assert whiten(ms.e_t1, ms.e_t2, ms) == 0.0

    def test_identity_covariance(self):
        ms = ms_with(1.0, 0.0, 1.0)
        assert whiten(3.0, 4.0, ms) == pytest.approx(25.0, abs=1e-12)

    def test_two_by_two_inverse_by_hand(self):
        ms = ms_with(2.0, 1.0, 2.0)
        assert whiten(1.0, 1.0, ms) == pytest.approx(2.0 / 3.0, abs=1e-12)

    def test_degenerate_raises_with_entries(self):
        ms = ms_with(0.0, 0.0, 1.0)
        with pytest.raises(DegenerateCovarianceError) as e:
            whiten(1.0, 1.0, ms)
        assert "psi11=0.0" in str(e.value)

    def test_rademacher_flat_spectrum_degenerates(self):
        ms = moment_set(assemble_model([1.0, 1.0, 1.0]).traces, 5, -2.0)
        with pytest.raises(DegenerateCovarianceError):
            whiten(3.0, 4.0, ms)
        with pytest.raises(DegenerateCovarianceError):
            whiten(np.array([3.0, 2.5]), np.array([4.0, 3.5]), ms)

    def test_array_matches_scalar_calls(self):
        # one call over arrays of replications equals one call per replication, bit for bit
        ms = moment_set(assemble_model([2.0, 0.7, 1.1]).traces, 9, 1.5)
        rng = np.random.default_rng(4)
        t1 = ms.e_t1 + rng.normal(size=1000) * ms.psi11**0.5
        t2 = ms.e_t2 + rng.normal(size=1000) * ms.psi22**0.5
        got = whiten(t1, t2, ms)
        assert got.shape == (1000,)
        assert got.tolist() == [whiten(float(a), float(b), ms) for a, b in zip(t1, t2)]
        # and the closed form in Python floats, the order of operations kept
        for a, b, ts in zip(t1.tolist(), t2.tolist(), got.tolist()):
            d1, d2 = a - ms.e_t1, b - ms.e_t2
            q = ms.psi22 * d1 * d1 - 2.0 * ms.psi12 * d1 * d2 + ms.psi11 * d2 * d2
            assert ts == max(q / ms.det_psi, 0.0)

    def test_scale_equivariance(self):
        # transforming the model by c scales (t1, t2) by (c, c^2) and the
        # moment set accordingly; ts is unchanged
        ts = assemble_model([2.0, 0.7, 1.1]).traces
        n, nu4 = 9, 1.5
        ms = moment_set(ts, n, nu4)
        t1, t2 = ms.e_t1 + 0.8, ms.e_t2 - 1.7
        base = whiten(t1, t2, ms)
        for c in (0.5, 2.0, 10.0):
            scaled_ms = moment_set(assemble_model([2.0 * c, 0.7 * c, 1.1 * c]).traces, n, nu4)
            got = whiten(c * t1, c**2 * t2, scaled_ms)
            assert got == pytest.approx(base, rel=1e-9)

    def test_nonnegative(self):
        ms = ms_with(2.0, -1.0, 3.0)
        rng = np.random.default_rng(0)
        for _ in range(50):
            assert whiten(rng.normal(), rng.normal(), ms) >= 0.0


class TestKsDistance:
    def test_matches_scipy_kstest(self):
        rng = np.random.default_rng(12)
        x = rng.chisquare(2, size=500)
        ours = ks_distance(x, chi2_df2_cdf)
        ref = scipy.stats.kstest(x, scipy.stats.chi2(df=2).cdf).statistic
        assert ours == pytest.approx(ref, abs=1e-12)

    def test_constant_sample_closed_form(self):
        # all mass at 1.0: D = max(F(1), 1 - F(1)) = e^{-1/2}
        x = np.ones(40)
        want = math.exp(-0.5)
        assert ks_distance(x, chi2_df2_cdf) == pytest.approx(want, abs=1e-14)

    def test_bounds(self):
        rng = np.random.default_rng(13)
        for _ in range(10):
            x = rng.chisquare(2, size=100)
            d = ks_distance(x, chi2_df2_cdf)
            assert 0.0 <= d <= 1.0


class TestQQReport:
    def test_self_consistent_at_reference_quantiles(self):
        g = 50
        probs = (np.arange(1, g + 1) - 0.5) / g
        samples = np.array([chi2_df2_quantile(float(q)) for q in probs])
        rep = qq_report(samples, grid_size=g)
        assert np.allclose(rep.q_empirical, rep.q_theoretical, atol=1e-9)
        # sample placed exactly at grid quantiles: ks = 1/(2 * size)
        assert rep.ks == pytest.approx(1.0 / (2 * g), abs=1e-12)

    def test_chi2_draws_ks_small(self):
        rng = np.random.default_rng(99)
        rep = qq_report(rng.chisquare(2, size=10**4))
        assert rep.ks <= 0.022  # 1% Kolmogorov critical value 1.63/sqrt(10^4)

    def test_constant_sample(self):
        rep = qq_report(np.ones(10), grid_size=5)
        assert rep.ks == pytest.approx(math.exp(-0.5), abs=1e-14)

    def test_grid_shape_and_probs(self):
        rng = np.random.default_rng(1)
        rep = qq_report(rng.chisquare(2, 100), grid_size=199)
        assert rep.probs.shape == (199,)
        assert rep.probs[0] == pytest.approx(0.5 / 199)
        assert np.all(np.diff(rep.q_theoretical) > 0)
        assert np.all(np.diff(rep.q_empirical) >= 0)

    def test_empty_sample_rejected(self):
        with pytest.raises(ValueError):
            qq_report(np.array([]))

    def test_small_grid_rejected(self):
        with pytest.raises(ValueError):
            qq_report(np.ones(5), grid_size=1)

    def test_single_sample_runs(self):
        rep = qq_report(np.array([1.5]), grid_size=9)
        assert rep.reps == 1
        assert np.all(rep.q_empirical == 1.5)

    @pytest.mark.parametrize("grid_size", [2, 9, 199, 1000])
    def test_quantiles_equal_numpy_hazen_bits(self, grid_size):
        rng = np.random.default_rng(grid_size)
        probs = (np.arange(1, grid_size + 1) - 0.5) / grid_size
        sizes = [*range(1, 61), 99, 100, 101, 199, 200, 999, 1000, 4097, 9999, 10000]
        for size in sizes:
            # continuous draws, heavy ties, and a NaN, which numpy gives every quantile
            nan_last = np.append(rng.chisquare(2, size - 1), np.nan)
            for samples in (rng.chisquare(2, size), rng.integers(0, 4, size) * 0.5, nan_last):
                got = qq_report(samples, grid_size).q_empirical
                want = np.quantile(samples, probs, method="hazen")
                assert got.tobytes() == want.tobytes(), (size, samples)


def test_qq_report_loads_no_numpy_ma(child_env):
    # np.quantile imports numpy.ma on its first call, 9-15 ms in every run
    code = (
        "import sys, numpy as np; from covlss.inference import qq_report; "
        "qq_report(np.arange(1.0, 40.0)); print('numpy.ma' in sys.modules)"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=child_env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"
