import re

import numpy as np
import pytest

from covlss import moments
from covlss.moments import MomentSet, moment_set, single_spike_variance
from covlss.population import TraceSet, assemble_model


def traces_of_diag(values):
    return assemble_model(values).traces


class TestExpectedValues:
    def test_identity_population(self):
        p, n = 6, 11
        ts = traces_of_diag([1.0] * p)
        ms = moment_set(ts, n, nu4=0.0)
        assert ms.e_t1 == p
        assert ms.e_t2 == pytest.approx((p**2 + (n + 1) * p) / n, rel=1e-14)

    def test_single_spike_worked_example(self):
        # diag(4, 1), n = 2, gaussian: E T1 = 5, E T2 = (25 + 3*17)/2 = 38
        ts = traces_of_diag([4.0, 1.0])
        ms = moment_set(ts, 2, nu4=0.0)
        assert ms.e_t1 == 5.0
        assert ms.e_t2 == pytest.approx(38.0, rel=1e-14)

    def test_rejects_bad_n(self):
        with pytest.raises(ValueError, match="positive"):
            moment_set(traces_of_diag([1.0]), 0, 0.0)


class TestPsiMatrix:
    def test_identity_population_gaussian(self):
        p, n = 5, 9
        ts = traces_of_diag([1.0] * p)
        ms = moment_set(ts, n, nu4=0.0)
        p11, p12, p22 = ms.psi11, ms.psi12, ms.psi22
        assert p11 == pytest.approx(2 * p / n, rel=1e-14)
        assert p12 == pytest.approx((4 * p**2 + 4 * n * p) / n**2, rel=1e-14)
        assert p22 == pytest.approx(
            (8 * p**3 + 16 * n * p**2 + 4 * n * p**2 + 8 * n**2 * p) / n**3, rel=1e-14
        )

    def test_rademacher_identity_degenerates(self):
        # T1 is constant when every x^2 = 1 and the spectrum is flat
        ts = traces_of_diag([1.0] * 4)
        assert moment_set(ts, 7, nu4=-2.0).psi11 == 0.0

    def test_psi11_linear_in_nu4_with_exact_slope(self):
        ts = traces_of_diag([2.0, 0.7, 1.3])
        n = 5
        a = moment_set(ts, n, nu4=0.0).psi11
        b = moment_set(ts, n, nu4=1.0).psi11
        assert b - a == pytest.approx(ts.trH11 / n, rel=1e-14)

    @pytest.mark.parametrize("c", [0.5, 2.0, 10.0])
    def test_scaling_covariance(self, c):
        rng = np.random.default_rng(3)
        vals = rng.uniform(0.5, 3.0, 6)
        n, nu4 = 13, 1.5
        base_tr = traces_of_diag(vals)
        scaled_tr = traces_of_diag(c * vals)
        base = moment_set(base_tr, n, nu4)
        scaled = moment_set(scaled_tr, n, nu4)
        assert scaled.e_t1 == pytest.approx(c * base.e_t1, rel=1e-10)
        assert scaled.e_t2 == pytest.approx(c**2 * base.e_t2, rel=1e-10)
        assert scaled.psi11 == pytest.approx(c**2 * base.psi11, rel=1e-10)
        assert scaled.psi12 == pytest.approx(c**3 * base.psi12, rel=1e-10)
        assert scaled.psi22 == pytest.approx(c**4 * base.psi22, rel=1e-10)

    def test_psi11_positive_for_nondegenerate_nu4(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            vals = rng.uniform(0.1, 5.0, int(rng.integers(1, 8)))
            nu4 = rng.uniform(-1.99, 3.0)
            assert moment_set(traces_of_diag(vals), 7, nu4).psi11 > 0


class TestCenteredExpectedValues:
    def test_identity_population(self):
        p, n = 4, 8
        ts = traces_of_diag([1.0] * p)
        ms = moment_set(ts, n, nu4=0.0, centered=True)
        assert ms.e_t1_centered == pytest.approx(p * (1 - 1 / n), rel=1e-14)
        assert ms.e_t2_centered == pytest.approx(ms.e_t2 - (p**2 + 2 * n * p) / n**2, rel=1e-14)

    def test_scalar_analytic_case(self):
        # p=1, sigma=1, n=2: E tr(B - ybar ybar') = (1 - 1/n) = 0.5
        ts = traces_of_diag([1.0])
        assert moment_set(ts, 2, nu4=0.0, centered=True).e_t1_centered == 0.5

    def test_needs_n_at_least_two(self):
        with pytest.raises(ValueError, match="n >= 2"):
            moment_set(traces_of_diag([1.0]), 1, 0.0, centered=True)
        assert moment_set(traces_of_diag([1.0]), 1, 0.0).e_t1_centered is None


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
            return n * moment_set(ts, n, nu4).psi22 / tau1**4

        limit = ratio(1e6, 1)  # pure spike at the same n
        assert abs(ratio(1e3, p) / limit - 1.0) <= 0.01
        assert abs(ratio(1e4, p) / limit - 1.0) <= 1e-4
        big_n_value = 500 * moment_set(traces_of_diag([1e6]), 500, nu4).psi22 / 1e24
        assert big_n_value == pytest.approx(limit, rel=1e-9)
        # the same-n limit approaches the asymptotic constant as n grows
        huge_n = 10**6
        asymptotic = huge_n * moment_set(traces_of_diag([1e8]), huge_n, nu4).psi22 / 1e32
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

    def test_numpy_integer_n_is_the_int(self):
        # an int64 n**3 wrapped silently: psi22 read 0.00946 for 0.00300
        ts = TraceSet(*_PINNED[0][0])  # criterion 5's spectrum
        wide = moment_set(ts, np.int64(3_000_000), 0.0, centered=True)
        assert vars(wide) == vars(moment_set(ts, 3_000_000, 0.0, centered=True))

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
        ms = moment_set(model.traces, n, 0.0)
        assert t1s.mean() == pytest.approx(ms.e_t1, rel=0.01)
        assert t2s.mean() == pytest.approx(ms.e_t2, rel=0.01)
        cov = np.cov(t1s, t2s, ddof=1)
        assert cov[0, 0] == pytest.approx(ms.psi11, rel=0.15)
        assert cov[0, 1] == pytest.approx(ms.psi12, rel=0.15)
        assert cov[1, 1] == pytest.approx(ms.psi22, rel=0.15)


# (tr1, tr2, tr3, tr4, trH11, trH12, trH22), n, nu4 and the pinned
# (e_t2, psi11, psi12, psi22, e_t2_centered, psi11_scale, psi22_scale):
# evaluating the terms in any other order moves a last bit of some value here
_PINNED = [
    # criterion 5: diag(5, 1, ..., 1), p = n = 500, gaussian
    ((504.0, 524.0, 624.0, 1124.0, 524.0, 624.0, 1124.0), 500, 0.0,
     (1033.08, 2.096, 9.217536, 51.023640576, 1029.967936, 2.096, 51.023640576)),
    # diag(4, 1), n = 2, gaussian
    ((5.0, 17.0, 65.0, 257.0, 17.0, 65.0, 257.0), 2, 0.0,
     (38.0, 17.0, 215.0, 3042.0, 14.75, 17.0, 3042.0)),
    # rotated, p = 3, n = 10^6, sign law
    ((4.499016425253078, 7.489285121524253, 13.674707939277104, 26.767292899031943,
      7.059769760372787, 12.197306242151532, 21.680244996453332), 10**6, -2.0,
     (7.489298732418649, 8.59030722302931e-07, 5.909614518088944e-06,
      4.069671392793703e-05, 7.489283753828165, 2.9098109763794077e-05, 0.0003875823899016728)),
    # rotated, p = 4, n = 3, nu4 = 10
    ((101.0096546796493, 4146.595195654173, 187841.84494354733, 8707165.665512644,
      2605.8177483815907, 106504.02180733977, 4364290.957303147), 3, 10.0,
     (17615.836201644866, 11450.455958374752, 1731553.673493639, 270332647.46173453,
      13717.77825581964, 11450.455958374752, 270332647.46173453)),
    # diagonal, p = 6, n = 7, gamma shape 4
    ((8.052606160512843, 12.358912475595202, 21.01818290968409, 38.22943677861481,
      12.358912475595202, 21.01818290968409, 38.22943677861481), 7, 1.5,
     (26.0363049277834, 6.179456237797601, 35.235533586572224, 218.35310226030398,
      21.181830629116824, 6.179456237797601, 218.35310226030398)),
    # rotated, p = 5 > n = 2, two-point law with P(b) = 0.2
    ((5622.1557944212245, 8510700.475021169, 13772225310.486515, 23422710743910.85,
      6680474.640235366, 10185968562.06424, 15612831379523.162), 2, 0.25,
     (29405427.93093325, 9345759.80505059, 82634260402.72324, 807687935387916.6,
      12992568.511726042, 9345759.80505059, 807687935387916.6)),
]


@pytest.mark.parametrize("traces, n, nu4, pinned", _PINNED)
def test_formula_values_bit_exact(traces, n, nu4, pinned):
    ms = moment_set(TraceSet(*traces), n, nu4, centered=True)
    got = (ms.e_t2, ms.psi11, ms.psi12, ms.psi22, ms.e_t2_centered, ms.psi11_scale, ms.psi22_scale)
    assert got == pinned


# the docstring's words for the TraceSet entries, the longest first so that
# "tr S" is not read out of "tr S^2"
_TRACE_WORDS = {
    "tr(S^2∘S^2)": "trH22", "tr(S∘S^2)": "trH12", "tr(S∘S)": "trH11",
    "tr^2(S^2)": "tr2**2", "tr^2 S": "tr1**2",
    "tr S^2": "tr2", "tr S^3": "tr3", "tr S^4": "tr4", "tr S": "tr1",
}


def docstring_formula(label):
    """The module docstring's "[a + b ...] / n^k" after ``label`` as a Python
    expression in n, nu4 and the TraceSet entries: the words of a term
    multiply."""
    text = " ".join(moments.__doc__.split())
    terms, power = re.search(re.escape(label) + r" \[([^]]*)\] / n(\^\d)?", text).groups()
    words = re.compile("|".join(map(re.escape, _TRACE_WORDS)))
    products = ["*".join(words.sub(lambda m: _TRACE_WORDS[m.group()], term).split())
                for term in terms.split(" + ")]
    return f"({' + '.join(products)}) / n{power or ''}".replace("^", "**")


@pytest.mark.parametrize("label, field", [
    ("E T_2 =", "e_t2"),
    ("psi11 =", "psi11"),
    ("psi12 =", "psi12"),
    ("psi22 =", "psi22"),
    ("E T_2^0 = E T_2 -", "e_t2_centered"),
])
@pytest.mark.parametrize("traces, n, nu4", [point[:3] for point in _PINNED])
def test_docstring_states_each_formula(label, field, traces, n, nu4):
    ts = TraceSet(*traces)
    ms = moment_set(ts, n, nu4, centered=True)
    value = eval(docstring_formula(label), {"n": n, "nu4": nu4, **vars(ts)})
    if field == "e_t2_centered":  # the docstring writes E T_2 - E T_2^0
        value = ms.e_t2 - value
    assert value == pytest.approx(getattr(ms, field), rel=1e-12)
