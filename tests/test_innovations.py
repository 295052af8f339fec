import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from covlss.enumeration import EnumerationTask
from covlss.innovations import (
    GAMMA_MAX_SHAPE,
    InnovationDist,
    MomentProfile,
    NotEnumerableError,
    parse_dist,
    rademacher,
    sample_block,
    standard_normal,
    standardized_gamma,
    two_point,
)


class TestProfiles:
    def test_standard_normal(self):
        p = standard_normal().profile
        assert (p.mu3, p.mu4, p.nu4, p.mu6, p.mu8) == (0.0, 3.0, 0.0, 15.0, 105.0)

    def test_rademacher(self):
        p = rademacher().profile
        assert (p.mu3, p.mu4, p.nu4, p.mu6, p.mu8) == (0.0, 1.0, -2.0, 1.0, 1.0)

    def test_gamma_4_half_cumulant_oracle(self):
        # standardized cumulants of a gamma law: kappa_r = (r-1)! k^(1-r/2)
        k = 4.0
        k3 = 2.0 / math.sqrt(k)
        k4 = 6.0 / k
        k5 = 24.0 * k**-1.5
        k6 = 120.0 / k**2
        k8 = 5040.0 * k**-3.0
        mu6 = k6 + 15 * k4 + 10 * k3**2 + 15
        mu8 = k8 + 28 * k6 + 56 * k5 * k3 + 35 * k4**2 + 210 * k4 + 280 * k3**2 + 105
        p = standardized_gamma(4, 0.5).profile
        assert p.mu3 == pytest.approx(1.0, abs=1e-12)
        assert p.nu4 == pytest.approx(1.5, abs=1e-12)
        assert p.mu6 == pytest.approx(mu6, rel=1e-12)
        assert p.mu8 == pytest.approx(mu8, rel=1e-12)

    def test_gamma_profile_scale_invariant(self):
        # standardization removes the scale parameter entirely
        a = standardized_gamma(3, 0.5).profile
        b = standardized_gamma(3, 7.0).profile
        assert a.mu3 == pytest.approx(b.mu3, rel=1e-12)
        assert a.mu8 == pytest.approx(b.mu8, rel=1e-12)

    @pytest.mark.parametrize("shape", [float(k) for k in np.logspace(-2, 8, 21)] + [0.5, 4.0],
                             ids="{:.3g}".format)
    def test_gamma_profile_closed_form(self, shape):
        # exact oracle: central moments of Gamma(k, 1) from its raw moments
        # k(k+1)...(k+r-1) in rational arithmetic, standardized by k^(r/2)
        k = Fraction(shape)
        raw = [Fraction(1)]
        for r in range(1, 9):
            raw.append(raw[-1] * (k + r - 1))
        central = [
            sum(math.comb(r, j) * raw[j] * (-k) ** (r - j) for j in range(r + 1))
            for r in range(9)
        ]
        assert central[3] == 2 * k
        p = standardized_gamma(shape, 1.0).profile
        assert p.mu3 == pytest.approx(2.0 / math.sqrt(shape), rel=1e-12)
        assert p.mu4 == pytest.approx(float(central[4] / k**2), rel=1e-12)
        assert p.mu6 == pytest.approx(float(central[6] / k**3), rel=1e-12)
        assert p.mu8 == pytest.approx(float(central[8] / k**4), rel=1e-12)
        assert p.nu4 == pytest.approx(6.0 / shape, rel=1e-12, abs=1e-15)

    def test_huge_scale_equals_unit_scale(self):
        # the scale cancels from the standardized law: gamma:1:1e300 is gamma:1:1
        big, unit = parse_dist("gamma:1:1e300"), parse_dist("gamma:1:1")
        assert big.profile == unit.profile
        assert np.array_equal(sample_block(big, 7, 1000), sample_block(unit, 7, 1000))

    def test_gamma_shape_bound(self):
        # the largest shape whose standardized draw still resolves its skewness
        assert GAMMA_MAX_SHAPE == 2.0**53
        assert standardized_gamma(GAMMA_MAX_SHAPE, 1.0).profile.mu3 > 0
        with pytest.raises(ValueError, match="GAMMA_MAX_SHAPE"):
            standardized_gamma(2.0 * GAMMA_MAX_SHAPE, 1.0)

    def test_two_point_design_values(self):
        d = two_point(0.2)
        assert d.support == pytest.approx([-0.5, 2.0])
        assert d.probabilities == pytest.approx([0.8, 0.2])
        assert d.profile.mu3 == pytest.approx(1.5, abs=1e-12)
        assert d.profile.mu4 == pytest.approx(3.25, abs=1e-12)

    def test_profile_invariants_rejected(self):
        with pytest.raises(ValueError):
            MomentProfile(mu3=0.0, mu4=0.5, mu6=1.0, mu8=1.0)
        with pytest.raises(ValueError):
            MomentProfile(mu3=0.0, mu4=3.0, mu6=2.0, mu8=105.0)
        # the finiteness gate runs first: a NaN passes every inequality
        for bad in (math.nan, math.inf):
            with pytest.raises(ValueError, match=r"not finite in double precision: mu8 = "):
                MomentProfile(mu3=0.0, mu4=3.0, mu6=15.0, mu8=bad)
        with pytest.raises(ValueError, match=r": mu3 = nan, mu4 = nan$"):
            MomentProfile(mu3=math.nan, mu4=math.nan, mu6=15.0, mu8=105.0)


class TestEnumerateSupport:
    def test_rademacher_support(self):
        d = rademacher()
        assert list(zip(d.support, d.probabilities)) == [(-1.0, 0.5), (1.0, 0.5)]

    def test_normal_not_enumerable(self):
        assert standard_normal().support is None
        with pytest.raises(NotEnumerableError):
            EnumerationTask(1, standard_normal(), lambda x: float(x[0]))

    @pytest.mark.parametrize("dist", [rademacher(), two_point(0.2), two_point(0.61)])
    def test_support_moments_match_profile(self, dist):
        pairs = list(zip(dist.support, dist.probabilities))
        assert math.fsum(p for _, p in pairs) == pytest.approx(1.0, abs=1e-14)
        assert math.fsum(p * v for v, p in pairs) == pytest.approx(0.0, abs=1e-12)
        assert math.fsum(p * v**2 for v, p in pairs) == pytest.approx(1.0, abs=1e-12)
        prof = dist.profile
        for m, want in ((3, prof.mu3), (4, prof.mu4), (6, prof.mu6), (8, prof.mu8)):
            got = math.fsum(p * v**m for v, p in pairs)
            assert got == pytest.approx(want, abs=1e-12)


class TestSampling:
    def test_empty_block(self):
        assert sample_block(standard_normal(), 1, 0).shape == (0,)

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            sample_block(standard_normal(), 1, -1)

    def test_reproducible(self):
        for dist in (standard_normal(), standardized_gamma(4, 0.5), rademacher(), two_point(0.3)):
            a = sample_block(dist, 987654321, 1000)
            b = sample_block(dist, 987654321, 1000)
            assert np.array_equal(a, b)

    def test_rademacher_monte_carlo_bands(self):
        x = sample_block(rademacher(), 50, 10**6)
        assert set(np.unique(x)) == {-1.0, 1.0}
        assert abs(x.mean()) <= 0.004
        assert abs(x.var() - 1.0) <= 0.005

    def test_gamma_draw_matches_scaled_generator(self):
        # the standardized draw has the bits of (g - k theta) / (theta sqrt(k))
        # for numpy's gamma(k, theta) draw g when theta is a power of 2
        for seed in range(3):
            g = np.random.default_rng(seed).gamma(4.0, 0.5, 5000)
            want = (g - 2.0) / (0.5 * 2.0)
            got = sample_block(standardized_gamma(4, 0.5), seed, 5000)
            assert got.tobytes() == want.tobytes(), seed

    @pytest.mark.parametrize("shape", [4.0, 2.5])  # sqrt(2.5) is not a power of 2
    def test_gamma_standardized_in_place_bit_for_bit(self, shape):
        # at scale 1 the draw is (standard_gamma(k) - k) / sqrt(k) bit for bit;
        # sqrt(2.5), unlike sqrt(4), also pins the division's rounding
        for seed in range(3):
            want = np.random.default_rng(seed).standard_gamma(shape, 5000)
            want = (want - shape) / math.sqrt(shape)
            got = standardized_gamma(shape, 1.0).sample(np.random.default_rng(seed), 5000)
            assert got.tobytes() == want.tobytes(), seed

    def test_gamma_monte_carlo_bands(self):
        x = sample_block(standardized_gamma(4, 0.5), 51, 10**6)
        assert abs(x.mean()) <= 0.003  # 3 sigma, sd of the mean = 1e-3
        assert abs(x.var() - 1.0) <= 0.006
        # third moment: Var(x^3) = mu6 - mu3^2 = 54, 3 sigma band
        assert abs((x**3).mean() - 1.0) <= 0.022

    def test_two_point_hits_support_only(self):
        x = sample_block(two_point(0.2), 5, 10000)
        assert set(np.unique(x)) <= {-0.5, 2.0}
        assert abs(x.mean()) <= 0.03


# each law's draw as one generator expression, written out apart from its record
_GENERATOR_EXPRESSIONS = {
    "normal": lambda rng, count: rng.standard_normal(count),
    "gamma:4:0.5": lambda rng, count: (rng.standard_gamma(4.0, count) - 4.0) / math.sqrt(4.0),
    "gamma:2.5:1": lambda rng, count: (rng.standard_gamma(2.5, count) - 2.5) / math.sqrt(2.5),
    "rademacher": lambda rng, count: rng.integers(0, 2, count) * 2.0 - 1.0,
    "twopoint:0.2": lambda rng, count: np.where(
        rng.random(count) < 0.2, math.sqrt((1.0 - 0.2) / 0.2), -math.sqrt(0.2 / (1.0 - 0.2))
    ),
}


class TestRecord:
    @pytest.mark.parametrize("selector", list(_GENERATOR_EXPRESSIONS))
    def test_sample_block_is_the_generator_expression(self, selector):
        d = parse_dist(selector)
        for seed in range(3):
            want = _GENERATOR_EXPRESSIONS[selector](np.random.default_rng(seed), 5000)
            assert sample_block(d, seed, 5000).tobytes() == want.tobytes(), seed
        assert parse_dist(d.selector).selector == d.selector == selector

    def test_selector_is_canonical(self):
        assert parse_dist(" gamma:4.0:0.50 ").selector == "gamma:4:0.5"
        assert parse_dist("twopoint:.25").selector == "twopoint:0.25"
        # every digit kept: two laws never share a selector
        assert parse_dist("gamma:4.1234567:0.5").selector == "gamma:4.1234567:0.5"
        assert parse_dist("twopoint:0.1234567").selector == "twopoint:0.1234567"

    def test_law_without_sampler_refused(self):
        law = InnovationDist(
            "threepoint", MomentProfile(mu3=1.0, mu4=3.0, mu6=11.0, mu8=43.0),
            np.array([-1.0, 0.0, 2.0]), np.array([1.0 / 3.0, 0.5, 1.0 / 6.0]),
        )
        with pytest.raises(ValueError, match="^threepoint has no sampler"):
            sample_block(law, 1, 3)


class TestParseDist:
    @pytest.mark.parametrize(
        "selector,kind",
        [
            ("normal", "normal"),
            ("gamma:4:0.5", "gamma"),
            ("rademacher", "rademacher"),
            ("twopoint:0.2", "twopoint"),
        ],
    )
    def test_round_trip(self, selector, kind):
        d = parse_dist(selector)
        assert d.selector.partition(":")[0] == kind
        assert parse_dist(d.selector).selector == d.selector

    @pytest.mark.parametrize(
        "selector",
        ["", "norm", "gamma:4", "gamma:4:0.5:1", "twopoint", "twopoint:1.5", "gamma:-1:2",
         "gamma:1e-300:1", "gamma:1e300:1", "gamma:nan:1", "gamma:1:inf",
         "twopoint:1e-300", "twopoint:1e-100"],
    )
    def test_rejects_malformed(self, selector):
        # moments that overflow reach the profile's gate as inf: refused
        # with a ValueError, no RuntimeWarning and no OverflowError
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError):
                parse_dist(selector)


@settings(max_examples=40, deadline=None)
@given(prob=st.floats(0.01, 0.99))
def test_two_point_standardization_property(prob):
    d = two_point(prob)
    pairs = list(zip(d.support, d.probabilities))
    assert math.fsum(p * v for v, p in pairs) == pytest.approx(0.0, abs=1e-12)
    assert math.fsum(p * v**2 for v, p in pairs) == pytest.approx(1.0, abs=1e-12)
    # standardized two-point laws satisfy mu4 = 1 + mu3^2 identically
    assert d.profile.mu4 == pytest.approx(1.0 + d.profile.mu3**2, rel=1e-9)
