import numpy as np
import pytest

from covlss.enumeration import (
    EnumerationGuardError,
    EnumerationTask,
    exact_expectation,
    exact_variance,
    verify_finite_n_moments,
    verify_fourth_moment,
    verify_quadratic_covariance,
    verify_triple_product,
)
from covlss.innovations import NotEnumerableError, rademacher, standard_normal, two_point
from covlss.population import assemble_model
from covlss.symmat import SymMatrix, identity


def rotation(theta):
    return np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])


def random_sym(rng, dim):
    a = rng.uniform(-1.0, 1.0, size=(dim, dim))
    return SymMatrix(0.5 * (a + a.T))


class TestExactExpectation:
    def test_unit_variance(self):
        task = EnumerationTask(1, rademacher(), lambda x: float(x[0] ** 2))
        assert exact_expectation(task) == 1.0

    def test_fourth_moment_two_point(self):
        task = EnumerationTask(1, two_point(0.2), lambda x: float(x[0] ** 4))
        assert exact_expectation(task) == pytest.approx(3.25, abs=1e-14)

    def test_sum_of_independent(self):
        task = EnumerationTask(2, rademacher(), lambda x: float((x[0] + x[1]) ** 2))
        assert exact_expectation(task) == 2.0

    def test_linearity(self):
        rng = np.random.default_rng(2)
        c = rng.uniform(-2, 2, 3)
        s1 = lambda x: float(c[0] * x[0] + c[1] * x[1] ** 2)
        s2 = lambda x: float(c[2] * x[0] * x[1])
        both = lambda x: s1(x) + s2(x)
        d = two_point(0.35)
        lhs = exact_expectation(EnumerationTask(2, d, both))
        rhs = exact_expectation(EnumerationTask(2, d, s1)) + exact_expectation(
            EnumerationTask(2, d, s2)
        )
        assert lhs == pytest.approx(rhs, abs=1e-12)

    def test_variance_two_pass(self):
        task = EnumerationTask(1, two_point(0.2), lambda x: float(x[0]))
        assert exact_variance(task) == pytest.approx(1.0, abs=1e-14)

    def test_guard_trips(self):
        with pytest.raises(EnumerationGuardError):
            EnumerationTask(100, rademacher(), lambda x: 0.0)

    def test_continuous_rejected(self):
        with pytest.raises(NotEnumerableError):
            EnumerationTask(1, standard_normal(), lambda x: 0.0)


class TestQuadraticCovariance:
    def test_identity_rademacher_degenerate(self):
        r = verify_quadratic_covariance(identity(2), identity(2), rademacher())
        assert r.lhs == 0.0 and r.rhs == 0.0

    def test_zero_matrix(self):
        z = SymMatrix(np.zeros((2, 2)))
        r = verify_quadratic_covariance(identity(2), z, rademacher())
        assert r.lhs == 0.0 and r.rhs == 0.0

    def test_random_grid(self):
        rng = np.random.default_rng(9)
        for trial in range(25):
            dim = int(rng.integers(1, 4))
            r = verify_quadratic_covariance(
                random_sym(rng, dim), random_sym(rng, dim), two_point(0.2)
            )
            assert r.abs_err <= 1e-12

    def test_dim_guard(self):
        with pytest.raises(EnumerationGuardError):
            verify_quadratic_covariance(identity(5), identity(5), rademacher())

    def test_dim_mismatch(self):
        with pytest.raises(ValueError):
            verify_quadratic_covariance(identity(2), identity(3), rademacher())


class TestFourthMoment:
    def test_identity_rademacher(self):
        r = verify_fourth_moment(identity(2), rademacher())
        assert r.lhs == pytest.approx(2.0, abs=1e-14)
        assert r.rhs == pytest.approx(2.0, abs=1e-14)

    def test_zero_matrix(self):
        r = verify_fourth_moment(SymMatrix(np.zeros((3, 3))), two_point(0.4))
        assert r.lhs == 0.0 and r.rhs == 0.0

    def test_random_grid(self):
        rng = np.random.default_rng(10)
        for trial in range(25):
            dim = int(rng.integers(1, 4))
            r = verify_fourth_moment(random_sym(rng, dim), two_point(0.35))
            assert r.abs_err <= 1e-12


class TestTripleProduct:
    def test_identity_rademacher_cube(self):
        # x'x is identically 2, so E (x'x)^3 = 8
        r = verify_triple_product(identity(2), identity(2), rademacher())
        assert r.lhs == pytest.approx(8.0, abs=1e-14)
        assert r.rhs == pytest.approx(8.0, abs=1e-14)

    def test_zero_weight_matrix(self):
        z = SymMatrix(np.zeros((2, 2)))
        r = verify_triple_product(identity(2), z, two_point(0.2))
        assert r.lhs == 0.0 and r.rhs == 0.0

    def test_random_grid_with_skewed_innovations(self):
        rng = np.random.default_rng(11)
        for trial in range(25):
            dim = int(rng.integers(1, 4))
            r = verify_triple_product(
                random_sym(rng, dim), random_sym(rng, dim), two_point(0.2)
            )
            assert r.abs_err <= 1e-10

    def test_report_dict_shape(self):
        r = verify_triple_product(identity(2), identity(2), rademacher())
        d = r.as_dict()
        assert set(d) == {"lemma", "dims", "dist", "lhs", "rhs", "abs_err"}
        assert d["lemma"] == "triple_product"


class TestFiniteNMoments:
    def test_degenerate_scalar_rademacher(self):
        # p=1, sigma=1: T1 is identically 1, variance exactly zero
        model = assemble_model([1.0])
        rep = verify_finite_n_moments(model, 2, rademacher())
        assert rep.e_t1 == (1.0, 1.0)
        assert rep.var_t1[0] == pytest.approx(0.0, abs=1e-14)
        assert rep.var_t1[1] == 0.0

    def test_diagonal_rademacher(self):
        model = assemble_model([1.0, 2.0])
        rep = verify_finite_n_moments(model, 2, rademacher())
        assert rep.exact_abs_err <= 1e-12

    def test_rotated_two_point(self):
        model = assemble_model([2.0, 1.0], rotation(np.pi / 4))
        rep = verify_finite_n_moments(model, 2, two_point(0.2))
        assert rep.exact_abs_err <= 1e-10

    def test_centered_mean_confirms_divisor_n(self):
        # enumeration picks (1 - 1/n) tr S over the (1 + 1/n) tr S variant
        model = assemble_model([1.0, 2.0])
        n = 3
        rep = verify_finite_n_moments(model, n, two_point(0.2))
        enumerated = rep.e_t1_centered[0]
        divisor_n = 3.0 * (1 - 1 / n)
        alternative = 3.0 * (1 + 1 / n)
        assert abs(enumerated - divisor_n) <= 1e-12
        assert abs(enumerated - alternative) > 1.9

    def test_guard_on_large_dims(self):
        model = assemble_model([1.0] * 4)
        with pytest.raises(EnumerationGuardError):
            verify_finite_n_moments(model, 5, rademacher())
