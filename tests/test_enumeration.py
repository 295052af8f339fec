import dataclasses
import itertools
import math
import tracemalloc

import numpy as np
import pytest

from covlss import enumeration
from covlss.enumeration import (
    FINITE_N_COLUMNS,
    IDENTITY_COLUMNS,
    EnumerationGuardError,
    EnumerationTask,
    SymMatrix,
    SymmetryError,
    exact_expectation,
    verify_finite_n_moments,
    verify_identities,
)
from covlss.innovations import (
    InnovationDist,
    MomentProfile,
    NotEnumerableError,
    rademacher,
    standard_normal,
    two_point,
)
from covlss.harness import VERIFICATION_LAWS, _finite_moment_grid
from covlss.population import assemble_model, haar_orthogonal


def identity(p):
    return SymMatrix(np.eye(p)[None])


def rotation(theta):
    return np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])


def random_sym(rng, dim):
    a = rng.uniform(-1.0, 1.0, size=(dim, dim))
    return SymMatrix((0.5 * (a + a.T))[None])


def one_case(statistic):
    """A single statistic as a stack of one: shape (1, rows)."""
    return lambda x: statistic(x)[None]


def squared_deviation(task, mean):
    """The task of (s - mean)^2 per case: the second pass of a two-pass
    variance, about each case's known mean."""
    mean = np.asarray(mean, dtype=float)[:, None]
    return EnumerationTask(
        task.num_vars, task.dist, lambda x: (task.statistic(x) - mean) ** 2, task.cases
    )


def check(lemma, a, b, dist):
    """One lemma's (lhs, rhs) columns of verify_identities, each ``(cases,)``."""
    lhs, rhs = verify_identities(a, b, dist)
    k = IDENTITY_COLUMNS.index(lemma)
    return lhs[:, k], rhs[:, k]


def loop_expectation(dist, num_vars, statistic, mean=None):
    """Reference: one assignment at a time in itertools.product order.

    With ``mean`` given, the centered second moment (the second pass of a
    two-pass variance) instead of the expectation.
    """
    terms = []
    for idx in itertools.product(range(len(dist.support)), repeat=num_vars):
        x = dist.support[list(idx)]
        weight = float(np.prod(dist.probabilities[list(idx)]))
        value = statistic(x)
        terms.append(weight * (value if mean is None else (value - mean) ** 2))
    return math.fsum(terms)


def finite_n_traces(half, p, n, x):
    """(T_1, T_2, T_1^0, T_2^0) of one assignment, built the direct p x p way."""
    y = half @ x.reshape(p, n)
    b = (y @ y.T) / n
    ybar = y.mean(axis=1)
    b0 = b - np.outer(ybar, ybar)
    return np.trace(b), np.sum(b * b), np.trace(b0), np.sum(b0 * b0)


def finite_n(model, n, dist):
    """One model checked through the grouped call: each column of
    FINITE_N_COLUMNS as an (enumerated, formula) pair, and the largest error
    of the four exact columns, NaN if any of the ten values is not finite."""
    enumerated, formula = verify_finite_n_moments([model], n, dist)
    rep = dict(zip(FINITE_N_COLUMNS, zip(enumerated[0].tolist(), formula[0].tolist())))
    if not all(math.isfinite(v) for pair in rep.values() for v in pair):
        return rep, math.nan
    return rep, max(abs(e - f) for e, f in list(rep.values())[:4])


# Standardized three-point law on (-1, 0, 2) with P = (1/3, 1/2, 1/6):
# mu3 = 1, mu4 = 3, mu6 = 11, mu8 = 43.
THREE_POINT = InnovationDist(
    selector="threepoint",
    profile=MomentProfile(mu3=1.0, mu4=3.0, mu6=11.0, mu8=43.0),
    support=np.array([-1.0, 0.0, 2.0]),
    probabilities=np.array([1.0 / 3.0, 0.5, 1.0 / 6.0]),
)

# Standardized symmetric three-point law on (-2, 0, 2) with P = (1/8, 3/4, 1/8):
# mu3 = 0, mu4 = 4, mu6 = 16, mu8 = 64.
SYMMETRIC_THREE_POINT = InnovationDist(
    selector="threepoint-symmetric",
    profile=MomentProfile(mu3=0.0, mu4=4.0, mu6=16.0, mu8=64.0),
    support=np.array([-2.0, 0.0, 2.0]),
    probabilities=np.array([0.125, 0.75, 0.125]),
)

# Every law of VERIFICATION_LAWS is a two-point law, so mu4 = 1 + mu3^2 on
# each (Pearson's bound holds with equality): nu4 = mu3^2 - 2 and mu6 is a
# function of mu3.  The two three-point laws are off that curve, so the
# identities' law-dependent coefficients are checked apart.
IDENTITY_LAWS = [*VERIFICATION_LAWS, THREE_POINT, SYMMETRIC_THREE_POINT]


def identity_coefficients(dist):
    """The four law-dependent coefficients of the identities' right-hand
    sides: 1, nu4, mu3^2 and mu6 - 15 mu4 - 10 mu3^2 + 30."""
    m = dist.profile
    return [1.0, m.nu4, m.mu3**2, m.mu6 - 15.0 * m.mu4 - 10.0 * m.mu3**2 + 30.0]


def symmetric_stack(rng, cases, dim):
    a = rng.uniform(-1.0, 1.0, size=(cases, dim, dim))
    return 0.5 * (a + a.transpose(0, 2, 1))


class TestSymMatrix:
    def test_rejects_asymmetric(self):
        with pytest.raises(SymmetryError):
            SymMatrix(np.array([[[1.0, 2.0], [2.1, 1.0]]]))

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            SymMatrix(np.zeros((1, 2, 3)))

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            SymMatrix(np.array([[[np.nan]]]))

    def test_tolerates_roundoff_asymmetry(self):
        a = np.array([[[1.0, 0.5], [0.5 * (1 + 1e-14), 1.0]]])
        m = SymMatrix(a)
        assert m.dim == 2

    def test_rejects_a_bare_matrix(self):
        # a single matrix is a stack of one, never a bare (d, d) array
        with pytest.raises(ValueError, match="stack"):
            SymMatrix(np.eye(2))

    def test_asymmetric_member_named_by_index(self):
        a = symmetric_stack(np.random.default_rng(3), 5, 3)
        a[3, 0, 2] += 1e-6
        with pytest.raises(SymmetryError, match="matrix 3 of the stack"):
            SymMatrix(a)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_member_refused(self, bad):
        a = symmetric_stack(np.random.default_rng(4), 4, 2)
        a[2, 1, 1] = bad
        with pytest.raises(ValueError, match="matrix 2 of the stack"):
            SymMatrix(a)

    def test_mismatched_stacks(self):
        rng = np.random.default_rng(5)
        three, two = SymMatrix(symmetric_stack(rng, 3, 2)), SymMatrix(symmetric_stack(rng, 2, 2))
        wide = SymMatrix(symmetric_stack(rng, 3, 3))
        for a, b in ((three, two), (three, wide), (two, three), (wide, three)):
            with pytest.raises(ValueError, match="dimension mismatch"):
                verify_identities(a, b, rademacher())
            with pytest.raises(ValueError, match="dimension mismatch"):
                verify_identities(a, b, two_point(0.2))

    def test_dimension_five_stack_guarded(self):
        a = SymMatrix(symmetric_stack(np.random.default_rng(6), 3, 5))
        with pytest.raises(EnumerationGuardError):
            verify_identities(a, a, rademacher())
        with pytest.raises(EnumerationGuardError):
            verify_identities(a, a, two_point(0.2))

    def test_array_is_frozen(self):
        m = identity(3)
        with pytest.raises(ValueError):
            m.array[0, 0] = 5.0


class TestExactExpectation:
    def test_unit_variance(self):
        task = EnumerationTask(1, rademacher(), one_case(lambda x: x[:, 0] ** 2))
        assert exact_expectation(task).tolist() == [1.0]

    def test_fourth_moment_two_point(self):
        task = EnumerationTask(1, two_point(0.2), one_case(lambda x: x[:, 0] ** 4))
        (e,) = exact_expectation(task)
        assert e == pytest.approx(3.25, abs=1e-14)

    def test_sum_of_independent(self):
        task = EnumerationTask(2, rademacher(), one_case(lambda x: (x[:, 0] + x[:, 1]) ** 2))
        assert exact_expectation(task).tolist() == [2.0]

    def test_stack_sums_each_case(self):
        # E x^k for k = 1..4 of one law in one task: 0, 1, mu3, mu4
        d = two_point(0.2)
        m = d.profile
        task = EnumerationTask(1, d, lambda x: x[:, 0] ** np.arange(1, 5)[:, None], cases=4)
        e = exact_expectation(task)
        assert e.shape == (4,)
        assert e == pytest.approx([0.0, 1.0, m.mu3, m.mu4], abs=1e-14)
        # Var x^k = E x^2k - (E x^k)^2, each case about its own mean
        var = exact_expectation(squared_deviation(task, e))
        assert var.shape == (4,)
        assert var == pytest.approx(
            [1.0, m.mu4 - 1.0, m.mu6 - m.mu3**2, m.mu8 - m.mu4**2], rel=1e-13, abs=1e-14
        )

    def test_linearity(self):
        rng = np.random.default_rng(2)
        c = rng.uniform(-2, 2, 3)
        s1 = lambda x: c[0] * x[:, 0] + c[1] * x[:, 1] ** 2
        s2 = lambda x: c[2] * x[:, 0] * x[:, 1]
        both = lambda x: s1(x) + s2(x)
        d = two_point(0.35)
        (lhs,) = exact_expectation(EnumerationTask(2, d, one_case(both)))
        (e1,) = exact_expectation(EnumerationTask(2, d, one_case(s1)))
        (e2,) = exact_expectation(EnumerationTask(2, d, one_case(s2)))
        assert lhs == pytest.approx(e1 + e2, abs=1e-12)

    def test_variance_two_pass(self):
        # the second pass about the first pass's mean: E (x - E x)^2 = 1
        task = EnumerationTask(1, two_point(0.2), one_case(lambda x: x[:, 0]))
        (v,) = exact_expectation(squared_deviation(task, exact_expectation(task)))
        assert v == pytest.approx(1.0, abs=1e-14)

    @pytest.mark.parametrize(
        "statistic",
        [
            lambda x: x[0] ** 2,  # the first row only: shape (num_vars,)
            lambda x: x**2,  # a column, not a vector: shape (rows, 1)
            lambda x: float(np.sum(x**2)),  # one scalar for the whole grid
            lambda x: x[:, 0] ** 2,  # one value per row but no case axis: (rows,)
        ],
        ids=["first-row", "column", "scalar", "no-case-axis"],
    )
    def test_one_value_per_row_required(self, statistic):
        # each of these would broadcast against the weights without the check
        task = EnumerationTask(1, two_point(0.2), statistic)
        with pytest.raises(ValueError, match="shape"):
            exact_expectation(task)
        # a second pass, about the known mean E x^2 = 1, is checked alike
        deviation = EnumerationTask(1, two_point(0.2), lambda x: (statistic(x) - 1.0) ** 2)
        with pytest.raises(ValueError, match="shape"):
            exact_expectation(deviation)

    def test_guard_trips(self):
        with pytest.raises(EnumerationGuardError):
            EnumerationTask(100, rademacher(), lambda x: 0.0)

    def test_guard_refuses_past_two_to_the_eighteen(self):
        # the whole grid is built at once, so 2^19 assignments are refused
        # by name before anything is allocated; 2^18 is admitted
        with pytest.raises(EnumerationGuardError, match="524288 assignments exceed"):
            EnumerationTask(19, rademacher(), lambda x: 0.0)
        EnumerationTask(18, rademacher(), lambda x: 0.0)

    def test_continuous_rejected(self):
        with pytest.raises(NotEnumerableError):
            EnumerationTask(1, standard_normal(), lambda x: 0.0)


class TestBlocks:
    def test_exact_across_many_blocks(self):
        # 2^18 Rademacher assignments, the largest grid the guard admits;
        # every weight, value and product is exact in binary, so the sums are too
        m = 18
        total = EnumerationTask(m, rademacher(), one_case(lambda x: x.sum(axis=1)))
        square = EnumerationTask(m, rademacher(), one_case(lambda x: x.sum(axis=1) ** 2))
        assert exact_expectation(total).tolist() == [0]
        assert exact_expectation(square).tolist() == [m]
        # about the known means E S = 0 and E S^2 = m: Var S = m, and
        # E S^4 = 3m^2 - 2m for a Rademacher sum, so Var S^2 = 2m^2 - 2m
        assert exact_expectation(squared_deviation(total, [0])).tolist() == [m]
        assert exact_expectation(squared_deviation(square, [m])).tolist() == [2 * m * m - 2 * m]

    def test_grid_holds_x_and_one_weight_vector(self):
        # at m = 18 the grid x is 2^18 x 18 doubles (37.7 MB): its build may
        # add rows-long vectors, but no second array of the grid's size
        m = 18
        peaks = []

        def statistic(x):
            peaks.append(tracemalloc.get_traced_memory()[1])
            return x[:, :1].T

        tracemalloc.start()
        try:
            exact_expectation(EnumerationTask(m, rademacher(), statistic))
        finally:
            tracemalloc.stop()
        assert peaks[0] <= (m + 4) * 2**m * 8  # x and four rows-long vectors

    def test_partial_last_block_matches_loop(self):
        # 3^9 = 19683 assignments; an odd statistic with unequal weights
        # catches any mispairing of rows and weights
        m = 9
        c = np.arange(1.0, m + 1.0)
        task = EnumerationTask(m, THREE_POINT, one_case(lambda x: (x @ c) ** 3))
        (e,) = exact_expectation(task)
        # E (c'x)^3 = mu3 * sum c_i^3 for independent centred variables
        assert e == pytest.approx(np.sum(c**3), rel=1e-12)
        assert e == pytest.approx(
            loop_expectation(THREE_POINT, m, lambda x: (x @ c) ** 3), rel=1e-12
        )

    def test_stacked_sums_exact_across_blocks(self):
        # four cases over 2^14 assignments: each case's sum is exactly rounded
        m = 14
        c = np.linspace(0.1, 1.3, m)
        stack = lambda x: np.stack(
            [x.sum(axis=1) ** 2, np.exp(0.1 * x @ c), -np.exp(0.1 * x @ c) / 3.0, x[:, 0]]
        )
        task = EnumerationTask(m, rademacher(), stack, cases=4)
        e = exact_expectation(task)
        # oracle: every assignment at once, one fsum per case over all terms
        x = np.array(list(itertools.product([-1.0, 1.0], repeat=m)))
        for case, values in enumerate(stack(x)):
            assert e[case] == math.fsum((values * 0.5**m).tolist())
        assert e[0] == m and e[3] == 0.0
        assert e[1] == pytest.approx(np.prod(np.cosh(0.1 * c)), rel=1e-14)


class TestLoopOracle:
    """The batched engine against the one-assignment-at-a-time loop."""

    @pytest.mark.parametrize("dim", [1, 2, 3, 4])
    @pytest.mark.parametrize("dist", IDENTITY_LAWS, ids=lambda d: d.selector)
    def test_identity_statistics(self, dist, dim):
        rng = np.random.default_rng(100 + dim)
        a, b = random_sym(rng, dim), random_sym(rng, dim)
        aa, ba = a.array[0], b.array[0]
        tr_a, tr_b = np.trace(aa), np.trace(ba)

        ((quad, fourth, triple),), _ = verify_identities(a, b, dist)
        want = loop_expectation(
            dist, dim, lambda x: (x @ aa @ x - tr_a) * (x @ ba @ x - tr_b)
        )
        assert quad == pytest.approx(want, rel=1e-12)

        want = loop_expectation(dist, dim, lambda x: np.sum((aa @ x) ** 4))
        assert fourth == pytest.approx(want, rel=1e-12)

        want = loop_expectation(dist, dim, lambda x: (x @ aa @ x) ** 2 * (x @ ba @ x))
        assert triple == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("p,n", [(1, 2), (2, 2), (2, 3), (3, 2), (3, 3)])
    @pytest.mark.parametrize("dist", VERIFICATION_LAWS, ids=lambda d: d.selector)
    def test_finite_n_traces(self, dist, p, n):
        # the loop builds Y = Sigma^{1/2} X with the symmetric root, the
        # engine Y = F X with the model's factor: both give the same X' Sigma X
        eigs = np.array([2.0, 1.0, 0.5][:p])
        u = haar_orthogonal(p, 3) if p > 1 else None
        model = assemble_model(eigs, u)
        half = np.diag(np.sqrt(eigs)) if u is None else (u * np.sqrt(eigs)) @ u.T
        rep, _ = finite_n(model, n, dist)

        def trace(i):
            return lambda x: finite_n_traces(half, p, n, x)[i]

        e_t1 = loop_expectation(dist, p * n, trace(0))
        assert rep["e_t1"][0] == pytest.approx(e_t1, rel=1e-12)
        assert rep["var_t1"][0] == pytest.approx(
            loop_expectation(dist, p * n, trace(0), mean=e_t1), rel=1e-12
        )
        assert rep["e_t2"][0] == pytest.approx(
            loop_expectation(dist, p * n, trace(1)), rel=1e-12
        )
        assert rep["e_t1_centered"][0] == pytest.approx(
            loop_expectation(dist, p * n, trace(2)), rel=1e-12
        )
        assert rep["e_t2_centered"][0] == pytest.approx(
            loop_expectation(dist, p * n, trace(3)), rel=1e-12
        )


class TestIdentityLaws:
    def test_coefficients_have_full_rank(self):
        # the two-point laws alone leave every coefficient error along
        # (2, 1, -1, 0), that is c (2 + nu4 - mu3^2), unseen; with the two
        # three-point laws the vectors have rank 4, smallest singular value 0.0395
        two_point_laws = np.array([identity_coefficients(d) for d in VERIFICATION_LAWS])
        assert two_point_laws @ [2.0, 1.0, -1.0, 0.0] == pytest.approx([0.0] * 3, abs=1e-12)
        coefficients = np.array([identity_coefficients(d) for d in IDENTITY_LAWS])
        assert np.linalg.matrix_rank(coefficients) == 4
        smallest = np.linalg.svd(coefficients, compute_uv=False)[-1]
        assert smallest == pytest.approx(0.0395, abs=5e-4)


class TestQuadraticCovariance:
    def test_identity_rademacher_degenerate(self):
        (lhs,), (rhs,) = check("quadratic_covariance", identity(2), identity(2), rademacher())
        assert lhs == 0.0 and rhs == 0.0

    def test_zero_matrix(self):
        z = SymMatrix(np.zeros((1, 2, 2)))
        (lhs,), (rhs,) = check("quadratic_covariance", identity(2), z, rademacher())
        assert lhs == 0.0 and rhs == 0.0

    def test_random_grid(self):
        rng = np.random.default_rng(9)
        for trial in range(25):
            dim = int(rng.integers(1, 4))
            a, b = random_sym(rng, dim), random_sym(rng, dim)
            for dist in IDENTITY_LAWS:
                (lhs,), (rhs,) = check("quadratic_covariance", a, b, dist)
                assert abs(lhs - rhs) <= 1e-12, dist.selector

    def test_dim_guard(self):
        with pytest.raises(EnumerationGuardError):
            verify_identities(identity(5), identity(5), rademacher())

    def test_dim_mismatch(self):
        with pytest.raises(ValueError, match="dimension mismatch"):
            verify_identities(identity(2), identity(3), rademacher())
        with pytest.raises(ValueError, match="dimension mismatch"):
            verify_identities(identity(3), identity(2), two_point(0.2))


class TestFourthMoment:
    def test_identity_rademacher(self):
        (lhs,), (rhs,) = check("fourth_moment", identity(2), identity(2), rademacher())
        assert lhs == pytest.approx(2.0, abs=1e-14)
        assert rhs == pytest.approx(2.0, abs=1e-14)

    def test_zero_matrix(self):
        z = SymMatrix(np.zeros((1, 3, 3)))
        (lhs,), (rhs,) = check("fourth_moment", z, z, two_point(0.4))
        assert lhs == 0.0 and rhs == 0.0

    def test_random_grid(self):
        rng = np.random.default_rng(10)
        for trial in range(25):
            dim = int(rng.integers(1, 4))
            a = random_sym(rng, dim)
            for dist in IDENTITY_LAWS:
                (lhs,), (rhs,) = check("fourth_moment", a, a, dist)
                assert abs(lhs - rhs) <= 1e-12, dist.selector


class TestTripleProduct:
    def test_identity_rademacher_cube(self):
        # x'x is identically 2, so E (x'x)^3 = 8
        (lhs,), (rhs,) = check("triple_product", identity(2), identity(2), rademacher())
        assert lhs == pytest.approx(8.0, abs=1e-14)
        assert rhs == pytest.approx(8.0, abs=1e-14)

    def test_zero_weight_matrix(self):
        z = SymMatrix(np.zeros((1, 2, 2)))
        (lhs,), (rhs,) = check("triple_product", identity(2), z, two_point(0.2))
        assert lhs == 0.0 and rhs == 0.0

    def test_random_grid_with_skewed_innovations(self):
        rng = np.random.default_rng(11)
        for trial in range(25):
            dim = int(rng.integers(1, 4))
            a, b = random_sym(rng, dim), random_sym(rng, dim)
            for dist in IDENTITY_LAWS:
                (lhs,), (rhs,) = check("triple_product", a, b, dist)
                assert abs(lhs - rhs) <= 1e-10, dist.selector

    def test_report_dict_shape(self):
        # the check reports (lhs, rhs) as two float arrays, a row per case
        # and a column per lemma
        t = SymMatrix(symmetric_stack(np.random.default_rng(12), 5, 3))
        lhs, rhs = verify_identities(t, t, two_point(0.2))
        for side in (lhs, rhs):
            assert isinstance(side, np.ndarray)
            assert side.dtype == np.float64 and side.shape == (5, 3)
        for case in range(5):
            alone = SymMatrix(t.array[case : case + 1])
            (alone_lhs,), (alone_rhs,) = verify_identities(alone, alone, two_point(0.2))
            assert alone_lhs.tolist() == lhs[case].tolist()
            assert alone_rhs == pytest.approx(rhs[case], rel=1e-14, abs=0.0)


class TestFiniteNMoments:
    def test_degenerate_scalar_rademacher(self):
        # p=1, sigma=1: T1 is identically 1, variance exactly zero
        model = assemble_model([1.0])
        rep, _ = finite_n(model, 2, rademacher())
        assert rep["e_t1"] == (1.0, 1.0)
        assert rep["var_t1"][0] == pytest.approx(0.0, abs=1e-14)
        assert rep["var_t1"][1] == 0.0

    def test_diagonal_rademacher(self):
        model = assemble_model([1.0, 2.0])
        _, err = finite_n(model, 2, rademacher())
        assert err <= 1e-12

    def test_rotated_two_point(self):
        model = assemble_model([2.0, 1.0], rotation(np.pi / 4))
        _, err = finite_n(model, 2, two_point(0.2))
        assert err <= 1e-10

    def test_centered_mean_confirms_divisor_n(self):
        # enumeration picks (1 - 1/n) tr S over the (1 + 1/n) tr S variant
        model = assemble_model([1.0, 2.0])
        n = 3
        rep, _ = finite_n(model, n, two_point(0.2))
        enumerated = rep["e_t1_centered"][0]
        divisor_n = 3.0 * (1 - 1 / n)
        alternative = 3.0 * (1 + 1 / n)
        assert abs(enumerated - divisor_n) <= 1e-12
        assert abs(enumerated - alternative) > 1.9

    def test_centered_t2_mean_exact_for_normal_innovations(self):
        # the 5-node Gauss-Hermite law matches N(0, 1) up to degree 9, so its
        # enumeration gives the normal E T_2^0 (degree 4), where the table is
        # exact: n B^0 is Wishart.  A two-point law's nu4 terms, which the
        # shift lacks, leave a gap
        nodes, weights = np.polynomial.hermite_e.hermegauss(5)
        weights = weights / weights.sum()
        profile = MomentProfile(*(math.fsum(weights * nodes**k) for k in (3, 4, 6, 8)))
        hermite = InnovationDist("hermite5", profile, nodes, weights)
        model = assemble_model([2.0, 1.0], rotation(0.7))
        column = FINITE_N_COLUMNS.index("e_t2_centered")
        for dist, exact in ((hermite, True), (two_point(0.2), False)):
            enumerated, formula = verify_finite_n_moments([model], 3, dist)
            gap = abs(enumerated[0, column] / formula[0, column] - 1.0)
            assert (gap <= 1e-14) == exact, (dist.selector, gap)

    def test_four_by_four_rotated_two_point(self):
        # 2^16 assignments: the largest grid the finite-n guard admits
        model = assemble_model([3.0, 2.0, 1.5, 0.5], haar_orthogonal(4, 7))
        _, err = finite_n(model, 4, two_point(0.2))
        assert err <= 1e-9

    def test_guard_on_large_dims(self):
        model = assemble_model([1.0] * 4)
        with pytest.raises(EnumerationGuardError):
            verify_finite_n_moments([model], 5, rademacher())

    @pytest.mark.parametrize("dist", [rademacher(), two_point(0.2)], ids=lambda d: d.selector)
    def test_group_rows_equal_models_alone(self, dist):
        # the suite checks each (p, n, law) group on one grid: every row has
        # the bits of its model checked alone
        for n, models in _finite_moment_grid():
            enumerated, formula = verify_finite_n_moments(models, n, dist)
            assert enumerated.shape == formula.shape == (len(models), len(FINITE_N_COLUMNS))
            for row, model in enumerate(models):
                alone_enumerated, alone_formula = verify_finite_n_moments([model], n, dist)
                assert enumerated[row].tobytes() == alone_enumerated[0].tobytes()
                assert formula[row].tobytes() == alone_formula[0].tobytes()

    def test_two_passes_over_the_grid(self, monkeypatch):
        # one pass for every model's four means, one for Var T_1 about the
        # enumerated E T_1: the mean is not enumerated a second time, and each
        # pass calls its statistic once, on the whole grid of 2^(p n) rows
        passes = []
        expectation = enumeration.exact_expectation

        def counted(task):
            rows = []

            def statistic(x):
                rows.append(len(x))
                return task.statistic(x)

            result = expectation(dataclasses.replace(task, statistic=statistic))
            passes.append((task.cases, rows))
            return result

        monkeypatch.setattr(enumeration, "exact_expectation", counted)
        models = [assemble_model([2.0, 1.0]), assemble_model([2.0, 1.0], rotation(0.3))]
        verify_finite_n_moments(models, 2, rademacher())
        assert passes == [(4 * len(models), [2**4]), (len(models), [2**4])]

    def test_group_of_mixed_p_refused(self):
        models = [assemble_model([1.0]), assemble_model([2.0, 1.0])]
        with pytest.raises(ValueError, match="share one p"):
            verify_finite_n_moments(models, 2, rademacher())
