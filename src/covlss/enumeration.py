"""Exhaustive-expectation engine over finite-support innovations.

For a statistic s(x_1, ..., x_m) of i.i.d. finite-support variables the
expectation is the weighted sum over all |support|^m assignments.  The
assignments are built in ``itertools.product`` order as blocks of at most
``BLOCK_ROWS`` rows, and the statistic maps a whole block to one value
per row in one numpy pass, so memory is bounded by the block and not by
the assignment count.  Every block's weighted terms feed one
``math.fsum``, so the sum is exactly rounded over all terms however the
blocks fall.  Scale is still small: the point is bit-level verification
of the quadratic-form moment identities and of the exact finite-n moment
formulas.

The identity checks take their operands as :class:`SymMatrix`, a frozen
real symmetric matrix whose symmetry is checked once, at construction.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np

from .innovations import InnovationDist, NotEnumerableError
from .moments import centered_expected_values, expected_values, psi_matrix
from .population import PopulationModel

STATE_GUARD = 10**8
MAX_IDENTITY_DIM = 4
BLOCK_ROWS = 4096
SYMMETRY_RTOL = 1e-12


class EnumerationGuardError(RuntimeError):
    """The assignment space is too large to enumerate."""


class SymmetryError(ValueError):
    """Raised when a matrix fails the symmetry check at construction."""


@dataclass(frozen=True)
class SymMatrix:
    """Immutable real symmetric matrix.

    Symmetry is validated once at construction (relative tolerance 1e-12
    against the largest entry) and exploited unconditionally afterwards.
    """

    array: np.ndarray

    def __post_init__(self) -> None:
        a = np.array(self.array, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError(f"expected a square matrix, got shape {a.shape}")
        if a.shape[0] < 1:
            raise ValueError("matrix dimension must be at least 1")
        if not np.all(np.isfinite(a)):
            raise ValueError("matrix entries must be finite")
        scale = max(1.0, float(np.abs(a).max()))
        skew = float(np.abs(a - a.T).max())
        if skew > SYMMETRY_RTOL * scale:
            raise SymmetryError(
                f"matrix is not symmetric: max |a_ij - a_ji| = {skew:.3e} "
                f"exceeds {SYMMETRY_RTOL:g} * {scale:.3e}"
            )
        a.flags.writeable = False
        object.__setattr__(self, "array", a)

    @property
    def dim(self) -> int:
        return self.array.shape[0]


@dataclass(frozen=True, eq=False)
class EnumerationTask:
    """A pure statistic of ``num_vars`` i.i.d. finite-support variables.

    ``statistic`` is evaluated on blocks: it maps a ``(rows, num_vars)``
    array, one assignment per row, to a ``(rows,)`` array holding the
    statistic of each row.
    """

    num_vars: int
    dist: InnovationDist
    statistic: Callable[[np.ndarray], np.ndarray]

    def __post_init__(self) -> None:
        if not self.dist.enumerable:
            raise NotEnumerableError(f"{self.dist.selector} has continuous support")
        states = len(self.dist.support) ** self.num_vars
        if states > STATE_GUARD:
            raise EnumerationGuardError(
                f"{states} assignments exceed the enumeration guard of {STATE_GUARD}"
            )


def _weighted_blocks(task: EnumerationTask) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """(weights, statistic values) per block of assignments, in product order."""
    support = np.asarray(task.dist.support, dtype=float)
    probs = np.asarray(task.dist.probabilities, dtype=float)
    k, m = len(support), task.num_vars
    place = k ** np.arange(m - 1, -1, -1)  # the first variable varies slowest
    total = k**m
    for start in range(0, total, BLOCK_ROWS):
        idx = np.arange(start, min(start + BLOCK_ROWS, total))[:, None] // place % k
        x = support[idx]
        values = np.asarray(task.statistic(x), dtype=float)
        if values.shape != (len(x),):
            raise ValueError(
                f"statistic must map a {x.shape} block to shape ({len(x)},), "
                f"got shape {values.shape}"
            )
        yield probs[idx].prod(axis=1), values


def exact_expectation(task: EnumerationTask) -> float:
    """E s(x) as an exactly-accumulated weighted sum over all assignments."""
    return math.fsum(
        itertools.chain.from_iterable((w * s).tolist() for w, s in _weighted_blocks(task))
    )


def exact_variance(task: EnumerationTask) -> float:
    """Var s(x), two-pass so the centered second moment does not cancel."""
    mean = exact_expectation(task)
    return math.fsum(
        itertools.chain.from_iterable(
            (w * (s - mean) ** 2).tolist() for w, s in _weighted_blocks(task)
        )
    )


def _quadratic_forms(x: np.ndarray, a: np.ndarray) -> np.ndarray:
    """x_r' A x_r for every row x_r of a block."""
    return ((x @ a) * x).sum(axis=1)


@dataclass(frozen=True)
class IdentityReport:
    """Enumerated LHS vs closed-form RHS of one moment identity."""

    identity: str
    dims: int
    dist: str
    lhs: float
    rhs: float

    @property
    def abs_err(self) -> float:
        return abs(self.lhs - self.rhs)

    def as_dict(self) -> dict:
        return {
            "lemma": self.identity,
            "dims": self.dims,
            "dist": self.dist,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "abs_err": self.abs_err,
        }


def _check_identity_dims(*mats: SymMatrix) -> int:
    dims = {m.dim for m in mats}
    if len(dims) != 1:
        raise ValueError(f"dimension mismatch: {sorted(dims)}")
    (dim,) = dims
    if dim > MAX_IDENTITY_DIM:
        raise EnumerationGuardError(
            f"identity checks are capped at dimension {MAX_IDENTITY_DIM}, got {dim}"
        )
    return dim


def verify_quadratic_covariance(
    a: SymMatrix, b: SymMatrix, dist: InnovationDist
) -> IdentityReport:
    """E[(x'Ax - trA)(x'Bx - trB)] == nu4 tr(A∘B) + tr(AB') + tr(AB).

    The fourth-moment coefficient multiplies tr(A∘B): the mixed diagonal
    product, symmetric in the two operands, is what enumeration confirms.
    """
    dim = _check_identity_dims(a, b)
    aa, ba = a.array, b.array
    tr_a, tr_b = float(np.trace(aa)), float(np.trace(ba))

    def statistic(x: np.ndarray) -> np.ndarray:
        return (_quadratic_forms(x, aa) - tr_a) * (_quadratic_forms(x, ba) - tr_b)

    lhs = exact_expectation(EnumerationTask(dim, dist, statistic))
    # tr(A∘B) = sum_i a_ii b_ii; tr(AB') == tr(AB) = sum_ij a_ij b_ij for symmetric operands
    tr_ab_hadamard = float(np.sum(np.diagonal(aa) * np.diagonal(ba)))
    rhs = dist.profile.nu4 * tr_ab_hadamard + 2.0 * float(np.sum(aa * ba))
    return IdentityReport("quadratic_covariance", dim, dist.selector, lhs, rhs)


def verify_fourth_moment(a: SymMatrix, dist: InnovationDist) -> IdentityReport:
    """E sum_i (A x)_i^4 == 3 tr(A'A ∘ A'A) + nu4 tr((A'∘A')(A∘A))."""
    dim = _check_identity_dims(a)
    aa = a.array

    def statistic(x: np.ndarray) -> np.ndarray:
        return ((x @ aa.T) ** 4).sum(axis=1)

    lhs = exact_expectation(EnumerationTask(dim, dist, statistic))
    a2 = aa @ aa
    rhs = 3.0 * float(np.sum(np.diagonal(a2) ** 2)) + dist.profile.nu4 * float(
        np.sum(aa**4)
    )
    return IdentityReport("fourth_moment", dim, dist.selector, lhs, rhs)


def verify_triple_product(
    t: SymMatrix, w: SymMatrix, dist: InnovationDist
) -> IdentityReport:
    """E[(x'Tx)^2 (x'Wx)] against its eleven-term closed form.

    The closed form mixes plain traces, Hadamard traces, diagonal
    interaction scalars and the moments mu3, mu4, mu6 of the innovation
    law.  With d_M the diagonal of M and D_M its diagonal matrix, the
    interaction scalars are d_T' T d_W, d_T' W d_T, 1'(T∘T∘W)1,
    tr(T D_W T), tr(W D_T T) and tr(T∘T∘W).
    """
    dim = _check_identity_dims(t, w)
    ta, wa = t.array, w.array

    def statistic(x: np.ndarray) -> np.ndarray:
        qt = _quadratic_forms(x, ta)
        return qt * qt * _quadratic_forms(x, wa)

    lhs = exact_expectation(EnumerationTask(dim, dist, statistic))

    prof = dist.profile
    nu4 = prof.nu4
    dt, dw = np.diagonal(ta), np.diagonal(wa)
    tr_t, tr_w = float(np.trace(ta)), float(np.trace(wa))
    tr_t2, tr_tw = float(np.sum(ta * ta)), float(np.sum(ta * wa))
    tr_ttw = float(np.sum((ta @ ta) * wa))
    tr_t_dw_t = float(np.sum((ta * ta) @ dw))
    tr_w_dt_t = float(np.sum((wa * ta) @ dt))
    dt_t_dw, dt_w_dt = float(dt @ ta @ dw), float(dt @ wa @ dt)
    ones_ttw = float(np.sum(ta * ta * wa))
    tr_ttw_diag = float(np.sum(dt * dt * dw))
    # The diagonal-interaction terms carry pure fourth-cumulant coefficients
    # (4 nu4 and 8 nu4): for Gaussian innovations every basis-dependent term
    # must drop out, leaving only the Wick pairings on the first line.
    rhs = (
        tr_t**2 * tr_w
        + 2.0 * tr_t2 * tr_w
        + 4.0 * tr_t * tr_tw
        + 8.0 * tr_ttw
        + nu4 * (2.0 * float(np.sum(dt * dw)) * tr_t + float(np.sum(dt * dt)) * tr_w)
        + 4.0 * nu4 * tr_t_dw_t
        + 8.0 * nu4 * tr_w_dt_t
        + prof.mu3**2 * (4.0 * dt_t_dw + 2.0 * dt_w_dt + 4.0 * ones_ttw)
        + (prof.mu6 - 15.0 * prof.mu4 - 10.0 * prof.mu3**2 + 30.0) * tr_ttw_diag
    )
    return IdentityReport("triple_product", dim, dist.selector, lhs, rhs)


@dataclass(frozen=True)
class FiniteMomentReport:
    """Enumerated vs closed-form moments of (T_1, T_2) at tiny (p, n).

    e_t1, var_t1 and e_t2 are exact identities and must agree to
    floating-point accuracy; the centered rows carry the enumerated truth
    next to the divisor-n formula values so the residual of the
    leading-order E T_2^0 shift is visible rather than hidden.
    """

    p: int
    n: int
    dist: str
    e_t1: tuple[float, float]
    var_t1: tuple[float, float]
    e_t2: tuple[float, float]
    e_t1_centered: tuple[float, float]
    e_t2_centered: tuple[float, float]

    @property
    def exact_abs_err(self) -> float:
        return max(
            abs(self.e_t1[0] - self.e_t1[1]),
            abs(self.var_t1[0] - self.var_t1[1]),
            abs(self.e_t2[0] - self.e_t2[1]),
            abs(self.e_t1_centered[0] - self.e_t1_centered[1]),
        )

    def as_dict(self) -> dict:
        return {
            "lemma": "finite_n_moments",
            "dims": [self.p, self.n],
            "dist": self.dist,
            "e_t1": list(self.e_t1),
            "var_t1": list(self.var_t1),
            "e_t2": list(self.e_t2),
            "e_t1_centered": list(self.e_t1_centered),
            "e_t2_centered": list(self.e_t2_centered),
            "abs_err": self.exact_abs_err,
        }


def verify_finite_n_moments(
    model: PopulationModel, n: int, dist: InnovationDist
) -> FiniteMomentReport:
    """Compare enumerated E T_1, Var T_1, E T_2 (exact) and the centered
    means against the closed-form module, building B from Y = F X directly."""
    p = model.p
    if p > 4 or n > 4:
        raise EnumerationGuardError("finite-n enumeration is capped at p, n <= 4")
    factor = np.diag(np.sqrt(model.eigenvalues)) if model.factor is None else model.factor

    def sample_covariance(x: np.ndarray, centered: bool) -> np.ndarray:
        # B = YY'/n per row, with Y = F X and F'F = Sigma; centered: B - ybar ybar'
        y = factor @ x.reshape(-1, p, n)
        b = (y @ y.transpose(0, 2, 1)) / n
        if centered:
            ybar = y.mean(axis=2)
            b = b - ybar[:, :, None] * ybar[:, None, :]
        return b

    def t1(centered: bool) -> Callable[[np.ndarray], np.ndarray]:
        return lambda x: np.trace(sample_covariance(x, centered), axis1=1, axis2=2)

    def t2(centered: bool) -> Callable[[np.ndarray], np.ndarray]:
        return lambda x: (sample_covariance(x, centered) ** 2).sum(axis=(1, 2))

    num_vars = p * n
    e_t1 = exact_expectation(EnumerationTask(num_vars, dist, t1(False)))
    var_t1 = exact_variance(EnumerationTask(num_vars, dist, t1(False)))
    e_t2 = exact_expectation(EnumerationTask(num_vars, dist, t2(False)))
    e_t1c = exact_expectation(EnumerationTask(num_vars, dist, t1(True)))
    e_t2c = exact_expectation(EnumerationTask(num_vars, dist, t2(True)))

    nu4 = dist.profile.nu4
    f_e_t1, f_e_t2 = expected_values(model.traces, n, nu4)
    f_var_t1 = psi_matrix(model.traces, n, nu4)[0]
    f_e_t1c, f_e_t2c = centered_expected_values(model.traces, n, nu4)
    return FiniteMomentReport(
        p=p,
        n=n,
        dist=dist.selector,
        e_t1=(e_t1, f_e_t1),
        var_t1=(var_t1, f_var_t1),
        e_t2=(e_t2, f_e_t2),
        e_t1_centered=(e_t1c, f_e_t1c),
        e_t2_centered=(e_t2c, f_e_t2c),
    )
