"""Exhaustive-expectation engine over finite-support innovations.

For a statistic s(x_1, ..., x_m) of i.i.d. finite-support variables the
expectation is the weighted sum over all |support|^m assignments.  A task
holds a stack of such statistics over the same variables, one per case.
The assignments are built in ``itertools.product`` order as blocks of at
most ``BLOCK_ROWS`` rows, and the statistic maps a whole block to one
value per case and row in one numpy pass.  Each case's weighted terms feed
its own ``math.fsum``, so every case's sum is exactly rounded over all of
its terms however the blocks fall; between blocks a case keeps only a few
floats with the same exact sum, so memory is bounded by the block and not
by the assignment count.  Scale is still small: the point is bit-level
verification of the quadratic-form moment identities and of the exact
finite-n moment formulas.

The identity checks take their operands as :class:`SymMatrix`, a frozen
stack of real symmetric matrices whose symmetry is checked once per stack,
at construction, and enumerate each identity once per stack.
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
    """Immutable stack of real symmetric matrices, shape ``(cases, d, d)``.

    Finiteness and symmetry (relative tolerance 1e-12 against each matrix's
    largest entry) are validated once per stack at construction and
    exploited unconditionally afterwards.  A single matrix is a stack of one.
    """

    array: np.ndarray

    def __post_init__(self) -> None:
        a = np.array(self.array, dtype=float)
        if a.ndim != 3 or a.shape[1] != a.shape[2]:
            raise ValueError(f"expected a (cases, d, d) stack, got shape {a.shape}")
        if a.shape[0] < 1 or a.shape[1] < 1:
            raise ValueError(f"expected at least one matrix of dimension >= 1, got {a.shape}")
        finite = np.isfinite(a).all(axis=(1, 2))
        if not finite.all():
            raise ValueError(f"matrix {int(np.argmin(finite))} of the stack has non-finite entries")
        scale = np.maximum(1.0, np.abs(a).max(axis=(1, 2)))
        skew = np.abs(a - a.transpose(0, 2, 1)).max(axis=(1, 2))
        asymmetric = skew > SYMMETRY_RTOL * scale
        if asymmetric.any():
            first = int(np.argmax(asymmetric))
            raise SymmetryError(
                f"matrix {first} of the stack is not symmetric: max |a_ij - a_ji| = "
                f"{skew[first]:.3e} exceeds {SYMMETRY_RTOL:g} * {scale[first]:.3e}"
            )
        a.flags.writeable = False
        object.__setattr__(self, "array", a)

    @property
    def dim(self) -> int:
        return self.array.shape[-1]


@dataclass(frozen=True, eq=False)
class EnumerationTask:
    """A stack of ``cases`` pure statistics of ``num_vars`` i.i.d.
    finite-support variables.

    ``statistic`` is evaluated on blocks: it maps a ``(rows, num_vars)``
    array, one assignment per row, to a ``(cases, rows)`` array holding
    every case's statistic of each row.
    """

    num_vars: int
    dist: InnovationDist
    statistic: Callable[[np.ndarray], np.ndarray]
    cases: int = 1

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
        if values.shape != (task.cases, len(x)):
            raise ValueError(
                f"statistic must map a {x.shape} block to shape ({task.cases}, {len(x)}), "
                f"got shape {values.shape}"
            )
        yield probs[idx].prod(axis=1), values


def _exact_parts(terms: list[float]) -> list[float]:
    """A few floats whose exact sum is the exact sum of ``terms``.

    Each part is the exactly rounded remainder of the terms less the parts
    before it; the remainder shrinks by at least 2^53 a step and is a
    multiple of the smallest subnormal, so it reaches zero.
    """
    parts: list[float] = []
    while s := math.fsum(itertools.chain(terms, [-p for p in parts])):
        parts.append(s)
    return parts


def _exact_case_sums(cases: int, blocks: Iterator[np.ndarray]) -> np.ndarray:
    """Exactly rounded sum of each case's terms over ``(cases, rows)`` blocks."""
    terms: list[list[float]] = [[] for _ in range(cases)]
    for block in blocks:
        for kept, row in zip(terms, block.tolist()):
            kept.extend(row)
            if len(kept) > BLOCK_ROWS:
                kept[:] = _exact_parts(kept)
    return np.array([math.fsum(kept) for kept in terms])


def exact_expectation(task: EnumerationTask) -> np.ndarray:
    """E s(x) of every case, each an exactly-accumulated weighted sum over
    all assignments: shape ``(cases,)``."""
    return _exact_case_sums(task.cases, (w * s for w, s in _weighted_blocks(task)))


def exact_variance(task: EnumerationTask) -> np.ndarray:
    """Var s(x) of every case, two-pass so the centered second moment does
    not cancel: shape ``(cases,)``."""
    mean = exact_expectation(task)[:, None]
    return _exact_case_sums(
        task.cases, (w * (s - mean) ** 2 for w, s in _weighted_blocks(task))
    )


def _quadratic_forms(x: np.ndarray, a: np.ndarray) -> np.ndarray:
    """x_r' A_c x_r for every row x_r of a block and matrix A_c of a stack:
    shape ``(cases, rows)``."""
    return ((x @ a) * x).sum(axis=2)


def _diagonals(a: np.ndarray) -> np.ndarray:
    """The diagonal of each matrix of a ``(cases, d, d)`` stack: ``(cases, d)``."""
    return np.diagonal(a, axis1=1, axis2=2)


def _flat_sum(a: np.ndarray) -> np.ndarray:
    """The sum of each matrix of a ``(cases, d, d)`` stack, as one flat row."""
    return a.reshape(len(a), -1).sum(axis=1)


@dataclass(frozen=True, slots=True)
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
    shapes = {m.array.shape for m in mats}
    if len(shapes) != 1:
        raise ValueError(f"dimension mismatch: {sorted(shapes)}")
    dim = mats[0].dim
    if dim > MAX_IDENTITY_DIM:
        raise EnumerationGuardError(
            f"identity checks are capped at dimension {MAX_IDENTITY_DIM}, got {dim}"
        )
    return dim


def _reports(
    identity: str, dim: int, dist: InnovationDist, task: EnumerationTask, rhs: np.ndarray
) -> list[IdentityReport]:
    """Enumerate ``task`` and pair each case's LHS with its closed-form RHS."""
    lhs, selector = exact_expectation(task), dist.selector
    return [
        IdentityReport(identity, dim, selector, left, right)
        for left, right in zip(lhs.tolist(), rhs.tolist())
    ]


def verify_quadratic_covariance(
    a: SymMatrix, b: SymMatrix, dist: InnovationDist
) -> list[IdentityReport]:
    """E[(x'Ax - trA)(x'Bx - trB)] == nu4 tr(A∘B) + tr(AB') + tr(AB),
    one report per case of the stacks.

    The fourth-moment coefficient multiplies tr(A∘B): the mixed diagonal
    product, symmetric in the two operands, is what enumeration confirms.
    """
    dim = _check_identity_dims(a, b)
    aa, ba = a.array, b.array
    da, db = _diagonals(aa), _diagonals(ba)
    tr_a, tr_b = da.sum(axis=1)[:, None], db.sum(axis=1)[:, None]

    def statistic(x: np.ndarray) -> np.ndarray:
        return (_quadratic_forms(x, aa) - tr_a) * (_quadratic_forms(x, ba) - tr_b)

    # tr(A∘B) = sum_i a_ii b_ii; tr(AB') == tr(AB) = sum_ij a_ij b_ij for symmetric operands
    tr_ab_hadamard = (da * db).sum(axis=1)
    rhs = dist.profile.nu4 * tr_ab_hadamard + 2.0 * _flat_sum(aa * ba)
    task = EnumerationTask(dim, dist, statistic, len(aa))
    return _reports("quadratic_covariance", dim, dist, task, rhs)


def verify_fourth_moment(a: SymMatrix, dist: InnovationDist) -> list[IdentityReport]:
    """E sum_i (A x)_i^4 == 3 tr(A'A ∘ A'A) + nu4 tr((A'∘A')(A∘A)),
    one report per case of the stack."""
    dim = _check_identity_dims(a)
    aa = a.array
    at = aa.transpose(0, 2, 1)

    def statistic(x: np.ndarray) -> np.ndarray:
        return ((x @ at) ** 4).sum(axis=2)

    a2 = aa @ aa
    rhs = 3.0 * (_diagonals(a2) ** 2).sum(axis=1) + dist.profile.nu4 * _flat_sum(aa**4)
    task = EnumerationTask(dim, dist, statistic, len(aa))
    return _reports("fourth_moment", dim, dist, task, rhs)


def verify_triple_product(
    t: SymMatrix, w: SymMatrix, dist: InnovationDist
) -> list[IdentityReport]:
    """E[(x'Tx)^2 (x'Wx)] against its eleven-term closed form, one report
    per case of the stacks.

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

    prof = dist.profile
    nu4 = prof.nu4
    dt, dw = _diagonals(ta), _diagonals(wa)
    tr_t, tr_w = dt.sum(axis=1), dw.sum(axis=1)
    tr_t2, tr_tw = _flat_sum(ta * ta), _flat_sum(ta * wa)
    tr_ttw = _flat_sum((ta @ ta) * wa)
    tr_t_dw_t = ((ta * ta) @ dw[:, :, None])[:, :, 0].sum(axis=1)
    tr_w_dt_t = ((wa * ta) @ dt[:, :, None])[:, :, 0].sum(axis=1)
    row_dt = dt[:, None, :]
    dt_t_dw = (row_dt @ ta @ dw[:, :, None])[:, 0, 0]
    dt_w_dt = (row_dt @ wa @ dt[:, :, None])[:, 0, 0]
    ones_ttw = _flat_sum(ta * ta * wa)
    tr_ttw_diag = (dt * dt * dw).sum(axis=1)
    # The diagonal-interaction terms carry pure fourth-cumulant coefficients
    # (4 nu4 and 8 nu4): for Gaussian innovations every basis-dependent term
    # must drop out, leaving only the Wick pairings on the first line.
    rhs = (
        tr_t**2 * tr_w
        + 2.0 * tr_t2 * tr_w
        + 4.0 * tr_t * tr_tw
        + 8.0 * tr_ttw
        + nu4 * (2.0 * (dt * dw).sum(axis=1) * tr_t + (dt * dt).sum(axis=1) * tr_w)
        + 4.0 * nu4 * tr_t_dw_t
        + 8.0 * nu4 * tr_w_dt_t
        + prof.mu3**2 * (4.0 * dt_t_dw + 2.0 * dt_w_dt + 4.0 * ones_ttw)
        + (prof.mu6 - 15.0 * prof.mu4 - 10.0 * prof.mu3**2 + 30.0) * tr_ttw_diag
    )
    task = EnumerationTask(dim, dist, statistic, len(ta))
    return _reports("triple_product", dim, dist, task, rhs)


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

    def sample_covariance(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        # Y and B = YY'/n per row, with Y = F X and F'F = Sigma
        y = factor @ x.reshape(-1, p, n)
        return y, (y @ y.transpose(0, 2, 1)) / n

    def t1(x: np.ndarray) -> np.ndarray:
        return np.trace(sample_covariance(x)[1], axis1=1, axis2=2)[None]

    def traces(x: np.ndarray) -> np.ndarray:
        # (T_1, T_2, T_1^0, T_2^0) per row, with B^0 = B - ybar ybar'
        y, b = sample_covariance(x)
        ybar = y.mean(axis=2)
        b0 = b - ybar[:, :, None] * ybar[:, None, :]
        return np.stack([
            np.trace(b, axis1=1, axis2=2),
            (b**2).sum(axis=(1, 2)),
            np.trace(b0, axis1=1, axis2=2),
            (b0**2).sum(axis=(1, 2)),
        ])

    num_vars = p * n
    e_t1, e_t2, e_t1c, e_t2c = exact_expectation(
        EnumerationTask(num_vars, dist, traces, 4)
    ).tolist()
    (var_t1,) = exact_variance(EnumerationTask(num_vars, dist, t1)).tolist()

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
