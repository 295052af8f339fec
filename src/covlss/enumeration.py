"""Exhaustive-expectation engine over finite-support innovations.

For a statistic s(x_1, ..., x_m) of i.i.d. finite-support variables the
expectation is the weighted sum over all |support|^m assignments.  A task
holds a stack of such statistics over the same variables, one per case.
The whole grid of assignments is built at once, one column at a time in
``itertools.product`` order, beside one weight per row, and the statistic
maps it to one value per case and row in one numpy pass.  Each case's
weighted terms feed one ``math.fsum``, so every case's sum is exactly
rounded over all of its terms.  Memory grows with the grid, so
``STATE_GUARD`` refuses a task of more than 2^18 assignments before
anything is allocated; ``verify``'s grids have at most 64 rows.  The
point is bit-level verification of the quadratic-form moment identities
and of the exact finite-n moment formulas.

The identity checks take their operands as :class:`SymMatrix`, a frozen
stack of real symmetric matrices whose symmetry is checked once per stack,
at construction.  :func:`verify_identities` checks all three identities
of a stack on one grid: one task whose statistic stacks the three
identities' values, so a (dimension, law) group of ``verify`` is
enumerated once.  :func:`verify_finite_n_moments` checks the finite-n
moments of models that share one p likewise: one task for the four means
of every model and one for the squared deviations of T_1 about its mean
from the first, so a (p, n, law) group takes two passes over its grid.
:func:`exact_expectation` is the engine's one entry point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .innovations import InnovationDist, NotEnumerableError
from .moments import moment_set
from .population import PopulationModel

STATE_GUARD = 2**18
MAX_IDENTITY_DIM = 4
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

    ``statistic`` is evaluated once, on the whole grid: it maps a
    ``(rows, num_vars)`` array, one assignment per row, to a
    ``(cases, rows)`` array holding every case's statistic of each row.
    """

    num_vars: int
    dist: InnovationDist
    statistic: Callable[[np.ndarray], np.ndarray]
    cases: int = 1

    def __post_init__(self) -> None:
        if self.dist.support is None:
            raise NotEnumerableError(f"{self.dist.selector} has continuous support")
        states = len(self.dist.support) ** self.num_vars
        if states > STATE_GUARD:
            raise EnumerationGuardError(
                f"{states} assignments exceed the enumeration guard of {STATE_GUARD}"
            )


def exact_expectation(task: EnumerationTask) -> np.ndarray:
    """E s(x) of every case, each an exactly rounded weighted sum over all
    assignments: shape ``(cases,)``."""
    support = np.asarray(task.dist.support, dtype=float)
    probs = np.asarray(task.dist.probabilities, dtype=float)
    k, m = len(support), task.num_vars
    # one column at a time, the first variable varying slowest (column j
    # holds each support point in runs of k^(m-1-j) rows), so the grid is x
    # and one rows-long weight vector; each weight is the product of its
    # row's probabilities taken left to right, an order that fixes its bits
    x, weights = np.empty((k**m, m)), np.ones(1)
    for j in range(m):
        x.reshape(k**j, k, -1, m)[:, :, :, j] = support[:, None]
        weights = (weights[:, None] * probs).ravel()
    values = np.asarray(task.statistic(x), dtype=float)
    if values.shape != (task.cases, len(x)):
        raise ValueError(
            f"statistic must map a {x.shape} grid to shape ({task.cases}, {len(x)}), "
            f"got shape {values.shape}"
        )
    return np.array([math.fsum(terms) for terms in (weights * values).tolist()])


def _quadratic_forms(x: np.ndarray, a: np.ndarray) -> np.ndarray:
    """x_r' A_c x_r for every row x_r of a grid and matrix A_c of a stack:
    shape ``(cases, rows)``."""
    return ((x @ a) * x).sum(axis=2)


def _diagonals(a: np.ndarray) -> np.ndarray:
    """The diagonal of each matrix of a ``(cases, d, d)`` stack: ``(cases, d)``."""
    return np.diagonal(a, axis1=1, axis2=2)


def _flat_sum(a: np.ndarray) -> np.ndarray:
    """The sum of each matrix of a ``(cases, d, d)`` stack, as one flat row."""
    return a.reshape(len(a), -1).sum(axis=1)


def verify_identities(
    a: SymMatrix, b: SymMatrix, dist: InnovationDist
) -> tuple[np.ndarray, np.ndarray]:
    """The enumerated LHS and the closed-form RHS of three identities for
    every case of the stacks: two ``(cases, 3)`` arrays whose columns are,
    in the order of ``IDENTITY_COLUMNS``,

    * the quadratic covariance, E[(x'Ax - trA)(x'Bx - trB)] ==
      nu4 tr(A∘B) + tr(AB') + tr(AB); the fourth-moment coefficient
      multiplies the mixed diagonal product tr(A∘B), symmetric in the two
      operands, and that is what enumeration confirms;
    * the fourth moment, E sum_i (A x)_i^4 == 3 tr(A'A ∘ A'A) +
      nu4 tr((A'∘A')(A∘A));
    * the triple product, E[(x'Ax)^2 (x'Bx)] against its eleven-term closed
      form, with T = A and W = B.  It mixes plain traces, Hadamard traces,
      diagonal interaction scalars and the moments mu3, mu4, mu6 of the
      innovation law.  With d_M the diagonal of M and D_M its diagonal
      matrix, the interaction scalars are d_T' T d_W, d_T' W d_T,
      1'(T∘T∘W)1, tr(T D_W T), tr(W D_T T) and tr(T∘T∘W).

    The three statistics share one enumeration of the 2^d (or k^d) grid:
    x'Ax and x'Bx are formed once.
    """
    if a.array.shape != b.array.shape:
        raise ValueError(f"dimension mismatch: {sorted({a.array.shape, b.array.shape})}")
    if a.dim > MAX_IDENTITY_DIM:
        raise EnumerationGuardError(
            f"identity checks are capped at dimension {MAX_IDENTITY_DIM}, got {a.dim}"
        )
    ta, wa = a.array, b.array
    at = ta.transpose(0, 2, 1)
    dt, dw = _diagonals(ta), _diagonals(wa)
    tr_t, tr_w = dt.sum(axis=1), dw.sum(axis=1)
    cases = len(ta)

    def statistic(x: np.ndarray) -> np.ndarray:
        qt, qw = _quadratic_forms(x, ta), _quadratic_forms(x, wa)
        return np.concatenate([
            (qt - tr_t[:, None]) * (qw - tr_w[:, None]),
            ((x @ at) ** 4).sum(axis=2),
            qt * qt * qw,
        ])

    prof = dist.profile
    nu4 = prof.nu4
    # tr(A∘B) = sum_i a_ii b_ii; tr(AB') == tr(AB) = sum_ij a_ij b_ij for symmetric operands
    tr_hadamard, tr_tw = (dt * dw).sum(axis=1), _flat_sum(ta * wa)
    quadratic = nu4 * tr_hadamard + 2.0 * tr_tw
    tt, t_sq, dt_sq = ta @ ta, ta * ta, dt * dt  # matrix and elementwise squares
    fourth = 3.0 * (_diagonals(tt) ** 2).sum(axis=1) + nu4 * _flat_sum(ta**4)
    tr_t2 = _flat_sum(t_sq)
    tr_ttw = _flat_sum(tt * wa)
    tr_t_dw_t = (t_sq @ dw[:, :, None])[:, :, 0].sum(axis=1)
    tr_w_dt_t = ((wa * ta) @ dt[:, :, None])[:, :, 0].sum(axis=1)
    row_dt = dt[:, None, :]
    dt_t_dw = (row_dt @ ta @ dw[:, :, None])[:, 0, 0]
    dt_w_dt = (row_dt @ wa @ dt[:, :, None])[:, 0, 0]
    ones_ttw = _flat_sum(t_sq * wa)
    tr_ttw_diag = (dt_sq * dw).sum(axis=1)
    # The diagonal-interaction terms carry pure fourth-cumulant coefficients
    # (4 nu4 and 8 nu4): for Gaussian innovations every basis-dependent term
    # must drop out, leaving only the Wick pairings on the first line.
    triple = (
        tr_t**2 * tr_w
        + 2.0 * tr_t2 * tr_w
        + 4.0 * tr_t * tr_tw
        + 8.0 * tr_ttw
        + nu4 * (2.0 * tr_hadamard * tr_t + dt_sq.sum(axis=1) * tr_w)
        + 4.0 * nu4 * tr_t_dw_t
        + 8.0 * nu4 * tr_w_dt_t
        + prof.mu3**2 * (4.0 * dt_t_dw + 2.0 * dt_w_dt + 4.0 * ones_ttw)
        + (prof.mu6 - 15.0 * prof.mu4 - 10.0 * prof.mu3**2 + 30.0) * tr_ttw_diag
    )
    task = EnumerationTask(a.dim, dist, statistic, 3 * cases)
    lhs = exact_expectation(task).reshape(3, cases).T
    return lhs, np.stack([quadratic, fourth, triple], axis=1)


# the columns of verify_identities' arrays, in order
IDENTITY_COLUMNS = ("quadratic_covariance", "fourth_moment", "triple_product")
# the columns of verify_finite_n_moments' arrays.  The first four are exact
# identities; e_t2_centered sets the enumerated truth beside the divisor-n
# formula, so the residual of its leading-order shift is visible, not hidden
FINITE_N_COLUMNS = ("e_t1", "var_t1", "e_t2", "e_t1_centered", "e_t2_centered")


def verify_finite_n_moments(
    models: list[PopulationModel], n: int, dist: InnovationDist
) -> tuple[np.ndarray, np.ndarray]:
    """Enumerated and closed-form moments of (T_1, T_2) at tiny (p, n) for
    models that share one p: two ``(models, 5)`` arrays, columns in the order
    of ``FINITE_N_COLUMNS``.  B is built from Y = F X directly, with the
    models' factors F stacked, so the four means take one enumeration of
    the p n variables and Var T_1, about the enumerated E T_1, one more."""
    dims = {model.p for model in models}
    if len(dims) != 1:
        raise ValueError(f"the models must share one p, got p in {sorted(dims)}")
    (p,) = dims
    if p > 4 or n > 4:
        raise EnumerationGuardError("finite-n enumeration is capped at p, n <= 4")
    factors = np.stack([
        np.diag(np.sqrt(model.eigenvalues)) if model.factor is None else model.factor
        for model in models
    ])[:, None]

    def sample_covariance(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        # Y and B = YY'/n per model and row, with Y = F X and F'F = Sigma
        y = factors @ x.reshape(-1, p, n)
        return y, (y @ y.swapaxes(2, 3)) / n

    def traces(x: np.ndarray) -> np.ndarray:
        # (T_1, T_2, T_1^0, T_2^0) of each model per row, with B^0 = B - ybar ybar'
        y, b = sample_covariance(x)
        ybar = y.mean(axis=3)
        b0 = b - ybar[..., :, None] * ybar[..., None, :]
        return np.concatenate([
            np.trace(b, axis1=2, axis2=3),
            (b**2).sum(axis=(2, 3)),
            np.trace(b0, axis1=2, axis2=3),
            (b0**2).sum(axis=(2, 3)),
        ])

    e_t1, e_t2, e_t1c, e_t2c = exact_expectation(
        EnumerationTask(p * n, dist, traces, 4 * len(models))
    ).reshape(4, -1)

    def t1_squared_deviation(x: np.ndarray) -> np.ndarray:
        # the second pass of a two-pass Var T_1: about the exact mean, the
        # centered second moment does not cancel
        return (np.trace(sample_covariance(x)[1], axis1=2, axis2=3) - e_t1[:, None]) ** 2

    var_t1 = exact_expectation(EnumerationTask(p * n, dist, t1_squared_deviation, len(models)))
    formula = [
        (ms.e_t1, ms.psi11, ms.e_t2, ms.e_t1_centered, ms.e_t2_centered)
        for ms in (moment_set(m.traces, n, dist.profile.nu4, centered=True) for m in models)
    ]
    return np.stack([e_t1, var_t1, e_t2, e_t1c, e_t2c], axis=1), np.array(formula)
