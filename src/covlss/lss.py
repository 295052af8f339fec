"""Sample covariance trace statistics T_k = tr(B^k), k = 1, 2, B = (1/n) Y Y', Y = F X.

Any factor with F'F = Sigma gives the same Y'Y = X'Sigma X, so the model's
F serves as Sigma^{1/2}.  B, Y'Y / n and Sigma X X' / n share their nonzero
eigenvalues, so T_k = tr(M^k) / n^k for either

  M = Sigma G, G = X X'  (p x p, when p <= n), or
  M = Y'Y               (n x n, when p > n).

The p side never forms Y: G is one symmetric product of X, and Sigma G
scales the rows of G by the eigenvalues when Sigma is diagonal.  Which side
is taken depends only on (p, n), so results are reproducible for any worker
layout.  From M,

  n T_1 = tr M,  n^2 T_2 = sum_ij M_ij M_ji.

The mean-centered statistics of B - ybar ybar' need only v = Sigma xbar =
F'(F xbar), since ybar'ybar = xbar'v and Y'ybar = X'v.  Both sides take
them from X before it is overwritten, and neither forms Y for them:

  T_1^0 = T_1 - ybar'ybar,  T_2^0 = T_2 - 2 ||Y'ybar||^2 / n + (ybar'ybar)^2.

Replication rep draws X from its own seeded stream (``_draw_x``), and
``run_replication`` turns that X into its row of statistics, [T_1, T_2]
or, centered, [T_1, T_2, T_1^0, T_2^0], and checks it.
"""

from __future__ import annotations

import numpy as np

from .innovations import InnovationDist, sample_block
from .population import PopulationModel
from .seeding import REPLICATION_STREAM, derive_seed

_PSD_SLACK = 1e-9
# columns of X projected per product when F X is written over X
_COLUMN_BLOCK = 256


class ReplicationInvariantError(RuntimeError):
    """A per-replication sanity bound failed (numerical corruption)."""


def _draw_x(dist: InnovationDist, p: int, n: int, master_seed: int, rep: int) -> np.ndarray:
    """Replication ``rep``'s innovations, a p x n array from its own stream."""
    seed = derive_seed(master_seed, REPLICATION_STREAM, rep)
    return sample_block(dist, seed, p * n).reshape(p, n)


def _half_times(model: PopulationModel, x: np.ndarray) -> np.ndarray:
    """F X, written over ``x`` (a float p x n array) and returned."""
    if model.factor is None:
        x *= np.sqrt(model.eigenvalues)[:, None]
        return x
    for c in range(0, x.shape[1], _COLUMN_BLOCK):
        x[:, c : c + _COLUMN_BLOCK] = model.factor @ x[:, c : c + _COLUMN_BLOCK]
    return x


def _trace_stats(model: PopulationModel, x: np.ndarray, centered: bool) -> list[float]:
    """[T_1, T_2] of B = (F x)(F x)' / n for the innovations ``x`` (p x n,
    overwritten), extended by the centered pair [T_1^0, T_2^0] when asked."""
    p, n = x.shape
    if centered:  # from x, before either side writes over it
        xbar = x.mean(axis=1)
        f = model.factor
        v = model.eigenvalues * xbar if f is None else f.T @ (f @ xbar)
        ybar_sq, z = float(xbar @ v), x.T @ v
    if p <= n:
        # Sigma G goes over x, which is no longer needed (p * p <= p * n), and
        # G is freed at once: the copy np.vdot makes of M' reuses its memory
        m = x.reshape(-1)[: p * p].reshape(p, p)
        if model.factor is None:
            np.multiply(model.eigenvalues[:, None], x @ x.T, out=m)
        else:
            np.matmul(model.sigma, x @ x.T, out=m)
        mt = m.T
    else:
        y = _half_times(model, x)
        m = mt = y.T @ y  # symmetric
    t = [float(np.trace(m)) / n, float(np.vdot(m, mt)) / n**2]
    if centered:
        t += [t[0] - ybar_sq, t[1] - 2.0 * float(z @ z) / n + ybar_sq * ybar_sq]
    return t


def run_replication(model: PopulationModel, x: np.ndarray, rep: int, centered: bool) -> list[float]:
    """Replication ``rep``'s row [T_1, T_2], extended by [T_1^0, T_2^0] when
    centered, from its innovations ``x`` (overwritten), checked."""
    t = _trace_stats(model, x, centered)
    _check_invariants(t, model.p, rep)
    return t


def _check_invariants(t: list[float], p: int, rep: int) -> None:
    t1, t2 = t[0], t[1]
    # NaN fails every comparison below, so finiteness is checked first
    bad = not np.all(np.isfinite(t))
    bad = bad or t1 < -_PSD_SLACK or t2 < -_PSD_SLACK
    # eigenvalues of B are nonnegative: (sum l)^2 / p <= sum l^2 <= (sum l)^2
    bad = bad or t2 > t1 * t1 * (1.0 + _PSD_SLACK) + _PSD_SLACK
    bad = bad or t2 < t1 * t1 / p * (1.0 - _PSD_SLACK) - _PSD_SLACK
    if len(t) > 2:  # centering removes a PSD rank-one term: T_1^0 <= T_1
        bad = bad or t[2] > t1 * (1.0 + _PSD_SLACK) + _PSD_SLACK
    if bad:
        raise ReplicationInvariantError(
            f"replication {rep}: trace statistics are not finite or violate PSD "
            f"ordering: t={tuple(t)}"
        )
