"""Whitening of (T_1, T_2), chi-square(2) reference, Q-Q and KS reporting.

The whitened statistic ts = d' Psi^{-1} d with d the centered pair is
asymptotically chi-square with 2 degrees of freedom, whose CDF and
quantile have the closed forms 1 - exp(-x/2) and -2 ln(1 - q).  The
Kolmogorov-Smirnov distance is the scalar summary of each Q-Q comparison.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .moments import MomentSet


class DegenerateCovarianceError(RuntimeError):
    """The 2x2 covariance is not positive definite; whitening is refused."""

    def __init__(self, ms: MomentSet, context: str = ""):
        suffix = f" ({context})" if context else ""
        super().__init__(
            f"covariance of (T1, T2) is degenerate: psi11={ms.psi11!r}, "
            f"psi12={ms.psi12!r}, psi22={ms.psi22!r}, det={ms.det_psi!r}{suffix}"
        )


# A mathematically singular covariance (e.g. constant T1 under a sign
# innovation with a diagonal spectrum) may round to a tiny value of either
# sign, so degeneracy is judged against each quantity's cancellation scale.
_DEGENERACY_RTOL = 1e-12


def check_covariance(ms: MomentSet, context: str = "") -> None:
    """Raise :class:`DegenerateCovarianceError` unless Psi is solidly PD."""
    if not all(map(math.isfinite, (ms.psi11, ms.psi12, ms.psi22, ms.det_psi))):
        context = "; ".join(filter(None, ("floating-point overflow in Psi", context)))
        raise DegenerateCovarianceError(ms, context)
    degenerate = (
        ms.psi11 <= _DEGENERACY_RTOL * ms.psi11_scale
        or ms.psi22 <= _DEGENERACY_RTOL * ms.psi22_scale
        or ms.det_psi
        <= _DEGENERACY_RTOL * (abs(ms.psi11 * ms.psi22) + ms.psi12 * ms.psi12)
    )
    if degenerate:
        raise DegenerateCovarianceError(ms, context)


@dataclass(frozen=True, eq=False)
class QQReport:
    """Paired theoretical/empirical quantiles plus the KS distance."""

    probs: np.ndarray
    q_theoretical: np.ndarray
    q_empirical: np.ndarray
    ks: float
    reps: int


def chi2_df2_cdf(x):
    """CDF of chi-square with 2 degrees of freedom: 1 - exp(-x/2) on x >= 0."""
    arr = np.asarray(x, dtype=float)
    out = np.where(arr < 0.0, 0.0, -np.expm1(-0.5 * np.maximum(arr, 0.0)))
    return float(out) if np.isscalar(x) or arr.ndim == 0 else out


def chi2_df2_quantile(q: float) -> float:
    """Quantile of chi-square(2): -2 ln(1 - q), for q in (0, 1)."""
    if not 0.0 < q < 1.0:
        raise ValueError(f"quantile level must lie in (0, 1), got {q}")
    return -2.0 * math.log1p(-q)


def whiten(t1, t2, ms: MomentSet):
    """ts = d' Psi^{-1} d with d = (t1 - E T1, t2 - E T2), elementwise over
    arrays of replications.

    Uses the closed-form 2x2 inverse; refuses a non-positive-definite
    covariance rather than pseudo-inverting it.
    """
    check_covariance(ms)
    det = ms.det_psi
    d1 = np.subtract(t1, ms.e_t1)
    d2 = np.subtract(t2, ms.e_t2)
    ts = (ms.psi22 * d1 * d1 - 2.0 * ms.psi12 * d1 * d2 + ms.psi11 * d2 * d2) / det
    return np.maximum(ts, 0.0)


def ks_distance(samples: np.ndarray, reference_cdf) -> float:
    """sup |empirical CDF - reference CDF| over the sorted sample,
    considering both one-sided gaps at every jump."""
    s = np.sort(np.asarray(samples, dtype=float))
    m = s.size
    if m == 0:
        raise ValueError("cannot compute a KS distance of an empty sample")
    f = np.asarray(reference_cdf(s), dtype=float)
    i = np.arange(1, m + 1)
    return float(max((i / m - f).max(), (f - (i - 1) / m).max()))


def _hazen_quantiles(s: np.ndarray, probs: np.ndarray) -> np.ndarray:
    """``np.quantile(s, probs, method="hazen")`` of a sorted sample, bit for
    bit: numpy's virtual index, its clipping to the first and last order
    statistic and its two-sided lerp.  np.quantile itself imports numpy.ma
    on its first call, about 10 ms."""
    m = s.size
    v = m * probs + 0.5 - 1  # n q + (1/2 + q (1 - 1/2 - 1/2)) - 1, as numpy rounds it
    lo = np.floor(v)
    hi = lo + 1
    lo[v >= m - 1] = hi[v >= m - 1] = -1
    lo[v < 0] = hi[v < 0] = 0
    a, b = s[lo.astype(np.intp)], s[hi.astype(np.intp)]
    g = v - lo
    d = b - a
    q = a + d * g
    np.subtract(b, d * (1 - g), out=q, where=g >= 0.5)
    if np.isnan(s[-1]):  # a NaN sorts last and makes every quantile NaN
        q[:] = s[-1]
    return q


def qq_report(samples, grid_size: int = 199) -> QQReport:
    """Q-Q table on the probability grid (i - 0.5)/grid_size plus the KS
    distance of the full sample against chi-square(2)."""
    s = np.sort(np.asarray(samples, dtype=float))
    if s.size == 0:
        raise ValueError("samples must be nonempty")
    if grid_size < 2:
        raise ValueError(f"grid_size must be at least 2, got {grid_size}")
    probs = (np.arange(1, grid_size + 1) - 0.5) / grid_size
    q_th = np.array([chi2_df2_quantile(float(q)) for q in probs])
    # Hazen plotting position: order statistic i sits at (i - 0.5)/m,
    # matching the probability grid above.
    q_emp = _hazen_quantiles(s, probs)
    return QQReport(
        probs=probs,
        q_theoretical=q_th,
        q_empirical=q_emp,
        ks=ks_distance(s, chi2_df2_cdf),
        reps=int(s.size),
    )
