"""Closed-form means and covariances of the trace statistics (T_1, T_2).

With S the population covariance, t* its trace functionals and nu4 the
innovation's fourth cumulant excess, the implemented formulas are

  E T_1   = tr S                                                  (exact)
  E T_2   = [nu4 tr(S∘S) + tr^2 S + (n+1) tr S^2] / n             (exact)
  psi11   = [nu4 tr(S∘S) + 2 tr S^2] / n                          (exact)
  psi12   = [4 tr S^2 tr S + 2 nu4 tr(S∘S) tr S
             + 2 nu4 n tr(S∘S^2) + 4 n tr S^3] / n^2       (leading order)
  psi22   = [8 tr S^2 tr^2 S + 4 nu4 tr^2 S tr(S∘S)
             + 16 n tr S tr S^3 + 4 n tr^2(S^2)
             + 8 nu4 n tr(S∘S^2) tr S + 4 nu4 n^2 tr(S^2∘S^2)
             + 8 n^2 tr S^4] / n^3                         (leading order)

and for the mean-centered sample covariance B - ybar ybar' (divisor n),

  E T_1^0 = (1 - 1/n) tr S                                        (exact)
  E T_2^0 = E T_2 - [tr^2 S + 2 n tr S^2] / n^2
                 (exact for normal innovations, else leading order),

with the covariance matrix unchanged.  Under normal innovations n B^0 is
Wishart W_p(n - 1, S), whose E tr W^2 = m (m + 1) tr S^2 + m tr^2 S gives
E T_2^0 exactly; for other laws the shift lacks its nu4 terms.  The
exact/leading-order split is verified in the test suite: exact values
against exhaustive enumeration (normal ones under a 5-node Gauss-Hermite
law), leading-order values against Monte Carlo.
"""

from __future__ import annotations

import dataclasses
import operator
from dataclasses import dataclass

from .population import TraceSet


def _over(k: int, n: int, *terms: float) -> tuple[float, float]:
    """(value, cancellation scale) of a formula: the sum of its terms, added
    in the listed order, and the sum of their absolute values, each over n^k.
    A loop, as sum() of floats is compensated from Python 3.12 on."""
    value, scale = -0.0, 0.0  # -0.0 + x is x for every x, zeros included
    for term in terms:
        value += term
        scale += abs(term)
    divisor = n**k
    return value / divisor, scale / divisor


@dataclass(frozen=True)
class MomentSet:
    """Means and 2x2 covariance of (T_1, T_2) for one (model, n, nu4)."""

    e_t1: float
    e_t2: float
    psi11: float
    psi12: float
    psi22: float
    n: int
    nu4: float
    e_t1_centered: float | None = None
    e_t2_centered: float | None = None
    # cancellation scales: the sum of the absolute terms behind psi11/psi22,
    # used to tell a truly zero variance from rounding noise (e.g. a sign
    # innovation with a diagonal spectrum makes T1 constant, but the float
    # cancellation nu4 tr(S∘S) + 2 tr S^2 rarely lands on exactly 0.0)
    psi11_scale: float = 0.0
    psi22_scale: float = 0.0

    @property
    def det_psi(self) -> float:
        return self.psi11 * self.psi22 - self.psi12 * self.psi12

    def centered_view(self) -> "MomentSet":
        """The same covariance around the centered means (for whitening T^0)."""
        if self.e_t1_centered is None or self.e_t2_centered is None:
            raise ValueError("centered expectations were not computed for this MomentSet")
        return dataclasses.replace(
            self, e_t1=self.e_t1_centered, e_t2=self.e_t2_centered,
            e_t1_centered=None, e_t2_centered=None,
        )

    def as_dict(self) -> dict:
        """The fields but the two cancellation scales."""
        fields = dict(vars(self))
        del fields["psi11_scale"], fields["psi22_scale"]
        return fields


def moment_set(traces: TraceSet, n: int, nu4: float, centered: bool = False) -> MomentSet:
    """The moments of (T_1, T_2) at sample size n; with ``centered`` also
    the means of the pair from the centered sample covariance, which need
    n >= 2."""
    n = operator.index(n)  # n**3 of a numpy integer wraps silently
    if n < 1:
        raise ValueError("n must be a positive integer")
    if centered and n < 2:
        raise ValueError("centered statistics need n >= 2")
    t, t11, t22 = traces, traces.tr1 * traces.tr1, traces.tr2 * traces.tr2
    # each term is written as coefficient in n, power of nu4, then the traces,
    # multiplied left to right: that order fixes every rounding
    e_t2 = _over(1, n, nu4 * t.trH11, t11, (n + 1) * t.tr2)[0]
    psi11, psi11_scale = _over(1, n, nu4 * t.trH11, 2 * t.tr2)
    psi12 = _over(2, n, 4 * t.tr2 * t.tr1, 2 * nu4 * t.trH11 * t.tr1,
                  2 * n * nu4 * t.trH12, 4 * n * t.tr3)[0]
    psi22, psi22_scale = _over(
        3, n, 8 * t.tr2 * t11, 4 * nu4 * t11 * t.trH11, 16 * n * t.tr1 * t.tr3, 4 * n * t22,
        8 * n * nu4 * t.trH12 * t.tr1, 4 * n * n * nu4 * t.trH22, 8 * n * n * t.tr4,
    )
    e_t1c = e_t2c = None
    if centered:
        e_t1c = traces.tr1 * (1.0 - 1.0 / n)
        e_t2c = e_t2 - _over(2, n, t11, 2 * n * t.tr2)[0]  # E T_2 - E T_2^0
    return MomentSet(
        e_t1=traces.tr1,
        e_t2=e_t2,
        psi11=psi11,
        psi12=psi12,
        psi22=psi22,
        n=n,
        nu4=nu4,
        e_t1_centered=e_t1c,
        e_t2_centered=e_t2c,
        psi11_scale=psi11_scale,
        psi22_scale=psi22_scale,
    )


@dataclass(frozen=True)
class SpikeCaseResult:
    """Asymptotic variance of T_2 under a single spiked eigenvalue tau1.

    The three case values are p -> infinity limits, not finite-p values:

    case 1: tau1 bounded; no spike contribution, no renormalization.  It
            applies only once tau1^4 / p is small.
    case 2: tau1 ~ delta * p^{1/4}; the spike adds delta^4 c (8 + 4 nu4).
    case 3: tau1^4 / p -> infinity; the spike dominates and the statistic
            is rescaled by sqrt(n) / tau1^2.

    At a finite p the reference is psi22 from moment_set of the spectrum
    itself; at tau1 = 5, p = n = 500 it is 51.02 against the case-1 limit 36.
    """

    variance: float
    scaling: str


def single_spike_variance(
    case_id: int, c: float, nu4: float, delta: float = 0.0
) -> SpikeCaseResult:
    """p -> infinity limit of Var T_2 for one spike in single-spike case case_id.

    c = p / n and nu4 is the innovations' excess kurtosis; delta sets the
    case-2 spike tau1 = delta * p^{1/4}.  Case 1 applies only when
    tau1^4 / p is small.  For the variance at a finite p use moment_set.
    """
    if c <= 0:
        raise ValueError("the dimension ratio c must be positive")
    base = 4.0 * c * (2.0 + 5.0 * c + 2.0 * c**2) + 4.0 * c * (1.0 + 2.0 * c + c**2) * nu4
    if case_id == 1:
        return SpikeCaseResult(variance=base, scaling="identity")
    if case_id == 2:
        return SpikeCaseResult(variance=base + delta**4 * c * (8.0 + 4.0 * nu4), scaling="identity")
    if case_id == 3:
        return SpikeCaseResult(variance=8.0 + 4.0 * nu4, scaling="sqrt(n)/tau1^2")
    raise ValueError(f"case_id must be 1, 2 or 3, got {case_id}")
