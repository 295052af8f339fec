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
from dataclasses import dataclass

from .population import TraceSet

# A formula is (k, terms), the sum of its terms over n^k.  A term is
# (c, j, factors): c(n) nu4^j times the TraceSet entries named in factors,
# with c a polynomial in n with integer coefficients, highest power first.
# "tr1*tr1" and "tr2*tr2" are pairs multiplied before the term's product.
# The terms are summed in the listed order, which fixes every rounding.
_E_T2 = (1, (
    ((1,), 1, ("trH11",)),
    ((1,), 0, ("tr1*tr1",)),
    ((1, 1), 0, ("tr2",)),
))
_PSI11 = (1, (
    ((1,), 1, ("trH11",)),
    ((2,), 0, ("tr2",)),
))
_PSI12 = (2, (
    ((4,), 0, ("tr2", "tr1")),
    ((2,), 1, ("trH11", "tr1")),
    ((2, 0), 1, ("trH12",)),
    ((4, 0), 0, ("tr3",)),
))
_PSI22 = (3, (
    ((8,), 0, ("tr2", "tr1*tr1")),
    ((4,), 1, ("tr1*tr1", "trH11")),
    ((16, 0), 0, ("tr1", "tr3")),
    ((4, 0), 0, ("tr2*tr2",)),
    ((8, 0), 1, ("trH12", "tr1")),
    ((4, 0, 0), 1, ("trH22",)),
    ((8, 0, 0), 0, ("tr4",)),
))
# E T_2 - E T_2^0
_CENTERED_SHIFT = (2, (
    ((1,), 0, ("tr1*tr1",)),
    ((2, 0), 0, ("tr2",)),
))


def _evaluate(formula, values: dict, n: int, nu4_powers: tuple) -> tuple[float, float]:
    """(value, cancellation scale) of one formula: the sum of its terms and
    the sum of their absolute values, each over n^k."""
    k, terms = formula
    value, scale = -0.0, 0.0  # -0.0 + x is x for every x, zeros included
    for poly, j, factors in terms:
        c = 0
        for a in poly:
            c = c * n + a
        term = c * nu4_powers[j]
        for name in factors:
            term *= values[name]
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
    if n < 1:
        raise ValueError("n must be a positive integer")
    if centered and n < 2:
        raise ValueError("centered statistics need n >= 2")
    # the entries of traces and the pre-multiplied pairs the tables name
    values = dict(vars(traces))
    values["tr1*tr1"] = traces.tr1 * traces.tr1
    values["tr2*tr2"] = traces.tr2 * traces.tr2
    nu4_powers = (1.0, nu4)
    e_t2 = _evaluate(_E_T2, values, n, nu4_powers)[0]
    psi11, psi11_scale = _evaluate(_PSI11, values, n, nu4_powers)
    psi12 = _evaluate(_PSI12, values, n, nu4_powers)[0]
    psi22, psi22_scale = _evaluate(_PSI22, values, n, nu4_powers)
    e_t1c = e_t2c = None
    if centered:
        e_t1c = traces.tr1 * (1.0 - 1.0 / n)
        e_t2c = e_t2 - _evaluate(_CENTERED_SHIFT, values, n, nu4_powers)[0]
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
