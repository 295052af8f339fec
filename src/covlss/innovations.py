"""Standardized innovation distributions with exact moment metadata.

Every distribution here has mean 0 and variance 1 by construction.  The
moment profile (third, fourth, sixth and eighth moments, plus the fourth
cumulant excess nu4 = E x^4 - 3) is computed in closed form, never
estimated.  Finite-support members expose their support so expectations
over them can be enumerated exactly.  A law is one record, built by one
constructor (its selector, profile, support and sampler) and named by one
row of the :func:`parse_dist` table.

Conventions:
  * the gamma family is parameterized by (shape k, scale theta), so
    ``gamma:4:0.5`` has variance k*theta^2 = 1 before standardization.
    theta cancels in x = (g - k*theta) / (theta*sqrt(k)), so the law depends
    on k alone; its moments follow from the cumulants (r-1)! k^(1-r/2),
  * ``twopoint:prob`` puts mass ``prob`` on the positive support point:
    values (-sqrt(prob/(1-prob)), +sqrt((1-prob)/prob)).  Its skewness is
    nonzero, which exercises the mu3^2 terms of the moment identities.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np


# Above 2 / eps = 2^53 the spacing eps*sqrt(k) of the standardized draw
# (g - k) / sqrt(k) exceeds its skewness 2 / sqrt(k), so no departure from
# the normal law survives rounding.
GAMMA_MAX_SHAPE = 2.0 / np.finfo(float).eps


class NotEnumerableError(ValueError):
    """Raised when exact enumeration is requested for a continuous law."""


@dataclass(frozen=True)
class MomentProfile:
    """Exact moments of a standardized (mean 0, variance 1) distribution."""

    mu3: float
    mu4: float
    mu6: float
    mu8: float

    def __post_init__(self) -> None:
        overflowed = [f"{name} = {v}" for name, v in vars(self).items() if not math.isfinite(v)]
        if overflowed:  # first: a NaN passes every inequality below
            raise ValueError(f"moments not finite in double precision: {', '.join(overflowed)}")
        if self.mu4 < 1.0 - 1e-12:
            raise ValueError(f"mu4 = {self.mu4} violates E x^4 >= (E x^2)^2 = 1")
        if self.mu6 < self.mu4**2 - 1e-9:
            raise ValueError(f"mu6 = {self.mu6} violates mu6 >= mu4^2 = {self.mu4 ** 2}")

    @property
    def nu4(self) -> float:
        """The fourth cumulant excess E x^4 - 3."""
        return self.mu4 - 3.0


@dataclass(frozen=True, eq=False)
class InnovationDist:
    """A standardized innovation law: its config string, exact moments, finite
    support (None when continuous) and ``sample(rng, count)``, which draws
    ``count`` values from ``rng`` (None for a law that is only enumerated)."""

    selector: str
    profile: MomentProfile
    support: np.ndarray | None = field(default=None, repr=False)
    probabilities: np.ndarray | None = field(default=None, repr=False)
    sample: Callable[..., np.ndarray] | None = field(default=None, repr=False)


def _param_text(x: float) -> str:
    """The shortest text that reads back as x, without a trailing ".0"."""
    return repr(float(x)).removesuffix(".0")


def standard_normal() -> InnovationDist:
    profile = MomentProfile(mu3=0.0, mu4=3.0, mu6=15.0, mu8=105.0)
    return InnovationDist("normal", profile, sample=np.random.Generator.standard_normal)


def standardized_gamma(shape: float, scale: float) -> InnovationDist:
    if not (shape > 0 and 0 < scale < math.inf):
        raise ValueError("gamma shape and scale must be positive and the scale finite")
    if not shape <= GAMMA_MAX_SHAPE:
        raise ValueError(f"gamma shape {shape:g} exceeds GAMMA_MAX_SHAPE = 2^53: the "
                         "standardized draw is quantized more coarsely than its skewness")
    root = math.sqrt(shape)
    return InnovationDist(
        f"gamma:{_param_text(shape)}:{_param_text(scale)}", _gamma_profile(shape),
        sample=lambda rng, count: (rng.standard_gamma(shape, count) - shape) / root,
    )


def rademacher() -> InnovationDist:
    support, probs = np.array([-1.0, 1.0]), np.array([0.5, 0.5])
    return InnovationDist(
        "rademacher", _support_profile(support, probs), support, probs,
        sample=lambda rng, count: rng.integers(0, 2, count) * 2.0 - 1.0,
    )


def two_point(prob: float) -> InnovationDist:
    """Standardized two-point law with P(x = b) = prob for the larger point b."""
    if not 0.0 < prob < 1.0:
        raise ValueError(f"prob must lie in (0, 1), got {prob}")
    a = -math.sqrt(prob / (1.0 - prob))
    b = math.sqrt((1.0 - prob) / prob)
    support, probs = np.array([a, b]), np.array([1.0 - prob, prob])
    return InnovationDist(
        f"twopoint:{_param_text(prob)}", _support_profile(support, probs), support, probs,
        sample=lambda rng, count: np.where(rng.random(count) < prob, b, a),
    )


def _support_profile(support: np.ndarray, probs: np.ndarray) -> MomentProfile:
    def moment(m: int) -> float:
        return math.fsum(p * v**m for v, p in zip(support, probs))

    with np.errstate(over="ignore"):  # a power that overflows is inf, refused by the profile
        return MomentProfile(mu3=moment(3), mu4=moment(4), mu6=moment(6), mu8=moment(8))


def _gamma_profile(shape: float) -> MomentProfile:
    def cumulant(r: int) -> float:
        # standardized cumulant kappa_r = (r-1)! k^(1-r/2); kappa_1 = 0, kappa_2 = 1
        try:
            return math.factorial(r - 1) * shape ** (1.0 - r / 2.0)
        except OverflowError:  # a power of a tiny shape; inf is refused by the profile
            return math.inf

    k3, k4, k5, k6, k8 = map(cumulant, (3, 4, 5, 6, 8))
    # moments from the set partitions of r into blocks of size >= 2
    mu6 = k6 + 15.0 * k4 + 10.0 * k3 * k3 + 15.0
    mu8 = (k8 + 28.0 * k6 + 56.0 * k5 * k3 + 35.0 * k4 * k4 + 210.0 * k4
           + 280.0 * k3 * k3 + 105.0)
    return MomentProfile(mu3=k3, mu4=k4 + 3.0, mu6=mu6, mu8=mu8)


def sample_block(dist: InnovationDist, stream_seed: int, count: int) -> np.ndarray:
    """``count`` i.i.d. standardized draws, deterministic per (dist, seed, count)."""
    if count < 0:
        raise ValueError("count must be nonnegative")
    if dist.sample is None:
        raise ValueError(f"{dist.selector} has no sampler: it is only enumerated")
    return dist.sample(np.random.default_rng(stream_seed), count)


# selector head -> (number of parameters, constructor)
_LAWS = {
    "normal": (0, standard_normal),
    "gamma": (2, standardized_gamma),
    "rademacher": (0, rademacher),
    "twopoint": (1, two_point),
}


def parse_dist(selector: str) -> InnovationDist:
    """Build a distribution from its config string.

    Accepted forms: ``normal``, ``gamma:<shape>:<scale>``, ``rademacher``,
    ``twopoint:<prob>``.
    """
    head, *params = selector.strip().split(":")
    arity, build = _LAWS.get(head, (None, None))
    if len(params) == arity:
        try:
            return build(*map(float, params))
        except ValueError as exc:
            raise ValueError(f"bad distribution selector {selector!r}: {exc}") from exc
    raise ValueError(
        f"bad distribution selector {selector!r}; expected normal | gamma:k:theta "
        "| rademacher | twopoint:prob"
    )
