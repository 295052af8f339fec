"""Standardized innovation distributions with exact moment metadata.

Every distribution here has mean 0 and variance 1 by construction.  The
moment profile (third, fourth, sixth and eighth moments, plus the fourth
cumulant excess nu4 = E x^4 - 3) is computed in closed form, never
estimated.  Finite-support members expose their support so expectations
over them can be enumerated exactly.

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
    """A standardized innovation law with sampling and exact moments."""

    kind: str
    params: tuple[float, ...]
    profile: MomentProfile
    support: np.ndarray | None = field(default=None, repr=False)
    probabilities: np.ndarray | None = field(default=None, repr=False)

    @property
    def enumerable(self) -> bool:
        return self.support is not None

    @property
    def selector(self) -> str:
        """The config-string form understood by :func:`parse_dist`."""
        if self.kind == "gamma":
            return f"gamma:{self.params[0]:g}:{self.params[1]:g}"
        if self.kind == "twopoint":
            return f"twopoint:{self.params[0]:g}"
        return self.kind

    def sample(self, rng: np.random.Generator, count: int) -> np.ndarray:
        if self.kind == "normal":
            return rng.standard_normal(count)
        if self.kind == "gamma":
            shape = self.params[0]
            return (rng.standard_gamma(shape, count) - shape) / math.sqrt(shape)
        if self.kind == "rademacher":
            return rng.integers(0, 2, count) * 2.0 - 1.0
        if self.kind == "twopoint":
            prob = self.params[0]
            lo, hi = self.support
            return np.where(rng.random(count) < prob, hi, lo)
        raise ValueError(f"unknown kind {self.kind!r}")


def standard_normal() -> InnovationDist:
    profile = MomentProfile(mu3=0.0, mu4=3.0, mu6=15.0, mu8=105.0)
    return InnovationDist(kind="normal", params=(), profile=profile)


def standardized_gamma(shape: float, scale: float) -> InnovationDist:
    if not (shape > 0 and 0 < scale < math.inf):
        raise ValueError("gamma shape and scale must be positive and the scale finite")
    if not shape <= GAMMA_MAX_SHAPE:
        raise ValueError(f"gamma shape {shape:g} exceeds GAMMA_MAX_SHAPE = 2^53: the "
                         "standardized draw is quantized more coarsely than its skewness")
    profile = _gamma_profile(shape)
    return InnovationDist(kind="gamma", params=(float(shape), float(scale)), profile=profile)


def rademacher() -> InnovationDist:
    support = np.array([-1.0, 1.0])
    probs = np.array([0.5, 0.5])
    profile = _support_profile(support, probs)
    return InnovationDist(
        kind="rademacher", params=(), profile=profile, support=support, probabilities=probs
    )


def two_point(prob: float) -> InnovationDist:
    """Standardized two-point law with P(x = b) = prob for the larger point b."""
    if not 0.0 < prob < 1.0:
        raise ValueError(f"prob must lie in (0, 1), got {prob}")
    a = -math.sqrt(prob / (1.0 - prob))
    b = math.sqrt((1.0 - prob) / prob)
    support = np.array([a, b])
    probs = np.array([1.0 - prob, prob])
    profile = _support_profile(support, probs)
    return InnovationDist(
        kind="twopoint", params=(float(prob),), profile=profile, support=support, probabilities=probs
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
    rng = np.random.default_rng(stream_seed)
    return dist.sample(rng, count)


def parse_dist(selector: str) -> InnovationDist:
    """Build a distribution from its config string.

    Accepted forms: ``normal``, ``gamma:<shape>:<scale>``, ``rademacher``,
    ``twopoint:<prob>``.
    """
    parts = selector.strip().split(":")
    kind = parts[0]
    try:
        if kind == "normal" and len(parts) == 1:
            return standard_normal()
        if kind == "rademacher" and len(parts) == 1:
            return rademacher()
        if kind == "gamma" and len(parts) == 3:
            return standardized_gamma(float(parts[1]), float(parts[2]))
        if kind == "twopoint" and len(parts) == 2:
            return two_point(float(parts[1]))
    except ValueError as exc:
        raise ValueError(f"bad distribution selector {selector!r}: {exc}") from exc
    raise ValueError(
        f"bad distribution selector {selector!r}; expected normal | gamma:k:theta "
        "| rademacher | twopoint:prob"
    )
