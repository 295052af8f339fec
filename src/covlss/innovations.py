"""Standardized innovation distributions with exact moment metadata.

Every distribution here has mean 0 and variance 1 by construction.  The
moment profile (third, fourth, sixth and eighth moments, plus the fourth
cumulant excess nu4 = E x^4 - 3) is computed in closed form, never
estimated.  Finite-support members expose their support so expectations
over them can be enumerated exactly.

Conventions:
  * the gamma family is parameterized by (shape k, scale theta), so
    ``gamma:4:0.5`` has variance k*theta^2 = 1 before standardization;
    the sampler standardizes as x = (g - k*theta) / (theta*sqrt(k)),
  * ``twopoint:prob`` puts mass ``prob`` on the positive support point:
    values (-sqrt(prob/(1-prob)), +sqrt((1-prob)/prob)).  Its skewness is
    nonzero, which exercises the mu3^2 terms of the moment identities.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np


class NotEnumerableError(ValueError):
    """Raised when exact enumeration is requested for a continuous law."""


@dataclass(frozen=True)
class MomentProfile:
    """Exact moments of a standardized (mean 0, variance 1) distribution."""

    mu3: float
    mu4: float
    nu4: float
    mu6: float
    mu8: float

    def __post_init__(self) -> None:
        if self.mu4 < 1.0 - 1e-12:
            raise ValueError(f"mu4 = {self.mu4} violates E x^4 >= (E x^2)^2 = 1")
        if abs(self.nu4 - (self.mu4 - 3.0)) > 1e-12:
            raise ValueError("nu4 must equal mu4 - 3")
        if self.mu6 < self.mu4**2 - 1e-9:
            raise ValueError(f"mu6 = {self.mu6} violates mu6 >= mu4^2 = {self.mu4 ** 2}")


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
            shape, scale = self.params
            g = rng.gamma(shape, scale, count)
            return (g - shape * scale) / (scale * math.sqrt(shape))
        if self.kind == "rademacher":
            return rng.integers(0, 2, count) * 2.0 - 1.0
        if self.kind == "twopoint":
            prob = self.params[0]
            lo, hi = self.support
            return np.where(rng.random(count) < prob, hi, lo)
        raise ValueError(f"unknown kind {self.kind!r}")


def standard_normal() -> InnovationDist:
    profile = MomentProfile(mu3=0.0, mu4=3.0, nu4=0.0, mu6=15.0, mu8=105.0)
    return InnovationDist(kind="normal", params=(), profile=profile)


def standardized_gamma(shape: float, scale: float) -> InnovationDist:
    if shape <= 0 or scale <= 0:
        raise ValueError("gamma shape and scale must be positive")
    profile = _gamma_profile(shape, scale)
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

    mu4 = moment(4)
    return MomentProfile(mu3=moment(3), mu4=mu4, nu4=mu4 - 3.0, mu6=moment(6), mu8=moment(8))


def _gamma_profile(shape: float, scale: float) -> MomentProfile:
    # Raw moments of Gamma(k, theta): m_r = theta^r * k(k+1)...(k+r-1).
    raw = [1.0]
    for r in range(1, 9):
        raw.append(raw[-1] * scale * (shape + r - 1))
    mean = raw[1]
    try:
        central = [
            math.fsum(math.comb(r, j) * raw[j] * (-mean) ** (r - j) for j in range(r + 1))
            for r in range(9)
        ]
        sd = math.sqrt(central[2])
        mu = [central[r] / sd**r for r in range(9)]
    except ArithmeticError:  # a power of the mean or of sd over- or underflows
        mu = [math.nan]
    if not all(map(math.isfinite, mu)):
        raise ValueError(
            f"standardized moments of gamma({shape:g}, {scale:g}) are not finite "
            "in double precision"
        )
    return MomentProfile(mu3=mu[3], mu4=mu[4], nu4=mu[4] - 3.0, mu6=mu[6], mu8=mu[8])


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
