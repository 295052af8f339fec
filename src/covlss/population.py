"""Population covariance models whose leading eigenvalues grow with n.

A spectrum is split into a spiked group of size floor(beta*p) with
eigenvalues (2 + r_i) * n^alpha and a bulk group with eigenvalues
2*r_i in (0, 2), for r_i in (0, 1).  The covariance is Sigma = U L U'
for a random orthogonal U (or L itself in the diagonal-only regime), but
the model keeps one factor F = L^{1/2} U' rather than a dense Sigma: the
statistics see Sigma through X'Sigma X = (FX)'(FX), or through Sigma X X',
whose dense Sigma = F'F is formed once, on first use.

Every moment formula reads Sigma through seven trace functionals, held in
one :class:`TraceSet`: tr Sigma^k for k = 1..4 and the Hadamard traces
tr(Sigma∘Sigma), tr(Sigma∘Sigma^2), tr(Sigma^2∘Sigma^2).  The model fills
it from the spectrum and the diagonals (U∘U) l^k of Sigma^k.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

TRACE_CHECK_RTOL = 1e-8


class ConsistencyError(RuntimeError):
    """Trace functionals disagree with the eigenvalue sums."""


@dataclass(frozen=True)
class SpectrumSpec:
    """Declarative description of the population eigenvalue list."""

    p: int
    n: int
    alpha: float
    beta: float
    r_values: np.ndarray
    diagonal_only: bool = False

    def __post_init__(self) -> None:
        if self.p < 1:
            raise ValueError("p must be a positive integer")
        if self.n < 1:
            raise ValueError("n must be a positive integer")
        if self.alpha < 0:
            raise ValueError(f"alpha must be >= 0, got {self.alpha}")
        if not 0.0 <= self.beta <= 1.0:
            raise ValueError(f"beta must lie in [0, 1], got {self.beta}")
        r = np.asarray(self.r_values, dtype=float)
        if r.shape != (self.p,):
            raise ValueError(f"r_values must have length p = {self.p}")
        if np.any(r <= 0.0) or np.any(r >= 1.0):
            raise ValueError("all r_values must lie strictly in (0, 1)")
        r = r.copy()
        r.flags.writeable = False
        object.__setattr__(self, "r_values", r)

    @property
    def spike_count(self) -> int:
        return int(np.floor(self.beta * self.p))


@dataclass(frozen=True)
class TraceSet:
    """The seven trace functionals of one symmetric matrix S.

    tr1..tr4 are tr S^k; trH11 = tr(S∘S), trH12 = tr(S∘S^2),
    trH22 = tr(S^2∘S^2).  tr2, tr4, trH11 and trH22 are sums of squares
    and therefore nonnegative for any real symmetric input.
    """

    tr1: float
    tr2: float
    tr3: float
    tr4: float
    trH11: float
    trH12: float
    trH22: float

    def as_dict(self) -> dict[str, float]:
        return dict(vars(self))  # the fields, in declaration order


@dataclass(frozen=True)
class PopulationModel:
    """Eigenvalues, trace bundle and factor F = L^{1/2} U' (None if diagonal)."""

    eigenvalues: np.ndarray
    traces: TraceSet
    factor: np.ndarray | None

    @property
    def p(self) -> int:
        return self.eigenvalues.size

    @cached_property
    def sigma(self) -> np.ndarray:
        """Dense Sigma = F'F, formed on first use and kept with the model."""
        f = self.factor
        sigma = np.diag(self.eigenvalues) if f is None else f.T @ f
        sigma.flags.writeable = False
        return sigma


def build_spectrum(spec: SpectrumSpec) -> np.ndarray:
    """Descending eigenvalue list: spikes (2+r)*n^alpha, then bulk 2r.

    Raises :class:`ConsistencyError` when n^alpha overflows a double.
    """
    k = spec.spike_count
    lam = np.empty(spec.p)
    try:
        growth = float(spec.n) ** spec.alpha
    except OverflowError:
        raise ConsistencyError(
            f"spike growth n^alpha = {spec.n}^{spec.alpha:g} overflows double precision"
        ) from None
    lam[:k] = (2.0 + spec.r_values[:k]) * growth
    lam[k:] = 2.0 * spec.r_values[k:]
    return np.sort(lam)[::-1].copy()


def haar_orthogonal(p: int, seed: int) -> np.ndarray:
    """Haar-distributed p x p orthogonal matrix, deterministic per seed.

    QR of an i.i.d. standard normal matrix with the column signs fixed so
    that diag(R) > 0, which makes the factorization unique and the law Haar.
    """
    if p < 1:
        raise ValueError("p must be a positive integer")
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((p, p))
    q, r = np.linalg.qr(z)
    signs = np.where(np.diagonal(r) >= 0.0, 1.0, -1.0)
    return q * signs


def assemble_model(eigs, u: np.ndarray | None = None) -> PopulationModel:
    """The model of Sigma = U L U' (or L when u is None).

    The trace sums of the diagonals of Sigma and Sigma^2 are cross-checked
    against the eigenvalue power sums; a non-finite trace or a
    disagreement beyond 1e-8 relative raises :class:`ConsistencyError`.
    """
    lam = np.asarray(eigs, dtype=float).copy()
    if lam.ndim != 1 or lam.size < 1:
        raise ValueError("eigenvalues must be a nonempty vector")
    if np.any(lam <= 0.0):
        raise ValueError("all eigenvalues must be strictly positive")

    factor = None
    if u is not None:
        u = np.asarray(u, dtype=float)
        if u.shape != (lam.size, lam.size):
            raise ValueError(f"u must be {lam.size} x {lam.size}, got {u.shape}")
        gram_defect = float(np.linalg.norm(u @ u.T - np.eye(lam.size)))
        if gram_defect > 1e-8 * max(1.0, float(lam.size)):
            raise ValueError(f"u is not orthogonal: ||UU' - I||_F = {gram_defect:.3e}")
        factor = (u * np.sqrt(lam)).T.copy()  # C order, like the x it multiplies
        factor.flags.writeable = False

    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is reported below
        lam2 = lam * lam
        # d1 and d2 are the diagonals of Sigma and Sigma^2
        d1, d2 = (lam, lam2) if u is None else ((u * u) @ lam, (u * u) @ lam2)
        traces = TraceSet(
            tr1=float(np.sum(lam)),
            tr2=float(np.sum(lam2)),
            tr3=float(np.sum(lam2 * lam)),
            tr4=float(np.sum(lam2 * lam2)),
            trH11=float(d1 @ d1),
            trH12=float(d1 @ d2),
            trH22=float(d2 @ d2),
        )
    if not all(map(np.isfinite, traces.as_dict().values())):
        raise ConsistencyError(f"trace functionals of Sigma overflow: {traces.as_dict()}")
    for k, d, want in ((1, d1, traces.tr1), (2, d2, traces.tr2)):
        got = float(np.sum(d))
        if abs(got - want) > TRACE_CHECK_RTOL * max(1.0, abs(want)):
            raise ConsistencyError(
                f"sum of diag Sigma^{k} = {got!r} disagrees with eigenvalue sum {want!r}"
            )

    lam.flags.writeable = False
    return PopulationModel(eigenvalues=lam, traces=traces, factor=factor)


def build_model(spec: SpectrumSpec, rotation_seed: int) -> PopulationModel:
    """Spectrum plus (unless diagonal-only) a Haar rotation, assembled."""
    lam = build_spectrum(spec)
    u = None if spec.diagonal_only else haar_orthogonal(spec.p, rotation_seed)
    return assemble_model(lam, u)
