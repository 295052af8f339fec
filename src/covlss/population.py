"""Population covariance models whose leading eigenvalues grow with n.

:func:`build_model` splits a spectrum into a spiked group of size
floor(beta*p) with eigenvalues (2 + r_i) * n^alpha and a bulk group with
eigenvalues 2*r_i in (0, 2), for r_i in (0, 1).  The covariance is
Sigma = U L U' for a Haar orthogonal U (or L itself when no rotation seed
is given), but the model keeps one factor F = L^{1/2} U' rather than a
dense Sigma: the statistics see Sigma through X'Sigma X = (FX)'(FX), or
through Sigma X X', whose dense Sigma = F'F is formed once, on first use.
Its inputs are checked once, as an experiment config, before they get
here; :func:`assemble_model` checks the eigenvalues and U it is given.

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
        d1, d2 = (lam, lam2) if u is None else ((uu := u * u) @ lam, uu @ lam2)
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


def build_model(r: np.ndarray, n: int, alpha: float, beta: float,
                rotation_seed: int | None) -> PopulationModel:
    """The model of floor(beta*p) spikes (2+r)*n^alpha and a bulk 2r, p = r.size,
    sorted descending and rotated by a Haar U from rotation_seed (diagonal
    when it is None).

    Raises :class:`ConsistencyError` when there is a spike and n^alpha
    overflows a double.
    """
    p = r.size
    k = int(np.floor(beta * p))
    lam = 2.0 * r
    if k:  # n^alpha scales the spikes only
        try:
            growth = float(n) ** alpha
        except OverflowError:
            raise ConsistencyError(
                f"spike growth n^alpha = {n}^{alpha:g} overflows double precision"
            ) from None
        lam[:k] = (2.0 + r[:k]) * growth
    u = None if rotation_seed is None else haar_orthogonal(p, rotation_seed)
    return assemble_model(np.sort(lam)[::-1], u)
