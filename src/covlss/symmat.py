"""Dense symmetric matrices and the trace functionals the moment formulas consume.

Seven functionals of a symmetric matrix S drive every closed-form moment
in this package: tr S, tr S^2, tr S^3, tr S^4, and the Hadamard traces
tr(S∘S), tr(S∘S^2), tr(S^2∘S^2).  :class:`TraceSet` holds them; the
population model fills it from its spectrum.  The dense helpers here
serve the identity checks: traces of a power, of a product and of a
Hadamard product, using tr S^3 = sum_ij (S^2)_ij S_ij and
tr S^4 = ||S^2||_F^2.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

SYMMETRY_RTOL = 1e-12


class SymmetryError(ValueError):
    """Raised when a matrix fails the symmetry check at construction."""


@dataclass(frozen=True)
class SymMatrix:
    """Immutable real symmetric matrix.

    Symmetry is validated once at construction (relative tolerance 1e-12
    against the largest entry) and exploited unconditionally afterwards.
    """

    array: np.ndarray

    def __post_init__(self) -> None:
        a = np.array(self.array, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError(f"expected a square matrix, got shape {a.shape}")
        if a.shape[0] < 1:
            raise ValueError("matrix dimension must be at least 1")
        if not np.all(np.isfinite(a)):
            raise ValueError("matrix entries must be finite")
        scale = max(1.0, float(np.abs(a).max()))
        skew = float(np.abs(a - a.T).max())
        if skew > SYMMETRY_RTOL * scale:
            raise SymmetryError(
                f"matrix is not symmetric: max |a_ij - a_ji| = {skew:.3e} "
                f"exceeds {SYMMETRY_RTOL:g} * {scale:.3e}"
            )
        a.flags.writeable = False
        object.__setattr__(self, "array", a)

    @property
    def dim(self) -> int:
        return self.array.shape[0]

    def diagonal(self) -> np.ndarray:
        return np.diagonal(self.array)


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
        return {
            "tr1": self.tr1,
            "tr2": self.tr2,
            "tr3": self.tr3,
            "tr4": self.tr4,
            "trH11": self.trH11,
            "trH12": self.trH12,
            "trH22": self.trH22,
        }


def _require_same_dim(a: SymMatrix, b: SymMatrix) -> None:
    if a.dim != b.dim:
        raise ValueError(f"dimension mismatch: {a.dim} vs {b.dim}")


def trace_power(m: SymMatrix, k: int) -> float:
    """tr(m^k) for k in 1..4, without forming m^3 or m^4."""
    if k not in (1, 2, 3, 4):
        raise ValueError(f"k must be in 1..4, got {k}")
    a = m.array
    if k == 1:
        return float(np.trace(a))
    if k == 2:
        return float(np.sum(a * a))
    a2 = a @ a
    if k == 3:
        return float(np.sum(a2 * a))
    return float(np.sum(a2 * a2))


def trace_hadamard(a: SymMatrix, b: SymMatrix) -> float:
    """tr(a∘b), which only involves the diagonals: sum_i a_ii b_ii."""
    _require_same_dim(a, b)
    return float(np.sum(a.diagonal() * b.diagonal()))


def trace_product(a: SymMatrix, b: SymMatrix) -> float:
    """tr(a b) for symmetric operands, as the entrywise sum sum_ij a_ij b_ij."""
    _require_same_dim(a, b)
    return float(np.sum(a.array * b.array))


@dataclass(frozen=True)
class TripleProductTerms:
    """Auxiliary scalars of the cubic quadratic-form moment expansion.

    With d_M the diagonal-entry vector of M and D_M its diagonal matrix:
    dt_t_dw = d_T' T d_W, dt_w_dt = d_T' W d_T,
    ones_ttw = 1'(T∘T∘W)1, tr_t_dw_t = tr(T D_W T),
    tr_w_dt_t = tr(W D_T T), tr_ttw_diag = tr(T∘T∘W).
    """

    dt_t_dw: float
    dt_w_dt: float
    ones_ttw: float
    tr_t_dw_t: float
    tr_w_dt_t: float
    tr_ttw_diag: float


def triple_product_terms(t: SymMatrix, w: SymMatrix) -> TripleProductTerms:
    _require_same_dim(t, w)
    ta, wa = t.array, w.array
    dt, dw = t.diagonal(), w.diagonal()
    return TripleProductTerms(
        dt_t_dw=float(dt @ ta @ dw),
        dt_w_dt=float(dt @ wa @ dt),
        ones_ttw=float(np.sum(ta * ta * wa)),
        tr_t_dw_t=float(np.sum((ta * ta) @ dw)),
        tr_w_dt_t=float(np.sum((wa * ta) @ dt)),
        tr_ttw_diag=float(np.sum(dt * dt * dw)),
    )
