"""The replication path against the exact law of (T_1, T_2) and of the
centered pair (T_1^0, T_2^0).

Under a two-point law at tiny (p, n), X takes each of its 2^(pn) sign
patterns with the product of its entries' probabilities (2^-(pn) each under
Rademacher, 0.2^k 0.8^(pn-k) under ``twopoint:0.2`` for k entries on the
larger point), so each pair has a finite law: a list of atoms with exact
weights.  The laws here are enumerated from B = F X X' F' / n and
B^0 = B - ybar ybar' directly, not through ``lss``, and a centered
``run_replications`` (seed derivation, the draw, either kernel side and the
threaded loop) must put every replication on an atom of each pair, at the
atoms' frequencies.  ``twopoint:0.2`` has mu_3 != 0, so the odd moments
enter.  A serial check tests consecutive replications against the product
law, which a replication that reuses another's stream fails.

The seed and the level were fixed before the tests were first run.  At
master seeds 1-4 and 6 every test here reads p between 0.023 and 0.98.
"""

import functools
import itertools

import numpy as np
import pytest
from scipy import stats

from covlss.harness import ExperimentConfig, build_experiment_model, run_replications

MASTER_SEED = 5
ALPHA = 1e-3  # level of every goodness-of-fit test here
# a replication matches an atom within this, relative to the largest atom of
# each statistic: the centered pair has atoms at 0, where a relative rule
# would split one atom by its rounding noise
ATOM_RTOL = 1e-9
MIN_EXPECTED = 5.0  # smallest expected cell count of the chi-square approximation
PAIRS = {"plain": slice(0, 2), "centered": slice(2, 4)}  # columns of a centered run

# the p <= n side (Sigma X X') and the p > n side (Y'Y), rotated, then the
# diagonal branch of each side, which needs fewer replications
SIZES = [
    pytest.param(2, 6, False, 20_000, id="p2-n6-rotated"),
    pytest.param(3, 2, False, 20_000, id="p3-n2-rotated"),
    pytest.param(2, 6, True, 2_000, id="p2-n6-diagonal"),
    pytest.param(3, 2, True, 2_000, id="p3-n2-diagonal"),
]


def _config(dist: str, p: int, n: int, diagonal_only: bool, reps: int) -> ExperimentConfig:
    return ExperimentConfig(p=p, n=n, dist=dist, reps=reps, master_seed=MASTER_SEED,
                            centered=True, diagonal_only=diagonal_only)


@functools.cache
def _replicated(dist: str, p: int, n: int, diagonal_only: bool, reps: int) -> np.ndarray:
    """(T_1, T_2, T_1^0, T_2^0) of each replication, a (reps, 4) array."""
    cfg = _config(dist, p, n, diagonal_only, reps)
    return run_replications(build_experiment_model(cfg), cfg, 1)


@functools.cache
def _exact_law(dist: str, p: int, n: int, diagonal_only: bool,
               pair: str) -> tuple[np.ndarray, np.ndarray]:
    """The atoms of one pair, an (atoms, 2) array, and their weights."""
    cfg = _config(dist, p, n, diagonal_only, 1)
    model = build_experiment_model(cfg)
    f = np.diag(np.sqrt(model.eigenvalues)) if model.factor is None else model.factor
    index = np.array(list(itertools.product((0, 1), repeat=p * n)))
    x = cfg.law.support[index].reshape(-1, p, n)
    weight = cfg.law.probabilities[index].prod(axis=1)
    y = f @ x
    b = y @ y.transpose(0, 2, 1) / n
    if pair == "centered":
        ybar = y.mean(axis=2)
        b -= ybar[:, :, None] * ybar[:, None, :]
    t = np.stack([np.trace(b, axis1=1, axis2=2), (b * b).sum(axis=(1, 2))], axis=1)
    tol = ATOM_RTOL * np.abs(t).max(axis=0)
    atoms, weights = [], []
    while len(t):
        same = np.all(np.abs(t - t[0]) <= tol, axis=1)
        atoms.append(t[0])
        weights.append(weight[same].sum())
        t, weight = t[~same], weight[~same]
    return np.array(atoms), np.array(weights)


def _atom_of(t: np.ndarray, atoms: np.ndarray) -> np.ndarray:
    """The atom index of each row of ``t``; every row must match exactly one."""
    tol = ATOM_RTOL * np.abs(atoms).max(axis=0)
    hits = np.all(np.abs(t[:, None, :] - atoms) <= tol, axis=2)
    off = np.flatnonzero(hits.sum(axis=1) != 1)
    assert off.size == 0, f"{off.size} replications on no single atom, first {t[off[0]]}"
    return hits.argmax(axis=1)


def _pvalue(counts: np.ndarray, expected: np.ndarray) -> float:
    """Chi-square p-value of ``counts`` against ``expected``.  The cells
    expected below MIN_EXPECTED are pooled into one, with as many of the next
    smallest as lift the pool to MIN_EXPECTED, so the approximation holds in
    every cell."""
    order = np.argsort(expected, kind="stable")
    counts, expected = counts[order], expected[order]
    pooled = max(np.searchsorted(expected, MIN_EXPECTED),
                 np.searchsorted(np.cumsum(expected), MIN_EXPECTED) + 1)
    assert pooled < len(expected), "too few replications for two cells"
    counts = np.append(counts[:pooled].sum(), counts[pooled:])
    expected = np.append(expected[:pooled].sum(), expected[pooled:])
    return stats.chisquare(counts, expected).pvalue


def _assert_follows_the_law(dist, p, n, diagonal_only, reps, pair) -> None:
    atoms, weights = _exact_law(dist, p, n, diagonal_only, pair)
    t = _replicated(dist, p, n, diagonal_only, reps)[:, PAIRS[pair]]
    counts = np.bincount(_atom_of(t, atoms), minlength=len(atoms))
    expected = reps * weights
    assert _pvalue(counts, expected) > ALPHA, (counts, expected)


@pytest.mark.parametrize("p,n,diagonal_only,reps", SIZES)
def test_replications_follow_the_exact_law(p, n, diagonal_only, reps):
    _assert_follows_the_law("rademacher", p, n, diagonal_only, reps, "plain")


@pytest.mark.parametrize("p,n,diagonal_only,reps", SIZES)
def test_centered_pair_follows_the_exact_law(p, n, diagonal_only, reps):
    _assert_follows_the_law("rademacher", p, n, diagonal_only, reps, "centered")


@pytest.mark.parametrize("pair", sorted(PAIRS))
@pytest.mark.parametrize("p,n", [pytest.param(2, 6, id="p2-n6-rotated"),
                                 pytest.param(3, 2, id="p3-n2-rotated")])
def test_skewed_law_is_followed(p, n, pair):
    # a sign flip of part of X keeps Rademacher's law but not this one's
    _assert_follows_the_law("twopoint:0.2", p, n, False, 10_000, pair)


def test_consecutive_replications_are_independent():
    # replications 2k and 2k + 1 against the product of the exact law; the
    # cells expected below MIN_EXPECTED (the four corners, 2.4 each) are
    # pooled into one
    p, n, reps = 2, 6, 20_000
    atoms, weights = _exact_law("rademacher", p, n, False, "plain")
    index = _atom_of(_replicated("rademacher", p, n, False, reps)[:, PAIRS["plain"]], atoms)
    counts = np.bincount(index[0::2] * len(atoms) + index[1::2], minlength=len(atoms) ** 2)
    expected = reps // 2 * np.outer(weights, weights).ravel()
    assert _pvalue(counts, expected) > ALPHA, (counts, expected)
