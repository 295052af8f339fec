"""The replication path against the exact law of (T_1, T_2).

Under Rademacher innovations at tiny (p, n), X takes each of its 2^(pn)
sign patterns with probability 2^-(pn), so (T_1, T_2) has a finite law: a
list of atoms with exact weights.  The law here is enumerated from
B = F X X' F' / n directly, not through ``lss``, and ``run_replications``
(seed derivation, the draw, either kernel side and the threaded loop) must
put every replication on an atom, at the atoms' frequencies.  A serial
check tests consecutive replications against the product law, which a
replication that reuses another's stream fails.

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
ATOM_RTOL = 1e-9  # a replication matches an atom within this, in T_1 and in T_2
MIN_EXPECTED = 5.0  # smallest expected cell count of the chi-square approximation


def _config(p: int, n: int, diagonal_only: bool, reps: int) -> ExperimentConfig:
    return ExperimentConfig(p=p, n=n, dist="rademacher", reps=reps, master_seed=MASTER_SEED,
                            diagonal_only=diagonal_only)


@functools.cache
def _replicated(p: int, n: int, diagonal_only: bool, reps: int) -> np.ndarray:
    cfg = _config(p, n, diagonal_only, reps)
    t, _ = run_replications(build_experiment_model(cfg), cfg, 1)
    return t


@functools.cache
def _exact_law(p: int, n: int, diagonal_only: bool) -> tuple[np.ndarray, np.ndarray]:
    """The atoms of (T_1, T_2), an (atoms, 2) array, and their weights.

    Atoms are grouped by a relative key: two sign patterns share an atom
    when both statistics agree within ``ATOM_RTOL`` of the first's value,
    since an absolute rounding splits a small atom's rounding noise."""
    model = build_experiment_model(_config(p, n, diagonal_only, 1))
    f = np.diag(np.sqrt(model.eigenvalues)) if model.factor is None else model.factor
    x = np.array(list(itertools.product((-1.0, 1.0), repeat=p * n))).reshape(-1, p, n)
    y = f @ x
    b = y @ y.transpose(0, 2, 1) / n
    t = np.stack([np.trace(b, axis1=1, axis2=2), (b * b).sum(axis=(1, 2))], axis=1)
    atoms, counts = [], []
    while len(t):
        same = np.all(np.abs(t - t[0]) <= ATOM_RTOL * np.abs(t[0]), axis=1)
        atoms.append(t[0])
        counts.append(same.sum())
        t = t[~same]
    return np.array(atoms), np.array(counts) / 2.0 ** (p * n)


def _atom_of(t: np.ndarray, atoms: np.ndarray) -> np.ndarray:
    """The atom index of each row of ``t``; every row must match exactly one."""
    hits = np.all(np.abs(t[:, None, :] - atoms) <= ATOM_RTOL * np.abs(atoms), axis=2)
    off = np.flatnonzero(hits.sum(axis=1) != 1)
    assert off.size == 0, f"{off.size} replications on no single atom, first {t[off[0]]}"
    return hits.argmax(axis=1)


@pytest.mark.parametrize("p,n,diagonal_only,reps", [
    # the p <= n side (Sigma X X') and the p > n side (Y'Y), rotated, then
    # the diagonal branch of each side, which needs fewer replications
    pytest.param(2, 6, False, 20_000, id="p2-n6-rotated"),
    pytest.param(3, 2, False, 20_000, id="p3-n2-rotated"),
    pytest.param(2, 6, True, 2_000, id="p2-n6-diagonal"),
    pytest.param(3, 2, True, 2_000, id="p3-n2-diagonal"),
])
def test_replications_follow_the_exact_law(p, n, diagonal_only, reps):
    atoms, weights = _exact_law(p, n, diagonal_only)
    counts = np.bincount(_atom_of(_replicated(p, n, diagonal_only, reps), atoms),
                         minlength=len(atoms))
    expected = reps * weights
    assert expected.min() >= MIN_EXPECTED
    assert stats.chisquare(counts, expected).pvalue > ALPHA, (counts, expected)


def test_consecutive_replications_are_independent():
    # replications 2k and 2k + 1 against the product of the exact law; the
    # cells expected below MIN_EXPECTED (the four corners, 2.4 each) are
    # pooled into one, so the chi-square approximation holds in every cell
    p, n, reps = 2, 6, 20_000
    atoms, weights = _exact_law(p, n, False)
    index = _atom_of(_replicated(p, n, False, reps), atoms)
    counts = np.bincount(index[0::2] * len(atoms) + index[1::2], minlength=len(atoms) ** 2)
    expected = reps // 2 * np.outer(weights, weights).ravel()
    sparse = expected < MIN_EXPECTED
    assert 0 < sparse.sum() and expected[sparse].sum() >= MIN_EXPECTED
    counts = np.append(counts[~sparse], counts[sparse].sum())
    expected = np.append(expected[~sparse], expected[sparse].sum())
    assert stats.chisquare(counts, expected).pvalue > ALPHA, (counts, expected)
