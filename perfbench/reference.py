"""Independent NumPy reference for the answers the benchmark checks.

Nothing here imports lingamkit: the order, strengths and bootstrap
intervals are recomputed from the generated CSV with vectorized code
that shares no implementation with the package, so a speed-up that
changes the answer shows as a failed operation.
"""

from __future__ import annotations

import numpy as np

# Two candidate scores closer than this (relative) count as a tie that the
# reference cannot break the same way as the package, so the step is not
# compared; DirectLiNGAM picks the lowest subscript on an exact tie.
TIE_RTOL = 1e-9


def load_matrix(path) -> np.ndarray:
    """Observations-as-rows CSV with a header -> centered ``p x n`` matrix."""
    x = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2).T
    return x - x.mean(axis=1, keepdims=True)


def _abs_corr(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """|Pearson correlation| of each row of ``a`` with vector ``b``; 0 for constants."""
    da = a - a.mean(axis=1, keepdims=True)
    db = b - b.mean()
    va = np.einsum("ij,ij->i", da, da)
    vb = db @ db
    cov = np.abs(da @ db)
    out = np.zeros(len(a))
    ok = (va > 0.0) & (vb > 0.0)
    out[ok] = cov[ok] / np.sqrt(va[ok] * vb)
    return out


def direct_order(x: np.ndarray) -> tuple[tuple[int, ...], bool]:
    """DirectLiNGAM order (1-based) with the tanh score.

    Returns the order and whether every root choice was decided by more
    than ``TIE_RTOL``; an undecided order is not comparable bit-for-bit.
    """
    work = np.array(x, dtype=float)
    subs = list(range(1, len(work) + 1))
    order: list[int] = []
    decided = True
    while len(subs) > 1:
        work -= work.mean(axis=1, keepdims=True)
        k = len(work)
        scores = np.empty(k)
        for j in range(k):
            xj = work[j]
            dj = xj - xj.mean()
            coef = (work - work.mean(axis=1, keepdims=True)) @ dj / (dj @ dj)
            others = np.arange(k) != j
            resid = work[others] - coef[others, None] * xj
            scores[j] = _abs_corr(np.tanh(resid), xj).sum() + _abs_corr(resid, np.tanh(xj)).sum()
        pick = int(np.argmin(scores))
        if k > 1:
            best, second = np.partition(scores, 1)[:2]
            decided &= bool(second - best > TIE_RTOL * max(abs(best), 1e-300))
        order.append(subs.pop(pick))
        root = work[pick]
        droot = root - root.mean()
        coef = (work - work.mean(axis=1, keepdims=True)) @ droot / (droot @ droot)
        work = np.delete(work - coef[:, None] * root, pick, axis=0)
    order.extend(subs)
    return tuple(order), decided


def strengths_from_cov(cov: np.ndarray, order) -> np.ndarray:
    """Least-squares strengths of each variable on its predecessors, from a
    covariance (or stack of covariances, shape ``(..., p, p)``)."""
    cov = np.asarray(cov, dtype=float)
    b = np.zeros(cov.shape)
    idx = [s - 1 for s in order]
    for pos in range(1, len(idx)):
        t, parents = idx[pos], idx[:pos]
        gram = cov[..., parents, :][..., :, parents]
        rhs = cov[..., parents, t][..., None]
        b[..., t, parents] = np.linalg.solve(gram, rhs)[..., 0]
    return b


def strengths(x: np.ndarray, order) -> np.ndarray:
    return strengths_from_cov(x @ x.T / x.shape[1], order)


def bootstrap_intervals(x: np.ndarray, order, level: float, resamples: int, seed: int):
    """Percentile intervals under a fixed order, drawing resamples exactly as
    ``default_rng(seed).integers(0, n, size=n)`` one resample at a time.

    Returns ``(slots, lower, upper)`` with 1-based ``(i, j)`` slots in
    order position, parent order.
    """
    p, n = x.shape
    rng = np.random.default_rng(seed)
    covs = np.empty((resamples, p, p))
    for r in range(resamples):
        w = np.bincount(rng.integers(0, n, size=n), minlength=n) / n
        mean = x @ w
        covs[r] = (x * w) @ x.T - np.outer(mean, mean)
    b = strengths_from_cov(covs, order)
    slots = [(order[pos], parent) for pos in range(1, p) for parent in order[:pos]]
    rows = [i - 1 for i, _ in slots]
    cols = [j - 1 for _, j in slots]
    draws = b[:, rows, cols]
    alpha = (1.0 - level) / 2.0
    lower = np.quantile(draws, alpha, axis=0, method="linear")
    upper = np.quantile(draws, 1.0 - alpha, axis=0, method="linear")
    return slots, lower, upper


def observed_matrix(truth: dict) -> np.ndarray:
    """True strengths in emitted-row coordinates, from a truth JSON document."""
    idx = np.asarray(truth["shuffle"]) - 1
    return np.asarray(truth["b_true"], dtype=float)[np.ix_(idx, idx)]


def order_errors(b_obs: np.ndarray, order) -> int:
    """True edges pointing backwards under ``order`` (1-based subscripts)."""
    idx = np.asarray(order) - 1
    return int(np.count_nonzero(np.triu(b_obs[np.ix_(idx, idx)], k=1)))
