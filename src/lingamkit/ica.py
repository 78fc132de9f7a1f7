"""The original ICA-based estimation pipeline, kept as a comparison baseline.

Five steps: (1) FastICA recovers an unmixing matrix up to row permutation
and scaling; (2) rows are permuted to make the diagonal zero-free,
minimizing the sum of reciprocal absolute diagonal entries via linear
assignment; (3) rows are rescaled to a unit diagonal; (4) the strength
matrix is ``I`` minus the rescaled unmixing matrix; (5) the smallest
entries are zeroed until the matrix can be permuted to strictly lower
triangular form, which yields the causal order.

Steps 2 and 5 are not scale-invariant: rescaling input variables can
change which permutation wins and which entries get pruned, so
orderings from this baseline can shift under unit changes. The direct
estimator exists to avoid both this and FastICA's dependence on random
initialization.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass

import numpy as np
from scipy.optimize import linear_sum_assignment

from .core import (
    CausalOrder,
    ConnectionMatrix,
    Dataset,
    RCOND_THRESHOLD,
    find_strict_lower_permutation,
    permute_matrix,
    require_centered,
)
from .errors import (
    DimensionError,
    NoFeasibleAssignment,
    RankDeficient,
    ZeroDiagonal,
)


@dataclass(frozen=True)
class FastIcaConfig:
    """Fixed-point ICA settings. The contrast is always tanh and the scheme
    always deflation, so neither is a setting.

    ``restarts`` counts random re-initializations tried per component
    after the first attempt fails to converge within
    ``max_iterations``; a component that exhausts them keeps its last
    direction and flips the converged flag instead of aborting.
    """

    max_iterations: int = 1000
    tolerance: float = 1e-6
    restarts: int = 5
    seed: int = 0

    def __post_init__(self):
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be at least 1")
        if self.tolerance <= 0:
            raise ValueError("tolerance must be positive")


@dataclass(frozen=True)
class BaselineModel:
    """Output of the five-step baseline.

    ``strengths`` is the raw recovered matrix; ``pruned`` has the
    entries zeroed during step 5 and is strictly lower triangular under
    ``order``. ``converged`` is False when any FastICA component
    exhausted its restarts.
    """

    order: CausalOrder
    strengths: ConnectionMatrix
    pruned: ConnectionMatrix
    converged: bool

    def __post_init__(self):
        if not permute_matrix(self.pruned, self.order).is_strictly_lower():
            raise ValueError("pruned matrix is not strictly lower triangular under the order")


def _whiten(values: np.ndarray) -> np.ndarray:
    """Whitening transform from the eigendecomposition of the sample covariance."""
    p, n = values.shape
    cov = values @ values.T / n
    eigvals, eigvecs = np.linalg.eigh(cov)
    if eigvals[-1] <= 0.0 or eigvals[0] <= eigvals[-1] * RCOND_THRESHOLD:
        raise RankDeficient("sample covariance is singular; cannot whiten")
    return (eigvecs / np.sqrt(eigvals)).T


def fastica(data: Dataset, cfg: FastIcaConfig | None = None) -> tuple[np.ndarray, bool]:
    """Estimate a ``p x p`` unmixing matrix by deflationary fixed-point iteration.

    Returns ``(unmixing, converged)``. Requires ``p <= n`` and a
    positive definite sample covariance (``RankDeficient`` otherwise).
    Rows of ``unmixing @ data.values`` are the estimated independent
    components, recovered up to permutation and scaling.
    """
    cfg = cfg or FastIcaConfig()
    require_centered(data)
    if data.p > data.n:
        raise RankDeficient(f"p={data.p} exceeds n={data.n}; covariance cannot be full rank")
    whitener = _whiten(data.values)
    z = whitener @ data.values

    rng = np.random.default_rng(cfg.seed)
    p = data.p
    rotation = np.zeros((p, p))
    all_converged = True
    for comp in range(p):
        w = np.zeros(p)
        comp_converged = False
        for _attempt in range(cfg.restarts + 1):
            w = rng.standard_normal(p)
            w -= rotation[:comp].T @ (rotation[:comp] @ w)
            norm = np.linalg.norm(w)
            if norm == 0.0:
                continue
            w /= norm
            for _ in range(cfg.max_iterations):
                wz = w @ z
                gwz = np.tanh(wz)
                w_new = (z * gwz).mean(axis=1) - (1.0 - gwz**2).mean() * w
                # Deflation: stay orthogonal to the components already found.
                w_new -= rotation[:comp].T @ (rotation[:comp] @ w_new)
                norm = np.linalg.norm(w_new)
                if norm == 0.0:
                    break
                w_new /= norm
                drift = abs(abs(float(w_new @ w)) - 1.0)
                w = w_new
                if drift < cfg.tolerance:
                    comp_converged = True
                    break
            if comp_converged:
                break
        rotation[comp] = w
        all_converged = all_converged and comp_converged
    return rotation @ whitener, all_converged


def diagonal_permutation(w: np.ndarray) -> tuple[np.ndarray, tuple[int, ...]]:
    """Permute rows of ``w`` to minimize the sum of reciprocal |diagonal| entries.

    Solved as a linear assignment with cost ``1/|w[r, i]]`` for placing
    row ``r`` at diagonal slot ``i`` (infinite when the entry is zero).
    Returns the permuted matrix and the 0-based row order applied, so
    ``w_tilde[i] == w[row_order[i]]``. Raises ``NoFeasibleAssignment``
    when every permutation leaves a zero on the diagonal.
    """
    w = np.asarray(w, dtype=float)
    if w.ndim != 2 or w.shape[0] != w.shape[1]:
        raise DimensionError(f"expected a square matrix, got shape {w.shape}")
    p = w.shape[0]
    cost = np.full((p, p), np.inf)
    mask = w != 0.0
    cost[mask] = 1.0 / np.abs(w[mask])
    try:
        rows, cols = linear_sum_assignment(cost)
    except ValueError as exc:
        raise NoFeasibleAssignment("every row permutation hits a zero diagonal entry") from exc
    row_order = np.empty(p, dtype=int)
    row_order[cols] = rows
    return w[row_order], tuple(int(r) for r in row_order)


def b_from_unmixing(w_tilde: np.ndarray) -> ConnectionMatrix:
    """Normalize rows to a unit diagonal and form ``I - W``."""
    w_tilde = np.asarray(w_tilde, dtype=float)
    diag = np.diagonal(w_tilde)
    if np.any(diag == 0.0):
        raise ZeroDiagonal("unmixing matrix has a zero diagonal entry")
    b = np.eye(w_tilde.shape[0]) - w_tilde / diag[:, None]
    np.fill_diagonal(b, 0.0)
    return ConnectionMatrix(b)


def prune_and_order(b_hat: ConnectionMatrix) -> tuple[CausalOrder, ConnectionMatrix]:
    """Zero the fewest smallest entries that let the matrix permute to strictly lower triangular.

    At least the ``p(p+1)/2`` smallest entries in absolute value are zeroed, ties broken
    by (row, column). A permutation that exists after zeroing ``k`` entries still exists
    after zeroing more, and zeroing all ``p**2`` admits one, so bisection finds the least ``k``.
    """
    entries = np.array(b_hat.entries)
    rank = np.argsort(np.argsort(np.abs(entries), axis=None, kind="stable")).reshape(entries.shape)
    def orderable(k: int) -> bool:
        return find_strict_lower_permutation(np.where(rank < k, 0.0, entries)) is not None
    head = entries.shape[0] * (entries.shape[0] + 1) // 2
    k = head + bisect_left(range(head, entries.size), True, key=orderable)
    pruned = np.where(rank < k, 0.0, entries)
    return find_strict_lower_permutation(pruned), ConnectionMatrix(pruned)


def ica_lingam_fit(data: Dataset, cfg: FastIcaConfig | None = None) -> BaselineModel:
    """Run the five-step baseline end to end."""
    cfg = cfg or FastIcaConfig()
    unmixing, converged = fastica(data, cfg)
    w_tilde, _ = diagonal_permutation(unmixing)
    strengths = b_from_unmixing(w_tilde)
    order, pruned = prune_and_order(strengths)
    return BaselineModel(order=order, strengths=strengths, pruned=pruned, converged=converged)
