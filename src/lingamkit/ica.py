"""The original ICA-based estimation pipeline, kept as a comparison baseline.

Five steps: (1) FastICA recovers an unmixing matrix up to row permutation and
scaling; (2) rows are permuted to make the diagonal zero-free, minimizing the
sum of reciprocal absolute diagonal entries with scipy's linear assignment
solver, which ``diagonal_permutation`` imports on first use: nothing else needs
scipy, and loading it tripled every command's start-up; (3) rows are rescaled
to a unit diagonal; (4) the strength matrix is ``I`` minus the rescaled
unmixing matrix; (5) the smallest entries are zeroed until the matrix can be
permuted to strictly lower triangular form, which yields the causal order.

Steps 2 and 5 are not scale-invariant: rescaling input variables can
change which permutation wins and which entries get pruned, so
orderings from this baseline can shift under unit changes. The direct
estimator's tanh score depends on units too; what it avoids is FastICA's
random initialization: it has no random start and a fixed number of steps.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass

import numpy as np

from .core import (
    CausalOrder,
    ConnectionMatrix,
    Dataset,
    RCOND_THRESHOLD,
    _gram,
    _of,
    _square,
    find_strict_lower_permutation,
    permute_matrix,
)
from .errors import NoFeasibleAssignment, NonFiniteValue, RankDeficient, ZeroDiagonal


# Fixed-point ICA settings (tanh contrast, deflation); ``fastica`` says how they bound it.
MAX_ITERATIONS = 1000
TOLERANCE = 1e-6
RESTARTS = 5


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
    gram = _gram(values)
    if not np.isfinite(gram).all():
        raise NonFiniteValue("sample covariance overflows: the data is too large in magnitude")
    # A Dataset row varies, so only underflow can zero its variance.
    if (np.diagonal(gram) == 0.0).any():
        raise NonFiniteValue("sample covariance underflows: the data is too small in magnitude")
    eigvals, eigvecs = np.linalg.eigh(gram / values.shape[1])
    if eigvals[0] <= eigvals[-1] * RCOND_THRESHOLD:
        raise RankDeficient("sample covariance is singular; cannot whiten")
    return (eigvecs / np.sqrt(eigvals)).T


def fastica(data: Dataset, rng: np.random.Generator) -> tuple[np.ndarray, bool]:
    """Estimate a ``p x p`` unmixing matrix by deflationary fixed-point iteration.

    Returns ``(unmixing, converged)``. Requires ``p <= n`` and a finite, positive definite
    sample covariance (else ``RankDeficient`` or ``NonFiniteValue``). Rows of ``unmixing @
    data.values`` are the estimated independent components, up to permutation and scaling.
    Each of the ``p`` components takes up to ``RESTARTS + 1`` starts drawn from ``rng``, each
    of up to ``MAX_ITERATIONS`` updates until the drift falls below ``TOLERANCE``; a component
    whose last start ends unconverged keeps that direction and clears ``converged``.
    """
    rng = _of(np.random.Generator, "rng", rng)
    if _of(Dataset, "data", data).p > data.n:
        raise RankDeficient(f"p={data.p} exceeds n={data.n}; covariance cannot be full rank")
    whitener = _whiten(data.values)
    z = whitener @ data.values

    rotation = np.zeros((data.p, data.p))
    converged = True
    for comp in range(data.p):
        found = rotation[:comp]
        for _start in range(RESTARTS + 1):
            w = rng.standard_normal(data.p)
            w -= found.T @ (found @ w)
            w /= np.linalg.norm(w)
            for _ in range(MAX_ITERATIONS):
                gwz = np.tanh(w @ z)
                w_new = (z * gwz).mean(axis=1) - (1.0 - gwz**2).mean() * w
                # Deflation: stay orthogonal to the components already found.
                w_new -= found.T @ (found @ w_new)
                w_new /= np.linalg.norm(w_new)
                drift = abs(abs(float(w_new @ w)) - 1.0)
                w = w_new
                if drift < TOLERANCE:
                    break
            if drift < TOLERANCE:
                break
        else:
            converged = False
        rotation[comp] = w
    return rotation @ whitener, converged


def diagonal_permutation(w: np.ndarray) -> tuple[np.ndarray, tuple[int, ...]]:
    """Permute rows of ``w`` to minimize the sum of reciprocal |diagonal| entries.

    Solved as a linear assignment with cost ``1/|w[r, i]]`` for placing
    row ``r`` at diagonal slot ``i`` (infinite when the entry is zero).
    Returns the permuted matrix and the 0-based row order applied, so
    ``w_tilde[i] == w[row_order[i]]``. Raises ``NoFeasibleAssignment``
    when every permutation leaves a zero on the diagonal.
    """
    from scipy.optimize import linear_sum_assignment
    w = _square(w)
    p = w.shape[0]
    cost = np.full((p, p), np.inf)
    mask = w != 0.0
    cost[mask] = 1.0 / np.abs(w[mask])
    try:
        _, cols = linear_sum_assignment(cost)  # rows come back as 0..p-1
    except ValueError as exc:
        raise NoFeasibleAssignment("every row permutation hits a zero diagonal entry") from exc
    row_order = np.argsort(cols)
    return w[row_order], tuple(int(r) for r in row_order)


def b_from_unmixing(w_tilde: np.ndarray) -> ConnectionMatrix:
    """Normalize rows to a unit diagonal and form ``I - W``, whose diagonal is exactly
    zero: ``x / x`` is exactly 1 for any finite nonzero ``x``."""
    w_tilde = _square(w_tilde)
    diag = np.diagonal(w_tilde)
    if np.any(diag == 0.0):
        raise ZeroDiagonal("unmixing matrix has a zero diagonal entry")
    return ConnectionMatrix(np.eye(w_tilde.shape[0]) - w_tilde / diag[:, None])


def prune_and_order(b_hat: ConnectionMatrix) -> tuple[CausalOrder, ConnectionMatrix]:
    """Zero the fewest smallest entries that let the matrix permute to strictly lower triangular.

    At least the ``p(p+1)/2`` smallest entries in absolute value are zeroed, ties broken
    by (row, column). A permutation that exists after zeroing ``k`` entries still exists
    after zeroing more, and zeroing all ``p**2`` admits one, so bisection finds the least ``k``.
    """
    entries = np.array(_of(ConnectionMatrix, "b_hat", b_hat).entries)
    rank = np.argsort(np.argsort(np.abs(entries), axis=None, kind="stable")).reshape(entries.shape)
    def orderable(k: int) -> bool:
        return find_strict_lower_permutation(np.where(rank < k, 0.0, entries)) is not None
    head = entries.shape[0] * (entries.shape[0] + 1) // 2
    k = head + bisect_left(range(head, entries.size), True, key=orderable)
    pruned = np.where(rank < k, 0.0, entries)
    return find_strict_lower_permutation(pruned), ConnectionMatrix(pruned)


def ica_lingam_fit(data: Dataset, rng: np.random.Generator) -> BaselineModel:
    """Run the five-step baseline end to end; FastICA draws its starts from ``rng``."""
    unmixing, converged = fastica(data, rng)
    w_tilde, _ = diagonal_permutation(unmixing)
    strengths = b_from_unmixing(w_tilde)
    order, pruned = prune_and_order(strengths)
    return BaselineModel(order=order, strengths=strengths, pruned=pruned, converged=converged)
