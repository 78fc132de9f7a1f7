"""Nonlinear-correlation independence scoring.

The score for a candidate variable ``x_j`` against an active set sums,
over every other active variable ``x_i``, the absolute Pearson
correlations ``|corr(g(r_i), x_j)| + |corr(r_i, g(x_j))|`` where
``r_i`` is the residual of ``x_i`` regressed on ``x_j`` and ``g`` is a
bounded, non-quadratic nonlinearity (tanh). The score is zero when
``x_j`` is independent of all its residuals, which characterizes an
exogenous variable; minimizing it selects the next root.

Correlations use 1/n moments on the centered values as given (no
re-standardization), so the statistic is scale-sensitive by design.
A correlation whose argument has exactly zero variance contributes 0,
the limit consistent with independence. One array kernel, ``_scores``,
scores all candidates of a block at once; the public functions are views of it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# ``simple_residual`` stays importable here: perfbench/spans.py wraps it by name.
from .core import Dataset, _gram, require_centered, simple_residual  # noqa: F401
from .errors import DimensionError, NonFiniteValue, NotInActiveSet

NONLINEARITIES = {"tanh": np.tanh}


@dataclass(frozen=True)
class IndependenceConfig:
    """Choice of nonlinearity ``g``; must be bounded and non-quadratic."""

    nonlinearity: str = "tanh"

    def __post_init__(self):
        if self.nonlinearity not in NONLINEARITIES:
            raise ValueError(
                f"unknown nonlinearity {self.nonlinearity!r}; "
                f"choose from {sorted(NONLINEARITIES)}"
            )

    @property
    def g(self):
        return NONLINEARITIES[self.nonlinearity]


def _abs_corr_rows(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """|Pearson correlation| of each row of ``a`` with ``b``: 0 where either is
    constant, NaN where an input is NaN. Centers ``a`` in place."""
    a -= a.mean(axis=1, keepdims=True)
    db = b - b.mean()
    va = np.einsum("ij,ij->i", a, a)
    vb = db @ db
    with np.errstate(divide="ignore", invalid="ignore"):
        corr = np.abs(a @ db) / np.sqrt(va * vb)
    return np.where((va == 0.0) | (vb == 0.0), 0.0, corr)


def _scores(x: np.ndarray, g) -> tuple[np.ndarray, np.ndarray]:
    """Scores of every row of a centered ``k x n`` block, and ``coef[i, j]``, the
    ``simple_residual`` coefficient of row ``i`` on row ``j``."""
    gram = _gram(x - x.mean(axis=1, keepdims=True))
    coef = gram / np.diagonal(gram)
    scores = np.empty(len(x))
    for j, xj in enumerate(x):
        r = np.delete(x, j, axis=0)
        r -= np.delete(coef[:, j], j)[:, None] * xj
        gr = g(r)
        scores[j] = (_abs_corr_rows(gr, xj) + _abs_corr_rows(r, g(xj))).sum()
    return scores, coef


def t_statistic(j: int, active, data: Dataset, cfg: IndependenceConfig | None = None) -> float:
    """Nonlinear dependence of variable ``j`` on its single-regressor residuals:
    the entry for ``j`` of ``t_profile`` over the 1-based subscripts ``active``."""
    require_centered(data)
    subs = sorted(set(int(s) for s in active))
    if j not in subs:
        raise NotInActiveSet(f"variable {j} is not in the active set {subs}")
    return t_profile(subs, data, cfg)[j]


def t_profile(active, data: Dataset, cfg: IndependenceConfig | None = None) -> dict[int, float]:
    """Score every active candidate; keys ascend so iteration order is fixed."""
    cfg = cfg or IndependenceConfig()
    require_centered(data)
    subs = sorted(set(int(s) for s in active))
    if len(subs) == 1:
        raise DimensionError("active set needs at least two variables")
    scores, _ = _scores(data.values[np.array(subs, dtype=int) - 1], cfg.g)
    return dict(zip(subs, scores.tolist()))


def select_minimum(profile: dict[int, float]) -> int:
    """Lowest-scoring subscript, ties to the lowest; a NaN score raises ``NonFiniteValue``."""
    subs = sorted(profile)
    if any(np.isnan(profile[j]) for j in subs):
        raise NonFiniteValue("an independence score is NaN")
    return min(subs, key=profile.__getitem__, default=None)


def find_most_independent(active, data: Dataset, cfg: IndependenceConfig | None = None) -> int:
    """The active variable most independent of its residuals (score argmin)."""
    return select_minimum(t_profile(active, data, cfg))
