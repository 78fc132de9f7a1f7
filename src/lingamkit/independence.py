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
the limit consistent with independence.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import Dataset, require_centered, simple_residual
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


def _abs_corr_or_zero(a: np.ndarray, b: np.ndarray) -> float:
    """|Pearson correlation|, or 0.0 when either argument is constant."""
    da = a - a.mean()
    db = b - b.mean()
    va = float(da @ da)
    vb = float(db @ db)
    if va == 0.0 or vb == 0.0:
        return 0.0
    return abs(float(da @ db)) / np.sqrt(va * vb)


def t_statistic(j: int, active, data: Dataset, cfg: IndependenceConfig | None = None) -> float:
    """Nonlinear dependence of variable ``j`` on its single-regressor residuals.

    ``active`` is a collection of 1-based subscripts; the sum runs over
    the active variables other than ``j`` in ascending subscript order
    (fixed summation order keeps results bit-reproducible).
    """
    cfg = cfg or IndependenceConfig()
    require_centered(data)
    active = sorted(set(int(s) for s in active))
    if j not in active:
        raise NotInActiveSet(f"variable {j} is not in the active set {active}")
    if len(active) < 2:
        raise DimensionError("active set needs at least two variables")
    g = cfg.g
    xj = data.row(j)
    gxj = g(xj)
    total = 0.0
    for i in active:
        if i == j:
            continue
        _, resid = simple_residual(data.row(i), xj)
        total += _abs_corr_or_zero(g(resid), xj)
        total += _abs_corr_or_zero(resid, gxj)
    return total


def t_profile(active, data: Dataset, cfg: IndependenceConfig | None = None) -> dict[int, float]:
    """Score every active candidate; keys ascend so iteration order is fixed."""
    cfg = cfg or IndependenceConfig()
    subs = sorted(set(int(s) for s in active))
    return {j: t_statistic(j, subs, data, cfg) for j in subs}


def select_minimum(profile: dict[int, float]) -> int:
    """Lowest-scoring subscript, ties to the lowest; a NaN score raises ``NonFiniteValue``."""
    subs = sorted(profile)
    if any(np.isnan(profile[j]) for j in subs):
        raise NonFiniteValue("an independence score is NaN")
    return min(subs, key=profile.__getitem__, default=None)


def find_most_independent(active, data: Dataset, cfg: IndependenceConfig | None = None) -> int:
    """The active variable most independent of its residuals (score argmin)."""
    return select_minimum(t_profile(active, data, cfg))
