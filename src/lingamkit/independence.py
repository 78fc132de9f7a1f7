"""Nonlinear-correlation independence scoring.

The score for a candidate variable ``x_j`` against an active set sums,
over every other active variable ``x_i``, the absolute Pearson
correlations ``|corr(g(r_i), x_j)| + |corr(r_i, g(x_j))|`` where
``r_i`` is the residual of ``x_i`` regressed on ``x_j`` and ``g`` is
tanh, a bounded, non-quadratic nonlinearity. The score is zero when
``x_j`` is independent of all its residuals, which characterizes an
exogenous variable; minimizing it selects the next root.

Correlations use 1/n moments on the centered values as given (no
re-standardization), so the statistic is scale-sensitive by design.
A correlation whose argument has zero variance contributes exactly 0,
the limit consistent with independence. One array kernel, ``_scores``,
scores all candidates of a block at once; the public functions are views of it.
The second term needs no residual rows: its covariance and variance follow in
closed form, for all pairs at once, from ``x @ g(x).T`` and the Gram matrix; a
variance that cancels to zero or below counts as zero. ``g(r_i)`` is formed for
every row of the block, for a chunk of candidates (``core.CHUNK_VALUES`` values, or
one candidate) at a time, in one reused C-ordered ``(c, k, n)`` buffer, as ``Dataset``
rows are held: the candidate's own residual ``x_j - 1.0 * x_j`` is exactly 0.
"""

from __future__ import annotations

import numpy as np

# ``simple_residual`` stays importable here: perfbench/spans.py wraps it by name.
from .core import CHUNK_VALUES, Dataset, _gram, _subscripts, simple_residual  # noqa: F401
from .errors import DimensionError, NonFiniteValue, NotInActiveSet


def _abs_corr(cov: np.ndarray, var_a: np.ndarray, var_b) -> np.ndarray:
    """|Pearson correlation| from centered moment sums: 0 where a variance is at
    most 0 (a constant argument, or one that cancelled), NaN where an input is NaN."""
    with np.errstate(divide="ignore", invalid="ignore"):
        corr = np.abs(cov) / np.sqrt(var_a * var_b)
    return np.where((var_a <= 0.0) | (var_b <= 0.0), 0.0, corr)


def _scores(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Scores of every row of a centered ``k x n`` block, and ``coef[i, j]``, the
    ``simple_residual`` coefficient of row ``i`` on row ``j`` (0 if row ``j`` centers to 0)."""
    k, n = x.shape
    xc = x - x.mean(axis=1, keepdims=True)
    gram = _gram(xc)
    if not np.isfinite(gram).all():
        raise NonFiniteValue("Gram matrix overflows: the data is too large in magnitude")
    var = np.diagonal(gram)
    varies = xc.any(axis=1)
    if (var[varies] == 0.0).any():
        raise NonFiniteValue("Gram matrix underflows: the data is too small in magnitude")
    with np.errstate(divide="ignore", invalid="ignore"):
        coef = np.where(varies, gram / var, 0.0)
    # Residual blocks of c candidates at once; the first slot holds g(x) until then.
    c = min(k, max(1, CHUNK_VALUES // (k * n)))
    buf = np.empty((c, k, n))
    gx = np.tanh(x, out=buf[0])
    gx -= gx.mean(axis=1, keepdims=True)
    cross = xc @ gx.T  # cross[i, j] = sum of x_i * g(x_j), centered
    # |corr(r_ij, g(x_j))| for every pair at once: r_ij = x_i - coef_ij * x_j.
    scores = _abs_corr(
        cross - coef * np.diagonal(cross), var[:, None] - coef * gram, np.einsum("ij,ij->i", gx, gx)
    ).sum(axis=0)

    # |corr(g(r_ij), x_j)| per candidate j, from sums over g(r_j), [x_j, 1] and g(r_j)^2.
    means = xc.mean(axis=1)
    xj_one = np.ones((c, n, 2))
    for start in range(0, k, c):
        js = slice(start, start + c)
        gr, xj = buf[: k - start], xj_one[: k - start]
        np.multiply(coef[:, js].T[:, :, None], x[js, None], out=gr)
        np.subtract(x, gr, out=gr)
        np.tanh(gr, out=gr)
        xj[:, :, 0] = xc[js]
        sum_gx, sum_g = (gr @ xj).transpose(2, 0, 1)
        sum_gg = np.einsum("jit,jit->ji", gr, gr)
        scores[js] += _abs_corr(
            sum_gx - sum_g * means[js, None], sum_gg - sum_g * sum_g / n, var[js, None]
        ).sum(axis=1)
    return scores, coef


def t_statistic(j: int, active, data: Dataset) -> float:
    """Nonlinear dependence of variable ``j`` on its single-regressor residuals:
    the entry for ``j`` of ``t_profile`` over the 1-based subscripts ``active``."""
    subs = _subscripts(active, data.p)
    if j not in subs:
        raise NotInActiveSet(f"variable {j} is not in the active set {subs}")
    return t_profile(subs, data)[j]


def t_profile(active, data: Dataset) -> dict[int, float]:
    """Score every active candidate; keys ascend so iteration order is fixed."""
    subs = _subscripts(active, data.p)
    if len(subs) < 2:
        raise DimensionError("active set needs at least two variables")
    scores, _ = _scores(data.values[np.array(subs, dtype=int) - 1])
    return dict(zip(subs, scores.tolist()))


def _argmin(scores: np.ndarray) -> int:
    """Position of the lowest score, ties to the first; a NaN or inf score raises ``NonFiniteValue``."""
    if np.isnan(scores).any():
        raise NonFiniteValue("an independence score is NaN")
    if np.isinf(scores).any():
        raise NonFiniteValue("an independence score is infinite")
    return int(np.argmin(scores))


def find_most_independent(active, data: Dataset) -> int:
    """The active variable with the lowest score; ``t_profile``'s keys ascend, so ties go low."""
    profile = t_profile(active, data)
    return list(profile)[_argmin(np.array(list(profile.values())))]
