"""Direct estimation of a causal ordering by recursive root extraction.

The estimator alternates two moves, exactly ``p - 1`` times:

1. score every remaining variable with the independence statistic and
   take the minimizer as the next root of the causal order;
2. replace every other remaining variable by its residual after
   regressing out the chosen root, and re-center.

A linear non-Gaussian acyclic model provably holds for the residuals,
and their internal ordering agrees with that of the original
variables, so exogenous-variable detection can be applied recursively.
There is no search in parameter space and no iteration limit: the loop
length is fixed by the number of variables. The working data is one
plain array, scored by the array kernel of ``independence``.

Connection strengths are then estimated by ordinary least squares of
each variable on all its predecessors in the order, on the original
(non-residualized) data.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# perfbench/spans.py wraps ``center``, ``simple_residual`` and ``t_profile`` here by name.
from .core import (  # noqa: F401
    RCOND_THRESHOLD,
    CausalOrder,
    ConnectionMatrix,
    Dataset,
    _as_order,
    _center_rows,
    _floats,
    _gram,
    _items,
    _of,
    center,
    permute_matrix,
    simple_residual,
)
from .errors import (
    DimensionError,
    NonFiniteValue,
    SingularDesign,
    TooFewObservations,
    ZeroVarianceRow,
)
from .independence import _argmin, _scores, t_profile  # noqa: F401


@dataclass(frozen=True)
class FittedModel:
    """Estimated order and strengths, plus per-step selection scores.

    ``diagnostics[s]`` maps each candidate subscript considered at
    selection step ``s`` (0-based) to its independence score, so the
    map at position ``s`` has ``p - s`` entries and there are ``p - 1``
    maps in total.
    """

    order: CausalOrder
    strengths: ConnectionMatrix
    diagnostics: tuple[dict[int, float], ...]

    def __post_init__(self):
        p = _of(CausalOrder, "order", self.order).p
        steps = _items(self.diagnostics, "diagnostics must be a sequence of dicts", ValueError, dict)
        if len(steps) != max(p - 1, 0):
            raise ValueError(f"expected {p - 1} diagnostic steps, got {len(steps)}")
        for s, step in enumerate(steps):
            if len(step) != p - s:
                raise ValueError(f"diagnostic step {s} has {len(step)} entries, expected {p - s}")
        object.__setattr__(self, "diagnostics", steps)
        if not permute_matrix(_of(ConnectionMatrix, "strengths", self.strengths), self.order).is_strictly_lower():
            raise ValueError("strengths are not strictly lower triangular under the order")


def estimate_order(data: Dataset) -> tuple[CausalOrder, tuple[dict[int, float], ...]]:
    """Estimate a causal order by repeated root extraction and residualization.

    Returns the order over original 1-based subscripts together with
    the per-step score maps. Raises ``ZeroVarianceRow`` (a ``ZeroVariance``)
    if a residual row collapses to a constant after fewer than ``n - 1``
    selections, which signals exact collinearity. After s selections the
    centered residuals have rank at most n - 1 - s, so from then on (p > n)
    every residual is rounding noise and a constant one is chance; it scores 0.
    """
    x = np.array(_of(Dataset, "data", data).values)
    subs = list(range(1, data.p + 1))
    order: list[int] = []
    diagnostics: list[dict[int, float]] = []

    while len(subs) > 1:
        # Residuals stay finite: _scores refused a non-finite Gram or coefficient.
        constant = _center_rows(x)
        if constant.any() and len(order) < data.n - 1:
            sub = subs[int(np.argmax(constant))]
            why = "became constant after residualization (exact collinearity)"
            raise ZeroVarianceRow(sub, f"variable {data.labels[sub - 1]} {why}")
        scores, coef = _scores(x)
        root = _argmin(scores)
        diagnostics.append(dict(zip(subs, scores.tolist())))
        order.append(subs.pop(root))
        x = np.delete(x - coef[:, root, None] * x[root], root, axis=0)

    order.extend(subs)
    return CausalOrder(tuple(order)), tuple(diagnostics)


def _ordered_least_squares(gram: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Regress each variable on all earlier ones for a ``(c, k, k)`` stack of Gram matrices
    of centered data in causal order. Returns ``(b, finite, ok)``: ``b[m, pos, :pos]``
    holds row ``pos``'s coefficients; ``finite[m]`` is false when a Gram entry overflows
    (that member is zeroed in place), ``ok[m]`` when that or a singular design leaves
    ``b[m]`` zero, or a coefficient is not finite. The last variable's own sum of squares
    is never read, so it is set to 0 first. By Cauchy interlacing the eigenvalues of the
    largest design bound those of all smaller ones, so one ``eigvalsh`` tests them all; a
    design that underflow left indefinite fails the test. Solves without square roots keep
    exactly representable results exact. Each member is first scaled by a power of two to
    a largest entry below 1 (exact, and it keeps the eigenvalues of data near the float
    limit finite); every step treats each member on its own, so its result does not depend
    on the rest of the stack.
    """
    gram[:, -1, -1] = 0.0
    finite = np.isfinite(gram).all(axis=(1, 2))
    gram[~finite] = 0.0
    b = np.zeros(gram.shape)
    gram = np.ldexp(gram, -np.frexp(np.abs(gram).max(axis=(1, 2)))[1][:, None, None])
    eigvals = np.linalg.eigvalsh(gram[:, :-1, :-1])
    with np.errstate(divide="ignore", invalid="ignore"):
        ok = (eigvals[:, :1] / eigvals[:, -1:] >= RCOND_THRESHOLD).all(axis=1)
    good = gram[ok]
    for pos in range(1, gram.shape[1]):
        b[ok, pos, :pos] = np.linalg.solve(good[:, :pos, :pos], good[:, :pos, pos, None])[..., 0]
    return b, finite, ok & np.isfinite(b).all(axis=(1, 2))


def _regress(x: np.ndarray, names: list[str]) -> np.ndarray:
    """``_ordered_least_squares`` on one ``k x n`` block with rows named by ``names``,
    raising as ``multi_least_squares``."""
    b, finite, ok = _ordered_least_squares(_gram(x[None]))
    if not finite[0]:
        raise NonFiniteValue("Gram matrix overflows: the data is too large in magnitude")
    bad = np.argwhere(~np.isfinite(b[0]))
    if bad.size:
        pos, col = bad[0]
        raise NonFiniteValue(f"coefficient {names[col]} -> {names[pos]} is {b[0, pos, col]}")
    if not ok[0]:
        raise SingularDesign("predictor Gram matrix is numerically singular")
    return b[0]


def multi_least_squares(y: np.ndarray, predictors: np.ndarray) -> np.ndarray:
    """Solve the normal equations for ``y`` on a ``k x n`` predictor matrix.

    Inputs are assumed centered (no intercept term). Raises ``TooFewObservations``
    when ``k >= n``, ``NonFiniteValue`` when a Gram entry the regression reads or a
    coefficient is not finite, and ``SingularDesign`` when the Gram matrix's reciprocal
    condition number falls below ``RCOND_THRESHOLD``.
    """
    y, preds = _floats(y), np.atleast_2d(_floats(predictors))
    k, n = preds.shape
    if y.shape != (n,):
        raise DimensionError(f"y has length {y.size}, predictors have {n} columns")
    if k >= n:
        raise TooFewObservations(f"{k} predictors with only {n} observations")
    names = [f"predictor {i + 1}" for i in range(k)] + ["y"]
    return _regress(np.vstack([preds, y]), names)[k, :k]


def estimate_strengths(data: Dataset, order) -> ConnectionMatrix:
    """Least-squares strengths of each variable on all earlier variables in ``order``.

    Entries at or above the diagonal of the order-permuted matrix are
    exact zeros by construction. Raises ``NonFiniteValue`` and ``SingularDesign``
    as ``multi_least_squares`` does, else ``TooFewObservations`` when a variable has
    at least as many predecessors as there are observations (p > n, where least
    squares is undefined).
    """
    order = _as_order(order, _of(Dataset, "data", data).p)
    # n or more predictors are singular by rank: test only the smaller designs.
    b = _regress(data.values[order.indices[: data.n]], [data.labels[i] for i in order.indices])
    if data.p > data.n:
        raise TooFewObservations(f"{data.p - 1} predictors with only {data.n} observations")
    pos = order.inverse().indices
    return ConnectionMatrix(b[np.ix_(pos, pos)])


def fit(data: Dataset) -> FittedModel:
    """Full pipeline: estimate the order, then strengths on the original data."""
    order, diagnostics = estimate_order(data)
    strengths = estimate_strengths(data, order)
    return FittedModel(order=order, strengths=strengths, diagnostics=diagnostics)
