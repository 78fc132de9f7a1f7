"""Shared model types and numerical primitives.

Conventions used throughout the package:

* Data matrices are row-major with variables as rows: an observation
  matrix has shape ``(p, n)`` where row ``i`` holds variable ``x_{i+1}``.
* Variable *subscripts* are 1-based (``x1 .. xp``), matching generated
  labels and printed output. Anything named ``indices`` is 0-based and
  meant for numpy indexing.
* A ``Dataset`` is always centered: construction rejects a row whose
  mean is off zero by more than ``CENTERED_TOL`` relative to its max
  magnitude, so estimators take any ``Dataset`` as centered data.
  ``center()`` builds one from raw values.
* Sample moments use the 1/n divisor. Regression coefficients are
  ratios of moments, so estimates do not depend on this choice; it is
  fixed here so that every statistic in the package is reproducible to
  the bit.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .errors import (
    DimensionError,
    InvalidPermutation,
    NonFiniteValue,
    ZeroVariance,
    ZeroVarianceRow,
)

# Reciprocal-condition threshold below which a Gram matrix is treated as
# singular. Deliberately a module constant, not a per-call knob.
RCOND_THRESHOLD = 1e-10

# A row counts as centered when |mean| <= CENTERED_TOL * max|row|.
# Rows already inside this band are left bit-for-bit untouched by
# center(), which makes centering idempotent and CSV round trips exact.
CENTERED_TOL = 1e-12


def _off_center(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Row means, and the mask of rows off center: ``|mean| > CENTERED_TOL * max|row|``."""
    means = values.mean(axis=1)
    return means, np.abs(means) > CENTERED_TOL * np.abs(values).max(axis=1)


def _require_matrix(values: np.ndarray) -> None:
    """Raise ``DimensionError`` unless ``values`` is 2-D with a row and two columns, and
    ``NonFiniteValue`` for a NaN or inf entry."""
    if values.ndim != 2:
        raise DimensionError(f"expected a 2-D matrix, got {values.ndim}-D")
    if len(values) < 1:
        raise DimensionError("need at least one variable")
    if values.shape[1] < 2:
        raise DimensionError(f"need at least two observations, got {values.shape[1]}")
    if not np.isfinite(values).all():
        i, j = np.argwhere(~np.isfinite(values))[0]
        raise NonFiniteValue(f"row {i + 1}, observation {j + 1} is {values[i, j]}")


def _gram(x: np.ndarray) -> np.ndarray:
    """``x @ x.T`` over the last two axes; an entry that overflows is inf or NaN, unwarned."""
    with np.errstate(over="ignore", invalid="ignore"):
        return x @ np.swapaxes(x, -1, -2)


def _constant_rows(x: np.ndarray) -> np.ndarray:
    """Mask of the rows (along the last axis) whose entries are all equal; ptp can overflow."""
    return x.max(axis=-1) == x.min(axis=-1)


def _field_dict(obj) -> dict:
    """A dataclass instance's fields by name, in declaration order; values are not copied."""
    return {f.name: getattr(obj, f.name) for f in fields(obj)}


def _subscripts(subs, p: int) -> list[int]:
    """Distinct 1-based subscripts, ascending; one outside ``1..p`` raises ``DimensionError``."""
    subs = sorted(set(int(s) for s in subs))
    if subs and not 1 <= subs[0] <= subs[-1] <= p:
        raise DimensionError(f"subscript {subs[0] if subs[0] < 1 else subs[-1]} is outside 1..{p}")
    return subs


@dataclass(frozen=True)
class Dataset:
    """A centered ``p x n`` observation matrix, one variable per row, held C-ordered.

    Rejects NaN or infinite entries, constant rows, and rows whose mean is
    not zero to within ``CENTERED_TOL`` relative to the row's max magnitude.
    """

    values: np.ndarray
    labels: tuple[str, ...]

    def __post_init__(self):
        arr = np.array(self.values, dtype=float, order="C")
        _require_matrix(arr)
        labels = tuple(self.labels)
        if len(labels) != len(arr):
            raise DimensionError(f"{len(labels)} labels for {len(arr)} rows")
        constant = _constant_rows(arr)
        means, off = _off_center(arr)
        bad = constant | off
        if bad.any():
            i = int(np.argmax(bad))
            if constant[i]:
                raise ZeroVarianceRow(i + 1)
            raise DimensionError(f"row {i + 1} has mean {means[i]:g}; run center() first")
        arr.setflags(write=False)
        object.__setattr__(self, "values", arr)
        object.__setattr__(self, "labels", labels)

    @property
    def p(self) -> int:
        return self.values.shape[0]

    @property
    def n(self) -> int:
        return self.values.shape[1]

    def row(self, subscript: int) -> np.ndarray:
        """Row for the 1-based variable subscript (read-only view)."""
        return self.values[_subscripts((subscript,), self.p)[0] - 1]


def default_labels(p: int) -> tuple[str, ...]:
    return tuple(f"x{i}" for i in range(1, p + 1))


def center(raw, labels=None) -> Dataset:
    """Subtract each row's sample mean, realizing the zero-mean model assumption.

    Rows whose mean is already within ``CENTERED_TOL`` of zero are left untouched, so
    ``center`` is idempotent at the bit level. NaN or inf raises ``NonFiniteValue``.
    """
    values = np.array(raw, dtype=float)
    _require_matrix(values)
    # A second pass removes the rounding residue that a mean large
    # relative to the row's spread leaves behind.
    for _ in range(2):
        means, off = _off_center(values)
        values[off] -= means[off, None]
    if labels is None:
        labels = default_labels(len(values))
    return Dataset(values, tuple(labels))


@dataclass(frozen=True)
class CausalOrder:
    """An ordered tuple of 1-based variable subscripts, first cause first.

    Must be a permutation of ``1..p``.
    """

    order: tuple[int, ...]

    def __post_init__(self):
        order = tuple(int(s) for s in self.order)
        p = len(order)
        if sorted(order) != list(range(1, p + 1)):
            raise InvalidPermutation(f"{order} is not a permutation of 1..{p}")
        object.__setattr__(self, "order", order)

    @classmethod
    def identity(cls, p: int) -> "CausalOrder":
        return cls(tuple(range(1, p + 1)))

    @property
    def p(self) -> int:
        return len(self.order)

    @property
    def indices(self) -> np.ndarray:
        """0-based positions for numpy indexing."""
        return np.asarray(self.order, dtype=int) - 1

    def inverse(self) -> "CausalOrder":
        return CausalOrder(tuple(np.argsort(self.indices) + 1))

    def __iter__(self):
        return iter(self.order)

    def __len__(self) -> int:
        return len(self.order)


@dataclass(frozen=True)
class ConnectionMatrix:
    """A ``p x p`` matrix of connection strengths; ``entries[i, j]`` is the
    strength of the edge from variable ``x_{j+1}`` into ``x_{i+1}``.

    The diagonal must be exactly zero (no self-loops).
    """

    entries: np.ndarray

    def __post_init__(self):
        arr = np.array(self.entries, dtype=float)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise DimensionError(f"expected a square matrix, got shape {arr.shape}")
        if np.any(np.diagonal(arr) != 0.0):
            raise DimensionError("diagonal entries must be exactly zero")
        arr.setflags(write=False)
        object.__setattr__(self, "entries", arr)

    @property
    def p(self) -> int:
        return self.entries.shape[0]

    def is_strictly_lower(self) -> bool:
        """True when every entry on or above the diagonal is exactly zero."""
        return not np.any(np.triu(self.entries) != 0.0)


def simple_residual(xi: np.ndarray, xj: np.ndarray) -> tuple[float, np.ndarray]:
    """Regress ``xi`` on ``xj`` and return ``(coefficient, residual)``.

    The coefficient is ``cov(xi, xj) / var(xj)``; the residual
    ``xi - coef * xj`` has exactly zero sample covariance with ``xj``
    in exact arithmetic.
    """
    xi = np.asarray(xi, dtype=float)
    xj = np.asarray(xj, dtype=float)
    if xi.shape != xj.shape or xi.ndim != 1:
        raise DimensionError("xi and xj must be 1-D vectors of equal length")
    dj = xj - xj.mean()
    var_j = float(dj @ dj)
    if var_j == 0.0:
        raise ZeroVariance("regressor has zero sample variance")
    coef = float(dj @ (xi - xi.mean())) / var_j
    return coef, xi - coef * xj


def _as_order(perm, p: int) -> CausalOrder:
    if not isinstance(perm, CausalOrder):
        perm = CausalOrder(tuple(perm))
    if perm.p != p:
        raise InvalidPermutation(f"permutation of length {perm.p} applied to p={p}")
    return perm


def permute_matrix(b: ConnectionMatrix, perm) -> ConnectionMatrix:
    """Simultaneous row and column permutation: ``out[i, j] = B[perm[i], perm[j]]``."""
    perm = _as_order(perm, b.p)
    idx = perm.indices
    return ConnectionMatrix(b.entries[np.ix_(idx, idx)])


def find_strict_lower_permutation(b) -> CausalOrder | None:
    """Find a permutation making ``b`` strictly lower triangular, if one exists.

    Peels off rows that are exactly zero over the remaining columns,
    lowest original index first, so the result is deterministic.
    Returns ``None`` when no qualifying row exists at some step.
    """
    entries = b.entries if isinstance(b, ConnectionMatrix) else np.asarray(b, dtype=float)
    p = entries.shape[0]
    nonzero = entries != 0.0
    counts = nonzero.sum(axis=1)
    remaining = list(range(p))
    order: list[int] = []
    while remaining:
        pick = next((r for r in remaining if counts[r] == 0), None)
        if pick is None:
            return None
        order.append(pick + 1)
        remaining.remove(pick)
        for r in remaining:
            if nonzero[r, pick]:
                counts[r] -= 1
    return CausalOrder(tuple(order))
