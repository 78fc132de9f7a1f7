"""Shared model types and numerical primitives.

Conventions used throughout the package:

* Data matrices are row-major with variables as rows: an observation
  matrix has shape ``(p, n)`` where row ``i`` holds variable ``x_{i+1}``.
* Variable *subscripts* are 1-based (``x1 .. xp``), matching generated
  labels and printed output. Anything named ``indices`` is 0-based and
  meant for numpy indexing.
* Sample moments use the 1/n divisor. Regression coefficients are
  ratios of moments, so estimates do not depend on this choice; it is
  fixed here so that every statistic in the package is reproducible to
  the bit.
"""

from __future__ import annotations

from dataclasses import dataclass

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


def _require_finite(values: np.ndarray) -> None:
    if not np.isfinite(values).all():
        i, j = np.argwhere(~np.isfinite(values))[0]
        raise NonFiniteValue(f"row {i + 1}, observation {j + 1} is {values[i, j]}")


def _gram(x: np.ndarray) -> np.ndarray:
    """``x @ x.T``; raises ``NonFiniteValue`` when a sum of products overflows."""
    with np.errstate(over="ignore", invalid="ignore"):
        gram = x @ x.T
    if not np.isfinite(gram).all():
        raise NonFiniteValue("Gram matrix overflows: the data is too large in magnitude")
    return gram


@dataclass(frozen=True)
class Dataset:
    """A ``p x n`` observation matrix, one variable per row.

    Rejects NaN or infinite entries and constant rows at construction;
    when ``centered`` is set, every row mean must already be zero to
    within ``CENTERED_TOL`` relative to the row's max magnitude.
    """

    values: np.ndarray
    labels: tuple[str, ...]
    centered: bool

    def __post_init__(self):
        arr = np.array(self.values, dtype=float)
        if arr.ndim != 2:
            raise DimensionError(f"expected a 2-D matrix, got {arr.ndim}-D")
        p, n = arr.shape
        if p < 1:
            raise DimensionError("need at least one variable")
        if n < 2:
            raise DimensionError(f"need at least two observations, got {n}")
        labels = tuple(self.labels)
        if len(labels) != p:
            raise DimensionError(f"{len(labels)} labels for {p} rows")
        _require_finite(arr)
        constant = arr.max(axis=1) == arr.min(axis=1)  # ptp can overflow
        means, off = _off_center(arr)
        bad = constant | (off & self.centered)
        if bad.any():
            i = int(np.argmax(bad))
            if constant[i]:
                raise ZeroVarianceRow(i + 1)
            raise DimensionError(f"row {i + 1} marked centered but has mean {means[i]:g}")
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
        return self.values[subscript - 1]


def default_labels(p: int) -> tuple[str, ...]:
    return tuple(f"x{i}" for i in range(1, p + 1))


def require_centered(data: Dataset) -> Dataset:
    if not data.centered:
        raise DimensionError("dataset must be centered; run center() first")
    return data


def center(raw, labels=None) -> Dataset:
    """Subtract each row's sample mean, realizing the zero-mean model assumption.

    Rows whose mean is already within ``CENTERED_TOL`` of zero are left untouched, so
    ``center`` is idempotent at the bit level. NaN or inf raises ``NonFiniteValue``.
    """
    values = np.array(raw, dtype=float)
    if values.ndim != 2:
        raise DimensionError(f"expected a 2-D matrix, got {values.ndim}-D")
    p, n = values.shape
    if n < 2:
        raise DimensionError(f"need at least two observations, got {n}")
    _require_finite(values)
    # A second pass removes the rounding residue that a mean large
    # relative to the row's spread leaves behind.
    for _ in range(2):
        means, off = _off_center(values)
        values[off] -= means[off, None]
    if labels is None:
        labels = default_labels(p)
    return Dataset(values, tuple(labels), centered=True)


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
        inv = [0] * self.p
        for pos, sub in enumerate(self.order, start=1):
            inv[sub - 1] = pos
        return CausalOrder(tuple(inv))

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
