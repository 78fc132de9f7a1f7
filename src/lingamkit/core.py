"""Shared model types and numerical primitives.

Conventions used throughout the package:

* Data matrices are row-major with variables as rows: an observation
  matrix has shape ``(p, n)`` where row ``i`` holds variable ``x_{i+1}``.
* Variable *subscripts* are 1-based (``x1 .. xp``), matching generated
  labels and printed output. Anything named ``indices`` is 0-based and
  meant for numpy indexing.
* A ``Dataset`` is always centered: construction reads finite entries by the
  matrix rule of ``_floats`` and centers a C-ordered copy by the one rule of
  ``_center_rows``, whose one mean, max and min per row also refuse constant
  rows, so estimators take any ``Dataset`` as centered data. Its labels
  default to ``x1 .. xp``, and ``center`` is another name for ``Dataset``.
* Sample moments use the 1/n divisor. Regression coefficients are
  ratios of moments, so estimates do not depend on this choice; it is
  fixed here so that every statistic in the package is reproducible to
  the bit.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Mapping
from contextlib import suppress
from dataclasses import dataclass, fields
from numbers import Rational, Real

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
# Rows already inside this band are left bit-for-bit untouched, which
# makes centering idempotent and CSV round trips exact.
CENTERED_TOL = 1e-12

# Values in one batch of working arrays (1 MB): bounds every batched kernel's extra memory.
CHUNK_VALUES = 2**17


def _center_rows(x: np.ndarray) -> np.ndarray:
    """Center in place each row of a finite C-ordered block whose ``|mean| > CENTERED_TOL *
    max|row|``, again if that changed a row (a mean large against the row's spread leaves
    a residue); return the constant rows, which centering never changes. One mean, max
    and min per row and pass decide all three; a row that overflows when centered raises
    ``NonFiniteValue``. Other rows keep every bit."""
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(2):
            means, hi, lo = x.mean(axis=1), x.max(axis=1), x.min(axis=1)
            off = ~(np.abs(means) <= CENTERED_TOL * np.maximum(hi, -lo))
            if not off.any():
                break
            x -= np.where(off, means, 0.0)[:, None]
            overflowed = np.flatnonzero(off & ~np.isfinite(x).all(axis=1))
            if overflowed.size:
                raise NonFiniteValue(f"row {overflowed[0] + 1} overflows when centered")
    return hi == lo


def _gram(x: np.ndarray) -> np.ndarray:
    """``x @ x.T`` over the last two axes; an entry that overflows is inf or NaN, unwarned."""
    with np.errstate(over="ignore", invalid="ignore"):
        return x @ np.swapaxes(x, -1, -2)


def _field_dict(obj) -> dict:
    """A dataclass instance's fields by name, in declaration order; values are not copied."""
    return {f.name: getattr(obj, f.name) for f in fields(obj)}


def _integer(field: str, value, error: type[Exception] = ValueError) -> int:
    """``value`` as an int if it is a whole number such as 4, 4.0 or ``Fraction(8, 2)`` (a rational
    is read exactly), else an ``error`` naming ``field``. Bools, NaN and infinities are refused."""
    rational = isinstance(value, Rational)
    whole = value.denominator == 1 if rational else isinstance(value, Real) and float(value).is_integer()
    if isinstance(value, bool) or not whole:
        raise error(f"{field} must be an integer, got {value!r}")
    return int(value)


def _at_least(field: str, value, least: int, most: float = np.inf) -> int:
    """``value`` read by ``_integer``; one below ``least`` or above ``most`` raises ``ValueError`` naming ``field``."""
    if (number := _integer(field, value)) < least:
        raise ValueError(f"{field} must be at least {least}, got {number}")
    if number > most:
        raise ValueError(f"{field} must be at most {most}, got {number}")
    return number


def _of(kind: type, field: str, value):
    """``value`` if it is a ``kind``, else a ``TypeError`` naming ``field``."""
    if not isinstance(value, kind):
        raise TypeError(f"{field} must be a {kind.__name__}, got {value!r}")
    return value


def _real(value, rule: str, low: float = -np.inf, high: float = np.inf) -> float:
    """``value`` as a float if it is a real number strictly between ``low`` and ``high``; a bool,
    any other type, NaN, a number outside or one past the float range raises ``ValueError(rule)``."""
    with suppress(OverflowError):
        if not isinstance(value, bool) and isinstance(value, Real) and low < (number := float(value)) < high:
            return number
    raise ValueError(rule)


def _choice(field: str, value, choices: tuple[str, ...]) -> str:
    """``value`` if it is a string in ``choices``, else a ``ValueError`` naming ``field``."""
    if not (isinstance(value, str) and value in choices):
        raise ValueError(f"{field} must be one of {choices}, got {value!r}")
    return value


def _items(value, rule: str, error: type[Exception], kind: type = object) -> tuple:
    """``tuple(value)`` if every item is a ``kind``; a string, a mapping, a ``value`` that is
    not iterable or an item of another kind raises ``error`` stating ``rule``."""
    if not isinstance(value, (str, Mapping)):
        with suppress(TypeError):
            items = tuple(value)
            if all(isinstance(item, kind) for item in items):
                return items
    raise error(f"{rule}, got {value!r}")


def _floats(value) -> np.ndarray:
    """``value`` as a float array, a view when it is one. An entry of a type ``_real`` refuses (a bool, a string,
    a complex value), or one past the float range, raises ``ValueError``; a typed array is judged by its dtype.
    A NaN or infinite entry raises ``NonFiniteValue`` naming the first in row-major order by 1-based position."""
    arr = value if isinstance(value, np.ndarray) else np.asarray(value, dtype=object)
    for kind in dict.fromkeys(map(type, arr.flat)) if arr.dtype == object else (arr.dtype.type,):
        if issubclass(kind, bool) or not issubclass(kind, Real):
            raise ValueError(f"a matrix entry must be a real number, got a {kind.__name__}")
    try:
        arr = np.asarray(arr, dtype=float)
    except OverflowError as exc:
        raise ValueError(str(exc)) from None
    if not np.isfinite(arr).all():
        k = int(np.argmax(~np.isfinite(arr)))
        at = ", ".join(str(i + 1) for i in np.unravel_index(k, arr.shape))
        raise NonFiniteValue(f"entry ({at}) is {arr.flat[k]}" if arr.ndim else f"entry is {arr.flat[k]}")
    return arr


def _square(value) -> np.ndarray:
    """``value`` (a ``ConnectionMatrix`` by its entries) as a square float array, else ``DimensionError``."""
    arr = _floats(value.entries if isinstance(value, ConnectionMatrix) else value)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise DimensionError(f"expected a square matrix, got shape {arr.shape}")
    return arr


def _subscripts(subs, p: int) -> list[int]:
    """Distinct 1-based subscripts, ascending; one that is not a whole number or lies
    outside ``1..p`` raises ``DimensionError``."""
    subs = _items(subs, "an active set must be a sequence of subscripts", DimensionError)
    subs = sorted(set(_integer("subscript", s, DimensionError) for s in subs))
    if subs and not 1 <= subs[0] <= subs[-1] <= p:
        raise DimensionError(f"subscript {subs[0] if subs[0] < 1 else subs[-1]} is outside 1..{p}")
    return subs


@dataclass(frozen=True)
class Dataset:
    """A centered ``p x n`` observation matrix, one variable per row, held C-ordered.

    Centers a C-ordered copy of ``values`` by ``_center_rows``, so the caller's array
    is untouched; rows within ``CENTERED_TOL`` of zero keep their bits, so centering is
    idempotent. Rejects NaN or infinite entries, constant rows and labels that are not
    a sequence of strings, repeat or are empty. ``labels`` default to ``x1 .. xp``.
    """

    values: np.ndarray
    labels: tuple[str, ...] | None = None

    def __post_init__(self):
        arr = np.array(_floats(self.values), order="C")
        if arr.ndim != 2:
            raise DimensionError(f"expected a 2-D matrix, got {arr.ndim}-D")
        if len(arr) < 1:
            raise DimensionError("need at least one variable")
        if arr.shape[1] < 2:
            raise DimensionError(f"need at least two observations, got {arr.shape[1]}")
        constant = _center_rows(arr)
        rule = "labels must be a sequence of strings"
        labels = default_labels(len(arr)) if self.labels is None else _items(self.labels, rule, DimensionError, str)
        if len(labels) != len(arr):
            raise DimensionError(f"{len(labels)} labels for {len(arr)} rows")
        if bad := [s for s, k in Counter(labels).items() if k > 1 or s == ""]:
            raise DimensionError(f"labels must be distinct and non-empty, got {bad}")
        if constant.any():
            i = int(np.argmax(constant))
            raise ZeroVarianceRow(i + 1, f"variable {labels[i]} has zero sample variance")
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


# Centering realizes the zero-mean model assumption; constructing a ``Dataset`` does it.
center = Dataset


@dataclass(frozen=True)
class CausalOrder:
    """An ordered tuple of 1-based variable subscripts, first cause first.

    Must be a permutation of ``1..p`` given as whole numbers.
    """

    order: tuple[int, ...]

    def __post_init__(self):
        order = _items(self.order, "an order must be a sequence of subscripts", InvalidPermutation)
        order = tuple(_integer("subscript", s, InvalidPermutation) for s in order)
        p = len(order)
        if sorted(order) != list(range(1, p + 1)):
            raise InvalidPermutation(f"{order} is not a permutation of 1..{p}")
        object.__setattr__(self, "order", order)

    @classmethod
    def identity(cls, p: int) -> "CausalOrder":
        return cls(tuple(range(1, _at_least("p", p, 1) + 1)))

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
        arr = _square(self.entries).copy()
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
    xi, xj = _floats(xi), _floats(xj)
    if xi.shape != xj.shape or xi.ndim != 1:
        raise DimensionError("xi and xj must be 1-D vectors of equal length")
    dj = xj - xj.mean()
    var_j = float(dj @ dj)
    if var_j == 0.0:
        raise ZeroVariance("regressor has zero sample variance")
    coef = float(dj @ (xi - xi.mean())) / var_j
    return coef, xi - coef * xj


def _as_order(perm, p: int) -> CausalOrder:
    if (perm := CausalOrder(perm)).p != p:
        raise InvalidPermutation(f"permutation of length {perm.p} applied to p={p}")
    return perm


def permute_matrix(b: ConnectionMatrix, perm) -> ConnectionMatrix:
    """Simultaneous row and column permutation: ``out[i, j] = B[perm[i], perm[j]]``."""
    perm = _as_order(perm, _of(ConnectionMatrix, "b", b).p)
    idx = perm.indices
    return ConnectionMatrix(b.entries[np.ix_(idx, idx)])


def find_strict_lower_permutation(b) -> CausalOrder | None:
    """Find a permutation making ``b`` strictly lower triangular, if one exists.

    Peels off rows that are exactly zero over the columns not yet peeled,
    lowest original index first, so the result is deterministic.
    Returns ``None`` when no qualifying row exists at some step.
    """
    entries = _square(b)
    nonzero = entries != 0.0
    counts, columns = nonzero.sum(axis=1).tolist(), nonzero.T.tolist()
    order: list[int] = []
    for _ in range(len(counts)):
        if 0 not in counts:
            return None
        pick = counts.index(0)  # a peeled row's count is negative from here on
        order.append(pick + 1)
        counts = [c - z for c, z in zip(counts, columns[pick])]
        counts[pick] = -1
    return CausalOrder(tuple(order))
