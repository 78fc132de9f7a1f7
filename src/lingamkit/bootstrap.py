"""Percentile bootstrap confidence intervals for edge strengths.

The causal ordering is held fixed across resamples: each resample draws
n observation columns, re-centers, and re-runs the least-squares strength
estimation for the given order. Every coefficient that the order allows
gets an empirical distribution, a percentile interval with linearly
interpolated quantiles, and a significance flag set when the interval
excludes zero. Degenerate resamples (a constant row, a singular design, or
an overflow in a Gram entry or a coefficient) are redrawn; more than
``resamples`` redraws in total raise ``TooManySingularResamples``.

Two sizes come from the package's one batch budget, ``core.CHUNK_VALUES``. A
gather chunk of ``CHUNK_VALUES // (p*n)`` resamples draws its columns with one
``rng.integers(0, n, size=(m, n))``, the same stream as m draws of size n, is
centered in place and multiplied out by one batched matmul. A solve batch of up
to ``CHUNK_VALUES // (p*p)`` Gram matrices goes through the kernel of
``estimate_strengths`` in one ``eigvalsh`` and p - 1 solves. A batch never draws more
than are still missing, so seeded results match a one-resample-at-a-time loop
to rounding, with the same draws, redraw count and errors.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

# ``center`` stays importable here: perfbench/spans.py wraps it by name.
from .core import CHUNK_VALUES, Dataset, _as_order, _at_least, _gram, _of, _real, center  # noqa: F401
from .direct import _ordered_least_squares, estimate_strengths
from .errors import TooManySingularResamples


@dataclass(frozen=True)
class EdgeInterval:
    """Interval for the edge ``x_j -> x_i`` (1-based subscripts, read as whole numbers of at
    least 1; the three numbers are read as finite floats).

    ``significant`` is derived: it holds exactly when 0 lies outside
    ``[lower, upper]``. For percentile intervals the point estimate
    normally falls inside the interval as well.
    """

    i: int
    j: int
    point: float
    lower: float
    upper: float
    significant: bool = field(init=False)

    def __post_init__(self):
        for name in ("i", "j"):
            object.__setattr__(self, name, _at_least(name, getattr(self, name), 1))
        for name in ("point", "lower", "upper"):
            value = getattr(self, name)
            object.__setattr__(self, name, _real(value, f"{name} must be a finite number, got {value!r}"))
        if not self.lower <= self.upper:
            raise ValueError(f"lower {self.lower} exceeds upper {self.upper}")
        object.__setattr__(self, "significant", not self.lower <= 0.0 <= self.upper)

    def as_text(self, labels) -> str:
        src, dst = labels[self.j - 1], labels[self.i - 1]
        flag = "sig" if self.significant else "ns"
        return f"{src} -> {dst} : {self.point:.6g} [{self.lower:.6g}, {self.upper:.6g}] {flag}"


@dataclass(frozen=True)
class BootstrapReport:
    """Intervals for every orderable edge plus resampling bookkeeping."""

    edges: tuple[EdgeInterval, ...]
    level: float
    resamples: int
    singular_redraws: int


def bootstrap_cis(
    data: Dataset,
    order,
    rng: np.random.Generator,
    level: float = 0.99,
    resamples: int = 2000,
) -> BootstrapReport:
    """Percentile intervals for all coefficients under a fixed ordering, resampled with ``rng``.

    More than ``resamples`` degenerate resamples in total (at most a doubling of work)
    raise ``TooManySingularResamples``.
    """
    level = _real(level, "level must lie strictly between 0 and 1", 0.0, 1.0)
    resamples = _at_least("resamples", resamples, 100, np.iinfo(np.intp).max)  # the draw buffer's row count
    order = _as_order(order, _of(Dataset, "data", data).p)
    rng = _of(np.random.Generator, "rng", rng)

    # Raises for p > n, so every resample below has fewer predictors than n.
    point = estimate_strengths(data, order)
    values = data.values[order.indices]
    rows, cols = np.tril_indices(data.p, -1)
    slots = [(order.order[r], order.order[c]) for r, c in zip(rows, cols)]
    chunk = max(1, CHUNK_VALUES // (data.p * data.n))
    batch = max(chunk, CHUNK_VALUES // (data.p * data.p))

    draws = np.empty((resamples, len(slots)))
    redraws = 0
    done = 0
    while done < resamples:
        m = min(batch, resamples - done)
        gram, ok = np.empty((m, data.p, data.p)), np.empty(m, dtype=bool)
        for start in range(0, m, chunk):
            picks = rng.integers(0, data.n, size=(min(chunk, m - start), data.n))
            x = np.take(values, picks, axis=1).transpose(1, 0, 2)
            x -= x.mean(axis=2, keepdims=True)
            part = slice(start, start + len(picks))
            gram[part], ok[part] = _gram(x), ~(x.max(axis=-1) == x.min(axis=-1)).any(axis=1)  # constant rows; ptp can overflow
        b, _, solved = _ordered_least_squares(gram)
        ok &= solved
        kept = int(ok.sum())
        redraws += m - kept
        if redraws > resamples:
            raise TooManySingularResamples(
                f"{resamples + 1} degenerate resamples exceeded the cap of {resamples}"
            )
        draws[done : done + kept] = b[ok][:, rows, cols]
        done += kept

    alpha = (1.0 - level) / 2.0
    lower, upper = np.quantile(draws, [alpha, 1.0 - alpha], axis=0, method="linear")

    edges = tuple(
        EdgeInterval(i, j, point.entries[i - 1, j - 1], lo, hi) for (i, j), lo, hi in zip(slots, lower, upper)
    )
    return BootstrapReport(edges=edges, level=level, resamples=resamples, singular_redraws=redraws)
