"""Percentile bootstrap confidence intervals for edge strengths.

The causal ordering is held fixed across resamples: each resample draws
n observation columns with ``rng.integers(0, n, size=n)``, re-centers,
and re-runs the least-squares strength estimation for the given order.
Every coefficient that the order allows gets an empirical distribution, a
percentile interval with linearly interpolated quantiles, and a
significance flag set when the interval excludes zero. Degenerate
resamples (a constant row, or a singular design) are redrawn, up to a cap.

Resamples run in chunks of ``CHUNK_VALUES`` gathered values (1 MB), each
centered, multiplied out by one batched matmul and solved by the kernel of
``estimate_strengths``; a chunk never draws more than are still missing.
Seeded results match a one-resample-at-a-time loop to rounding, with the
same draws, redraw count and errors.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# ``center`` stays importable here: perfbench/spans.py wraps it by name.
from .core import Dataset, _as_order, center  # noqa: F401
from .direct import _ordered_least_squares, estimate_strengths
from .errors import TooManySingularResamples

CHUNK_VALUES = 2**17


@dataclass(frozen=True)
class EdgeInterval:
    """Interval for the edge ``x_j -> x_i`` (1-based subscripts).

    ``significant`` holds exactly when 0 lies outside
    ``[lower, upper]``. For percentile intervals the point estimate
    normally falls inside the interval as well.
    """

    i: int
    j: int
    point: float
    lower: float
    upper: float
    significant: bool

    def __post_init__(self):
        if self.lower > self.upper:
            raise ValueError(f"lower {self.lower} exceeds upper {self.upper}")
        if self.significant != (not self.lower <= 0.0 <= self.upper):
            raise ValueError("significant flag contradicts the interval")

    def as_text(self, labels=None) -> str:
        src = labels[self.j - 1] if labels else f"x{self.j}"
        dst = labels[self.i - 1] if labels else f"x{self.i}"
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
    level: float = 0.99,
    resamples: int = 2000,
    rng: np.random.Generator | None = None,
    max_redraws: int | None = None,
) -> BootstrapReport:
    """Percentile intervals for all coefficients under a fixed ordering.

    ``max_redraws`` bounds the total number of degenerate resamples
    tolerated before ``TooManySingularResamples`` is raised; it
    defaults to ``resamples`` (i.e. at most a doubling of work).
    """
    if not 0.0 < level < 1.0:
        raise ValueError("level must lie strictly between 0 and 1")
    if resamples < 100:
        raise ValueError("use at least 100 resamples")
    order = _as_order(order, data.p)
    rng = np.random.default_rng(0) if rng is None else rng
    cap = resamples if max_redraws is None else max_redraws

    # Raises for p > n, so every resample below has fewer predictors than n.
    point = estimate_strengths(data, order)
    values = data.values[order.indices]
    rows, cols = np.tril_indices(data.p, -1)
    slots = [(order.order[r], order.order[c]) for r, c in zip(rows, cols)]
    chunk = max(1, CHUNK_VALUES // (data.p * data.n))

    draws = np.empty((resamples, len(slots)))
    redraws = 0
    done = 0
    while done < resamples:
        picks = [rng.integers(0, data.n, size=data.n) for _ in range(min(chunk, resamples - done))]
        x = np.take(values, picks, axis=1).transpose(1, 0, 2)
        x = x - x.mean(axis=2, keepdims=True)
        b, ok = _ordered_least_squares(x @ x.transpose(0, 2, 1))
        ok &= ~np.any(x.max(axis=2) == x.min(axis=2), axis=1)
        redraws += int(np.count_nonzero(~ok))
        if redraws > cap:
            raise TooManySingularResamples(
                f"{cap + 1} degenerate resamples exceeded the cap of {cap}"
            )
        draws[done : done + ok.sum()] = b[ok][:, rows, cols]
        done += ok.sum()

    alpha = (1.0 - level) / 2.0
    lower = np.quantile(draws, alpha, axis=0, method="linear")
    upper = np.quantile(draws, 1.0 - alpha, axis=0, method="linear")

    edges = tuple(
        EdgeInterval(
            i=i,
            j=j,
            point=float(point.entries[i - 1, j - 1]),
            lower=float(lo),
            upper=float(hi),
            significant=not (lo <= 0.0 <= hi),
        )
        for (i, j), lo, hi in zip(slots, lower, upper)
    )
    return BootstrapReport(edges=edges, level=level, resamples=resamples, singular_redraws=redraws)
