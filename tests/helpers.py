"""Shared fixtures and independent oracles.

Oracles here deliberately avoid the library code paths they check:
plain-Python Gaussian elimination, exhaustive permutation search, and
hand-rolled moment formulas. ``loop_scores`` is the one exception: it must
match the score kernel bit for bit, so it shares the kernel's ``_abs_corr``.
"""

import itertools
import math

import numpy as np

from lingamkit import CausalOrder, ConnectionMatrix, center
from lingamkit.core import _gram, find_strict_lower_permutation
from lingamkit.errors import NonFiniteValue, ZeroVariance, ZeroVarianceRow
from lingamkit.independence import _abs_corr

# The worked three-variable example model:
#   x1 = e1,  x2 = 1.5 x1 + e2,  x3 = 0.8 x1 - 1.5 x2 + e3
CHAIN_B = ConnectionMatrix([[0.0, 0.0, 0.0], [1.5, 0.0, 0.0], [0.8, -1.5, 0.0]])


def power_noise(rng, n, q=2.0):
    """sign(z)|z|^q of standard Gaussian z, standardized to unit variance."""
    z = rng.standard_normal(n)
    e = np.sign(z) * np.abs(z) ** q
    e -= e.mean()
    return e / np.sqrt(e @ e / n)


def chain_dataset(n, rng, noise="uniform"):
    """Sample the three-variable chain with unit-variance non-Gaussian noise."""
    if noise == "uniform":
        e = rng.uniform(-math.sqrt(3.0), math.sqrt(3.0), size=(3, n))
    elif noise == "q2":
        e = np.vstack([power_noise(rng, n, 2.0) for _ in range(3)])
    else:
        raise ValueError(noise)
    x1 = e[0]
    x2 = 1.5 * x1 + e[1]
    x3 = 0.8 * x1 - 1.5 * x2 + e[2]
    return center(np.vstack([x1, x2, x3]))


def gauss_solve(a, b):
    """Solve a dense linear system by plain Gauss-Jordan elimination."""
    a = [list(map(float, row)) for row in a]
    b = list(map(float, b))
    k = len(a)
    for col in range(k):
        pivot = max(range(col, k), key=lambda r: abs(a[r][col]))
        if abs(a[pivot][col]) == 0.0:
            raise ZeroDivisionError("singular system")
        a[col], a[pivot] = a[pivot], a[col]
        b[col], b[pivot] = b[pivot], b[col]
        inv = 1.0 / a[col][col]
        a[col] = [v * inv for v in a[col]]
        b[col] *= inv
        for r in range(k):
            if r != col and a[r][col] != 0.0:
                factor = a[r][col]
                a[r] = [rv - factor * cv for rv, cv in zip(a[r], a[col])]
                b[r] -= factor * b[col]
    return b


def brute_force_strict_lower(matrix):
    """All permutations (1-based tuples) that make the matrix strictly lower."""
    arr = np.asarray(matrix, dtype=float)
    p = arr.shape[0]
    found = []
    for perm in itertools.permutations(range(p)):
        idx = list(perm)
        permuted = arr[np.ix_(idx, idx)]
        if not np.any(np.triu(permuted) != 0.0):
            found.append(tuple(i + 1 for i in perm))
    return found


def brute_force_assignment(w):
    """Minimal sum of 1/|w[perm[i], i]| over all row permutations, or None."""
    arr = np.asarray(w, dtype=float)
    p = arr.shape[0]
    best = None
    for perm in itertools.permutations(range(p)):
        diag = arr[list(perm), range(p)]
        if np.any(diag == 0.0):
            continue
        cost = float(np.sum(1.0 / np.abs(diag)))
        if best is None or cost < best:
            best = cost
    return best


def scratch_t_statistic(j, active, values):
    """Literal plain-Python evaluation of the tanh nonlinear-correlation score.

    ``values`` is the p x n matrix, ``j``/``active`` are 1-based.
    """

    def mean(xs):
        return sum(xs) / len(xs)

    def corr(a, b):
        ma, mb = mean(a), mean(b)
        da = [v - ma for v in a]
        db = [v - mb for v in b]
        va = sum(v * v for v in da)
        vb = sum(v * v for v in db)
        if va == 0.0 or vb == 0.0:
            return None
        return sum(x * y for x, y in zip(da, db)) / math.sqrt(va * vb)

    xj = [float(v) for v in values[j - 1]]
    gxj = [math.tanh(v) for v in xj]
    mj = mean(xj)
    var_j = sum((v - mj) ** 2 for v in xj)
    total = 0.0
    for i in sorted(active):
        if i == j:
            continue
        xi = [float(v) for v in values[i - 1]]
        mi = mean(xi)
        cov = sum((a - mj) * (b - mi) for a, b in zip(xj, xi))
        coef = cov / var_j
        resid = [a - coef * b for a, b in zip(xi, xj)]
        c1 = corr([math.tanh(v) for v in resid], xj)
        c2 = corr(resid, gxj)
        total += (abs(c1) if c1 is not None else 0.0) + (abs(c2) if c2 is not None else 0.0)
    return total


def _abs_corr_or_zero(a, b):
    """|Pearson correlation|, or 0.0 when either argument is constant."""
    da = a - a.mean()
    db = b - b.mean()
    va = float(da @ da)
    vb = float(db @ db)
    if va == 0.0 or vb == 0.0:
        return 0.0
    return abs(float(da @ db)) / np.sqrt(va * vb)


def residual(xi, xj):
    """``(coef, xi - coef * xj)`` for ``coef = cov(xi, xj) / var(xj)``: the arithmetic of
    ``core.simple_residual``, kept here so the oracles below do not call the package's."""
    dj = xj - xj.mean()
    var_j = float(dj @ dj)
    if var_j == 0.0:
        raise ZeroVariance("regressor has zero sample variance")
    coef = float(dj @ (xi - xi.mean())) / var_j
    return coef, xi - coef * xj


def loop_t_statistic(j, active, values):
    """The tanh score of ``j`` by a per-pair numpy loop over the other active rows.

    ``values`` is the centered p x n matrix, ``j``/``active`` are 1-based.
    """
    xj = values[j - 1]
    gxj = np.tanh(xj)
    total = 0.0
    for i in sorted(active):
        if i == j:
            continue
        _, resid = residual(values[i - 1], xj)
        total += _abs_corr_or_zero(np.tanh(resid), xj)
        total += _abs_corr_or_zero(resid, gxj)
    return total


def loop_scores(x):
    """``independence._scores`` with one candidate per pass: each candidate's
    residual block is built in one reused ``k x n`` buffer. Same arithmetic,
    so results must match the kernel bit for bit."""
    k, n = x.shape
    xc = x - x.mean(axis=1, keepdims=True)
    gram = _gram(xc)
    var = np.diagonal(gram)
    coef = gram / var
    gx = np.tanh(x)
    gx -= gx.mean(axis=1, keepdims=True)
    cross = xc @ gx.T
    scores = _abs_corr(
        cross - coef * np.diagonal(cross), var[:, None] - coef * gram, np.einsum("ij,ij->i", gx, gx)
    ).sum(axis=0)
    means = xc.mean(axis=1)
    xj_one = np.ones((n, 2))
    gr = gx
    for j in range(k):
        np.multiply(coef[:, j, None], x[j], out=gr)
        np.subtract(x, gr, out=gr)
        np.tanh(gr, out=gr)
        xj_one[:, 0] = xc[j]
        sum_gx, sum_g = (gr @ xj_one).T
        sum_gg = np.einsum("ij,ij->i", gr, gr)
        scores[j] += _abs_corr(sum_gx - sum_g * means[j], sum_gg - sum_g * sum_g / n, var[j]).sum()
    return scores, coef


def loop_pick(profile):
    """The lowest-scoring key by a plain scan in ascending key order, so a tie goes
    to the lowest subscript; a NaN score, else an infinite one, raises the library's
    ``NonFiniteValue``."""
    if any(math.isnan(t) for t in profile.values()):
        raise NonFiniteValue("an independence score is NaN")
    pick = None
    for j in sorted(profile):
        if math.isinf(profile[j]):
            raise NonFiniteValue("an independence score is infinite")
        if pick is None or profile[j] < profile[pick]:
            pick = j
    return pick


def loop_estimate_order(data):
    """DirectLiNGAM as a loop: per step, rebuild a centered Dataset of the
    working rows, refuse it when a product sum of two rows overflows, score each
    candidate pair by pair, take the lowest score and residualize the rest one
    row at a time. Returns ``(order, diagnostics)``."""
    work = np.array(data.values)
    subs = list(range(1, data.p + 1))
    order, diagnostics = [], []
    while len(subs) > 1:
        labels = tuple(data.labels[s - 1] for s in subs)
        try:
            working = center(work, labels=labels)
        except ZeroVarianceRow as exc:
            raise ZeroVarianceRow(
                subs[exc.subscript - 1],
                f"variable {labels[exc.subscript - 1]} became constant after "
                "residualization (exact collinearity)",
            ) from exc
        rows = working.values
        with np.errstate(over="ignore", invalid="ignore"):
            if not all(np.isfinite(float(a @ b)) for a in rows for b in rows):
                raise NonFiniteValue("Gram matrix overflows: the data is too large in magnitude")
        local = range(1, len(subs) + 1)
        profile = {j: loop_t_statistic(j, local, working.values) for j in local}
        pick = loop_pick(profile)
        diagnostics.append({subs[j - 1]: float(t) for j, t in profile.items()})
        order.append(subs[pick - 1])
        root = working.values[pick - 1]
        rest = [r for r in range(len(subs)) if r != pick - 1]
        work = np.vstack([residual(working.values[r], root)[1] for r in rest])
        subs.pop(pick - 1)
    order.extend(subs)
    return CausalOrder(tuple(order)), tuple(diagnostics)


def linear_prune_and_order(b_hat):
    """ICA-LiNGAM's pruning step as a linear scan: zero the ``p(p+1)/2`` smallest
    entries by (|b|, row, column), then one more at a time until a strictly lower
    permutation exists. Returns ``(order, pruned matrix)``."""
    entries = np.array(b_hat.entries)
    p = entries.shape[0]
    ranked = sorted((abs(entries[r, c]), r, c) for r in range(p) for c in range(p))
    head = p * (p + 1) // 2
    for _, r, c in ranked[:head]:
        entries[r, c] = 0.0
    queue = ranked[head:]
    while True:
        order = find_strict_lower_permutation(entries)
        if order is not None:
            return order, ConnectionMatrix(entries)
        _, r, c = queue.pop(0)
        entries[r, c] = 0.0


def analytic_covariance(b, noise_stds):
    """Cov(x) for x = Bx + e, via the mixing-matrix route A diag(s^2) A^T.

    Deliberately a different formula than any incremental recursion a
    generator might use internally.
    """
    b = np.asarray(b, dtype=float)
    s = np.asarray(noise_stds, dtype=float)
    a = np.linalg.inv(np.eye(b.shape[0]) - b)
    return a @ np.diag(s**2) @ a.T
