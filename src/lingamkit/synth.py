"""Synthetic data generation for benchmark runs.

Each trial builds a random strictly lower triangular strength matrix
(dense or sparse), rescales every row so that the standard deviation of
the summed parent contribution lands uniformly in ``PARENT_STD_RANGE``
(computed analytically from the covariances fixed so far, not by
rejection), draws non-Gaussian external influences by power-transforming
standard Gaussians, propagates the structural equations in causal
order, and finally hides the order behind a uniform random row
permutation which is recorded as ground truth.

All randomness flows through a single ``numpy.random.Generator``
(PCG64). A fixed seed reproduces every byte of a run; independent
streams for parallel trials should be derived with
``numpy.random.SeedSequence(master, spawn_key=...)``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .core import CausalOrder, ConnectionMatrix, Dataset, _at_least, _of, _real, permute_matrix

NETWORKS = ("dense", "sparse", "random-choice")

# The generation protocol. ``Q_RANGES`` holds the two exponent intervals for the
# ``sign(z)|z|^q`` noise transform, one sub-Gaussian and one super-Gaussian; each
# draw picks one with equal probability. ``WEIGHT_FLOOR`` excludes provisional
# edge weights below that magnitude, keeping models away from unfaithful
# parameter cancellations.
PARENT_STD_RANGE = (0.5, 1.5)
NOISE_STD_RANGE = (0.5, 1.5)
Q_RANGES = ((0.5, 0.8), (1.2, 2.0))
WEIGHT_FLOOR = 0.1


def check_size(p: int, n: int) -> tuple[int, int]:
    """The shape rule of ``generate``: p and n as whole numbers of at least 1 and 2."""
    return _at_least("p", p, 1), _at_least("n", n, 2)


@dataclass(frozen=True)
class GroundTruthModel:
    """The generating model for one synthetic dataset.

    ``b_true`` is strictly lower triangular in the pre-permutation
    variable numbering; ``shuffle`` maps emitted row ``i`` to
    pre-permutation variable ``shuffle[i]``.
    """

    b_true: ConnectionMatrix
    noise_stds: tuple[float, ...]
    exponents: tuple[float, ...]
    shuffle: CausalOrder

    def observed_matrix(self) -> ConnectionMatrix:
        """Strength matrix in the coordinates of the emitted dataset rows."""
        return permute_matrix(self.b_true, self.shuffle)

    def observed_order(self) -> CausalOrder:
        """A true causal order of the emitted rows (emitted subscripts, cause first)."""
        return self.shuffle.inverse()


def _lower_mask(p: int, network: str, rng: np.random.Generator) -> np.ndarray:
    mask = np.zeros((p, p), dtype=bool)
    if p == 1:
        return mask
    rows, cols = np.tril_indices(p, k=-1)
    if network == "random-choice":
        network = "dense" if rng.random() < 0.5 else "sparse"
    if network == "dense":
        mask[rows, cols] = True
        return mask
    while True:
        keep = rng.random(rows.size) < 0.5
        if keep.any():
            mask[rows[keep], cols[keep]] = True
            return mask


def random_model(p: int, network: str, rng: np.random.Generator) -> GroundTruthModel:
    """Draw a ground-truth model (no data yet; shuffle starts as identity).

    Row rescaling uses the exact covariance recursion: when row ``i``
    is scaled so its parent contribution hits a target standard
    deviation, the covariances of ``x_i`` with earlier variables are
    updated analytically before the next row is processed.
    """
    p = _at_least("p", p, 1)
    if network not in NETWORKS:
        raise ValueError(f"network must be one of {NETWORKS}")
    mask = _lower_mask(p, network, _of(np.random.Generator, "rng", rng))

    b = np.zeros((p, p))
    n_edges = int(mask.sum())
    signs = rng.integers(0, 2, size=n_edges) * 2 - 1
    mags = rng.uniform(WEIGHT_FLOOR, 1.0, size=n_edges)
    b[mask] = signs * mags

    noise_stds = rng.uniform(*NOISE_STD_RANGE, size=p)

    cov = np.zeros((p, p))
    for i in range(p):
        row = b[i, :i]
        if row.any():
            contrib_var = float(row @ cov[:i, :i] @ row)
            target = rng.uniform(*PARENT_STD_RANGE)
            b[i, :i] = row * (target / np.sqrt(contrib_var))
        cross = cov[:i, :i] @ b[i, :i]
        cov[i, :i] = cross
        cov[:i, i] = cross
        cov[i, i] = float(b[i, :i] @ cross) + noise_stds[i] ** 2

    choices = rng.integers(0, 2, size=p)
    exponents = np.array([rng.uniform(*Q_RANGES[c]) for c in choices])

    return GroundTruthModel(
        b_true=ConnectionMatrix(b),
        noise_stds=tuple(float(s) for s in noise_stds),
        exponents=tuple(float(q) for q in exponents),
        shuffle=CausalOrder.identity(p),
    )


def sample_non_gaussian(n: int, q: float, rng: np.random.Generator) -> np.ndarray:
    """Draw ``sign(z)|z|^q`` from standard Gaussian ``z``, standardized.

    ``q < 1`` yields sub-Gaussian samples (negative excess kurtosis),
    ``q > 1`` super-Gaussian; the result has sample mean 0 and sample
    variance 1 under the 1/n convention.
    """
    q = _real(q, "exponent q must be positive", 0.0)
    n = _at_least("n", n, 2)
    z = _of(np.random.Generator, "rng", rng).standard_normal(n)
    e = np.sign(z) * np.abs(z) ** q
    e -= e.mean()
    return e / np.sqrt(e @ e / n)


def generate(
    p: int, n: int, network: str, rng: np.random.Generator
) -> tuple[Dataset, GroundTruthModel]:
    """Sample one dataset: draw a model, propagate it, shuffle rows, center.

    The emitted row order is uniformly random; the applied permutation
    is recorded in the returned model's ``shuffle`` so metrics can be
    computed in emitted coordinates via ``observed_matrix()``.
    """
    p, n = check_size(p, n)
    model = random_model(p, network, rng)
    b = model.b_true.entries

    x = np.empty((p, n))
    for i in range(p):
        x[i] = model.noise_stds[i] * sample_non_gaussian(n, model.exponents[i], rng) + b[i, :i] @ x[:i]

    perm = rng.permutation(p)
    x = x[perm]  # frees the unshuffled rows before Dataset makes its copy
    return Dataset(x), replace(model, shuffle=CausalOrder(tuple(int(s) + 1 for s in perm)))
