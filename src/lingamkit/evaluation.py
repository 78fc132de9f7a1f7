"""Order-error and distance metrics, plus the benchmark sweep harness.

A sweep runs every (p, n) cell of a grid for a number of trials. Each
trial generates a fresh synthetic dataset, fits the selected
estimators, and records two metrics against the generating truth:

* order errors: nonzero entries strictly above the diagonal after the
  TRUE strength matrix is permuted by the estimated order (zero means
  the order is consistent with the true graph);
* Frobenius distance between true and estimated strength matrices.

Wall time is captured per fit with a monotonic clock, excluding data
generation, so scaling checks isolate estimator cost. Estimator
failures (e.g. rank-deficient covariance when p > n) are recorded per
trial and never abort the sweep.

Every trial draws its generator and estimator seeds from
``SeedSequence(master_seed, spawn_key=(cell_index, trial_index))``, so
reports are byte-identical whether trials run in-process or on N forked workers.
"""

from __future__ import annotations

import csv
import os
import threading
# ``ThreadPoolExecutor`` stays importable here: perfbench/spans.py swaps it by name.
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor  # noqa: F401
from dataclasses import dataclass, fields
from multiprocessing import get_context
from time import perf_counter, sleep

import numpy as np

from . import direct
from .core import ConnectionMatrix, _as_order, _at_least, _field_dict, _integer, _items, _of, _square, permute_matrix
from .errors import DimensionMismatch, LingamError
from .ica import ica_lingam_fit
from .synth import check_size, generate

ESTIMATORS = ("direct", "ica_baseline")


def order_errors(b_true: ConnectionMatrix, k) -> int:
    """Count true edges that point backwards under the estimated order ``k``."""
    if not isinstance(b_true, ConnectionMatrix):
        b_true = ConnectionMatrix(b_true)
    try:
        k = _as_order(k, b_true.p)
    except LingamError as exc:
        raise DimensionMismatch(str(exc)) from exc
    permuted = permute_matrix(b_true, k)
    return int(np.count_nonzero(np.triu(permuted.entries, k=1)))


def frobenius_distance(b_true, b_hat) -> float:
    """``sqrt(trace((A - B)^T (A - B)))`` between two strength matrices."""
    a, b = _square(b_true), _square(b_hat)
    if a.shape != b.shape:
        raise DimensionMismatch(f"shape {a.shape} vs {b.shape}")
    diff = a - b
    return float(np.sqrt(np.sum(diff * diff)))


@dataclass(frozen=True)
class BenchmarkGrid:
    """Sweep definition. Defaults reproduce the full evaluation protocol
    (4 x 8 cells, 501 trials each); pass smaller lists for smoke runs.
    Every (p, n) must pass ``synth.check_size``, checked before any trial runs."""

    p_values: tuple[int, ...] = (10, 20, 50, 100)
    n_values: tuple[int, ...] = (30, 50, 80, 200, 500, 1000, 2000, 5000)
    trials: int = 501
    estimators: tuple[str, ...] = ESTIMATORS
    master_seed: int = 0

    def __post_init__(self):
        for name in ("p_values", "n_values", "estimators"):
            object.__setattr__(self, name, _items(getattr(self, name), f"{name} must be a list", ValueError))
        for name in ("p_values", "n_values"):
            object.__setattr__(self, name, tuple(_integer(name, v) for v in getattr(self, name)))
        for name, least in (("trials", 1), ("master_seed", 0)):
            object.__setattr__(self, name, _at_least(name, getattr(self, name), least))
        if empty := [n for n in ("p_values", "n_values", "estimators") if not getattr(self, n)]:
            raise ValueError(f"{' and '.join(empty)} must be non-empty")
        unknown = [e for e in self.estimators if e not in ESTIMATORS]
        if unknown:
            raise ValueError(f"unknown estimators {unknown}; choose from {ESTIMATORS}")
        if len(set(self.estimators)) < len(self.estimators):
            raise ValueError(f"estimators must not repeat a name, got {list(self.estimators)}")
        check_size(min(self.p_values), min(self.n_values))


@dataclass(frozen=True)
class TrialResult:
    """One estimator run. Metrics are independent: in the p > n regime
    the direct estimator still yields an order (and an order-error
    count) while strength estimation is impossible, so ``order_errors``
    can be present while ``frobenius`` is None; ``error`` carries the
    failure code whenever any metric is missing."""

    trial: int
    order_errors: int | None
    frobenius: float | None
    seconds: float
    error: str | None = None

    @property
    def failed(self) -> bool:
        return self.error is not None


def box_summary(values) -> dict[str, float] | None:
    """Median, quartiles, and 1.5-IQR whiskers clamped to the observed range."""
    values = np.asarray(list(values), dtype=float)
    if values.size == 0:
        return None
    q1, median, q3 = np.percentile(values, [25, 50, 75])
    iqr = q3 - q1
    return {
        "median": float(median),
        "q1": float(q1),
        "q3": float(q3),
        "whisker_low": float(max(values.min(), q1 - 1.5 * iqr)),
        "whisker_high": float(min(values.max(), q3 + 1.5 * iqr)),
    }


@dataclass(frozen=True)
class CellResult:
    """One (p, n) cell's trials per estimator; summaries and failures are computed from them."""

    p: int
    n: int
    trials: dict[str, tuple[TrialResult, ...]]

    @property
    def summaries(self) -> dict[str, dict[str, dict[str, float] | None]]:
        return {
            name: {
                "order_errors": box_summary(r.order_errors for r in rs if r.order_errors is not None),
                "frobenius": box_summary(r.frobenius for r in rs if r.frobenius is not None),
                "seconds": box_summary(r.seconds for r in rs),
            }
            for name, rs in self.trials.items()
        }

    @property
    def failures(self) -> dict[str, int]:
        return {name: sum(r.failed for r in rs) for name, rs in self.trials.items()}


@dataclass(frozen=True)
class EvaluationReport:
    grid: BenchmarkGrid
    cells: tuple[CellResult, ...]

    def to_dict(self, include_timings: bool = False) -> dict:
        """JSON-ready structure. Wall times are omitted unless requested,
        so that artifacts from identical seeds are byte-identical."""
        cells = []
        for cell in self.cells:
            all_summaries, failures = cell.summaries, cell.failures
            estimators = {}
            for name in self.grid.estimators:
                results = cell.trials[name]
                trials = []
                for r in results:
                    row = _field_dict(r)
                    seconds = row.pop("seconds")  # last, and only on request
                    if include_timings:
                        row["seconds"] = seconds
                    trials.append(row)
                summaries = all_summaries[name]
                if not include_timings:
                    summaries.pop("seconds")
                estimators[name] = {
                    "trials": trials,
                    "failures": failures[name],
                    "summaries": summaries,
                }
            cells.append({"p": cell.p, "n": cell.n, "estimators": estimators})
        return {
            "grid": _field_dict(self.grid),
            "cells": cells,
        }

    def write_csv(self, path, include_timings: bool = False) -> None:
        """One row per (cell, estimator, trial), whose last columns are the fields
        of ``TrialResult``; ``seconds`` is left empty unless requested."""
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)  # writes None as an empty cell, a float by repr
            writer.writerow(["p", "n", "estimator", *(f.name for f in fields(TrialResult))])
            for cell in self.cells:
                for name in self.grid.estimators:
                    for r in cell.trials[name]:
                        row = _field_dict(r)
                        if not include_timings:
                            row["seconds"] = None
                        writer.writerow([cell.p, cell.n, name, *row.values()])

    def summary_table(self) -> str:
        """Plain-text medians per cell and estimator."""
        lines = [f"{'p':>4} {'n':>6} {'estimator':<12} {'med.order.err':>13} {'med.frobenius':>13} {'failures':>8}"]
        for cell in self.cells:
            summaries, failures = cell.summaries, cell.failures
            for name in self.grid.estimators:
                med_oe = summaries[name]["order_errors"]
                med_fr = summaries[name]["frobenius"]
                lines.append(
                    f"{cell.p:>4} {cell.n:>6} {name:<12} "
                    f"{med_oe['median'] if med_oe else float('nan'):>13.2f} "
                    f"{med_fr['median'] if med_fr else float('nan'):>13.4f} "
                    f"{failures[name]:>8}"
                )
        return "\n".join(lines)


def _run_trial(grid: BenchmarkGrid, cell_index: int, p: int, n: int, trial: int):
    data_seq, est_seq = np.random.SeedSequence(
        grid.master_seed, spawn_key=(cell_index, trial)
    ).spawn(2)
    data, truth = generate(p, n, "random-choice", np.random.default_rng(data_seq))
    b_obs = truth.observed_matrix()
    est_seed = int(est_seq.generate_state(1)[0])

    out = {}
    for name in grid.estimators:
        start = perf_counter()
        oe = fr = None
        error = None
        try:
            if name == "direct":
                order, _ = direct.estimate_order(data)
                oe = order_errors(b_obs, order)
                b_hat = direct.estimate_strengths(data, order)
            else:
                baseline = ica_lingam_fit(data, np.random.default_rng(est_seed))
                oe = order_errors(b_obs, baseline.order)
                b_hat = baseline.strengths
            fr = frobenius_distance(b_obs, b_hat)
        except LingamError as exc:
            error = exc.code
        elapsed = perf_counter() - start
        out[name] = TrialResult(
            trial=trial, order_errors=oe, frobenius=fr, seconds=elapsed, error=error
        )
    return out


def _exit_with_parent(parent: int) -> None:
    """Pool initializer: end this worker once ``parent`` is gone. A worker whose
    parent was killed would otherwise wait on the task queue forever."""

    def watch():
        while os.getppid() == parent:
            sleep(0.5)
        os._exit(1)

    threading.Thread(target=watch, daemon=True).start()


def run_benchmark(grid: BenchmarkGrid, threads: int = 1) -> EvaluationReport:
    """Run the sweep; ``threads`` > 1 runs the (cell, trial) tasks on that many
    worker processes forked from the caller (POSIX ``fork``). Results are taken
    in task order, so the report is byte-identical for any worker count."""
    threads = _at_least("threads", threads, 1)
    cell_specs = [(p, n) for p in _of(BenchmarkGrid, "grid", grid).p_values for n in grid.n_values]
    tasks = [(grid, c, p, n, t) for c, (p, n) in enumerate(cell_specs) for t in range(grid.trials)]
    if threads == 1:
        trial_maps = list(map(_run_trial, *zip(*tasks)))
    else:  # fork: workers start before the pool's threads, with numpy already imported
        if "ica_baseline" in grid.estimators:  # and with the ICA baseline's solver
            __import__("scipy.optimize")
        with ProcessPoolExecutor(
            min(threads, len(tasks)), get_context("fork"), _exit_with_parent, (os.getpid(),)
        ) as pool:
            trial_maps = list(pool.map(_run_trial, *zip(*tasks)))
    cells = []
    for c, (p, n) in enumerate(cell_specs):
        cell_maps = trial_maps[c * grid.trials : (c + 1) * grid.trials]
        per_estimator = {name: tuple(tm[name] for tm in cell_maps) for name in grid.estimators}
        cells.append(CellResult(p=p, n=n, trials=per_estimator))
    return EvaluationReport(grid=grid, cells=tuple(cells))
