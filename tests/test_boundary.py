"""Boundary contract: finite data that ``Dataset`` accepts either fits or fails
with a ``LingamError``, at any scale the float range holds, and without a warning;
and every argument of the wrong shape or below its floor fails where it enters."""

import contextlib
import io
import pickle
import re

import numpy as np
import pytest

from lingamkit import (
    BenchmarkGrid,
    CausalOrder,
    ConnectionMatrix,
    Dataset,
    b_from_unmixing,
    bootstrap_cis,
    diagonal_permutation,
    estimate_strengths,
    find_strict_lower_permutation,
    fit,
    generate,
    ica_lingam_fit,
    order_errors,
    random_model,
    run_benchmark,
    sample_non_gaussian,
    t_profile,
    t_statistic,
)
from lingamkit.cli import ModelDocument, main
from lingamkit.errors import DimensionError, DimensionMismatch, InvalidPermutation, LingamError
from lingamkit.synth import check_size

from helpers import CHAIN_B, chain_dataset


def boundary_cases(count, seed):
    """Cubed-normal ``p x n`` matrices, p from 2 to 6 and n from 3 to 59. A third have
    a row that is a multiple of the first, a third a last row that is the sum of the
    rest; then each row, or the whole matrix, is scaled by 10**U(-300, 300)."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        p, n = int(rng.integers(2, 7)), int(rng.integers(3, 60))
        x = rng.standard_normal((p, n)) ** 3
        shape = rng.integers(3)
        if shape == 1:
            x[rng.integers(1, p)] = rng.uniform(-2.0, 2.0) * x[0]
        elif shape == 2:
            x[-1] = x[:-1].sum(axis=0)
        x *= 10.0 ** rng.uniform(-300.0, 300.0, (p, 1) if rng.random() < 0.5 else ())
        yield x


@pytest.mark.filterwarnings("error")
def test_every_stage_returns_or_raises_a_lingam_error():
    # Stages: Dataset, fit, bootstrap_cis under the fitted order (the identity order
    # when the fit failed) and the ICA baseline. Any other exception, a numpy warning
    # included, is a defect; the list names each case and stage that showed one.
    defects = []

    def stage(case, name, call):
        try:
            return call()
        except LingamError:
            return None
        except Exception as exc:
            defects.append((case, name, f"{type(exc).__name__}: {exc}"))
            return None

    for case, x in enumerate(boundary_cases(1000, 12345)):
        data = stage(case, "Dataset", lambda: Dataset(x))
        if data is None:
            continue
        model = stage(case, "fit", lambda: fit(data))
        order = CausalOrder.identity(data.p) if model is None else model.order
        stage(case, "bootstrap_cis", lambda: bootstrap_cis(data, order, np.random.default_rng(case), resamples=100))
        stage(case, "ica_lingam_fit", lambda: ica_lingam_fit(data, np.random.default_rng(case)))
    assert defects == []


def cli_seed(value):
    """``simulate --seed value`` in-process; its one stderr line comes back as a ``ValueError``."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        status = main(["simulate", "--p", "3", "--n", "50", "--out-data", "x.csv", "--out-truth", "t.json",
                       "--seed", str(value)])
    if status:
        raise ValueError(err.getvalue().removeprefix("ValueError: ").rstrip("\n"))


def model_seed(value):
    doc = ModelDocument(labels=("a",), order=(1,), strengths=((0.0,),), diagnostics=(),
                        estimator="direct", seed=0, version="0.1.0").to_dict()
    return ModelDocument.from_dict({**doc, "seed": value})


GRID = {"p_values": [2], "n_values": [10], "trials": 1, "estimators": ["direct"]}
DATA = chain_dataset(50, np.random.default_rng(0))

# Entry point: (field, floor, call). Every whole-number argument is read by one rule.
WHOLE_NUMBER_ARGUMENTS = {
    "--seed": ("--seed", 0, cli_seed),
    "model-seed": ("seed", 0, model_seed),
    "master_seed": ("master_seed", 0, lambda v: BenchmarkGrid(**{**GRID, "master_seed": v})),
    "trials": ("trials", 1, lambda v: BenchmarkGrid(**{**GRID, "trials": v})),
    "threads": ("threads", 1, lambda v: run_benchmark(BenchmarkGrid(**GRID), threads=v).to_dict()),
    "resamples": ("resamples", 100, lambda v: bootstrap_cis(DATA, (1, 2, 3), np.random.default_rng(0), resamples=v)),
    "check_size-p": ("p", 1, lambda v: check_size(v, 2)),
    "check_size-n": ("n", 2, lambda v: check_size(1, v)),
    "generate-p": ("p", 1, lambda v: generate(v, 20, "dense", np.random.default_rng(5))),
    "generate-n": ("n", 2, lambda v: generate(4, v, "dense", np.random.default_rng(5))),
    "random_model": ("p", 1, lambda v: random_model(v, "sparse", np.random.default_rng(5))),
    "sample_non_gaussian": ("n", 2, lambda v: sample_non_gaussian(v, 1.5, np.random.default_rng(5))),
}


@pytest.mark.parametrize("entry", WHOLE_NUMBER_ARGUMENTS)
def test_whole_number_arguments_follow_one_floor_rule(entry, tmp_path, monkeypatch):
    # A whole float reads as its int, to the bit; anything else that is not a whole
    # number, and a whole number below the floor, raises a ValueError naming the field.
    # argparse reads --seed as an int, so only its floor reaches the rule.
    field, least, call = WHOLE_NUMBER_ARGUMENTS[entry]
    monkeypatch.chdir(tmp_path)
    refused = [(least - 1, f"{field} must be at least {least}, got {least - 1}")]
    if entry != "--seed":
        expected = pickle.dumps(call(least + 3))
        assert pickle.dumps(call(float(least + 3))) == expected
        assert pickle.dumps(call(np.float64(least + 3))) == expected
        refused += [(bad, f"{field} must be an integer, got {bad!r}") for bad in (2.5, "3", True)]
    for bad, message in refused:
        with pytest.raises(ValueError, match=f"{re.escape(message)}$"):
            call(bad)
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("shape", [(2, 3), (3, 2), (3,), (2, 2, 2)])
@pytest.mark.parametrize(
    "call", [ConnectionMatrix, find_strict_lower_permutation, diagonal_permutation, b_from_unmixing],
    ids=["ConnectionMatrix", "find_strict_lower_permutation", "diagonal_permutation", "b_from_unmixing"],
)
def test_square_matrix_arguments_refuse_other_shapes(call, shape):
    message = re.escape(f"expected a square matrix, got shape {shape}")
    with pytest.raises(DimensionError, match=f"^{message}$"):
        call(np.ones(shape))


@pytest.mark.parametrize(
    "call, error, sequence",
    [
        (lambda: CausalOrder(5), InvalidPermutation, "an order"),
        (lambda: estimate_strengths(DATA, 5), InvalidPermutation, "an order"),
        (lambda: order_errors(CHAIN_B, 5), DimensionMismatch, "an order"),
        (lambda: t_profile(5, DATA), DimensionError, "an active set"),
        (lambda: t_statistic(1, 5, DATA), DimensionError, "an active set"),
    ],
    ids=["CausalOrder", "estimate_strengths", "order_errors", "t_profile", "t_statistic"],
)
def test_a_number_where_a_sequence_belongs_raises_the_rule_class(call, error, sequence):
    # Each raises the class of its other faults; a TypeError escaped before.
    with pytest.raises(error, match=f"^{sequence} must be a sequence of subscripts, got 5$"):
        call()
