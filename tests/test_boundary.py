"""Boundary contract: finite data that ``Dataset`` accepts either fits or fails
with a ``LingamError``, at any scale the float range holds, and without a warning;
and every argument of the wrong type, shape or value, or below its floor, fails where
it enters with a ``TypeError`` naming it, a ``ValueError`` or the rule's ``LingamError``."""

import contextlib
import inspect
import io
import pickle
import re

import numpy as np
import pytest

import lingamkit
from lingamkit import (
    BaselineModel,
    BenchmarkGrid,
    BootstrapReport,
    CausalOrder,
    ConnectionMatrix,
    Dataset,
    EdgeInterval,
    EvaluationReport,
    FittedModel,
    GroundTruthModel,
    b_from_unmixing,
    bootstrap_cis,
    center,
    diagonal_permutation,
    estimate_order,
    estimate_strengths,
    fastica,
    find_most_independent,
    find_strict_lower_permutation,
    fit,
    frobenius_distance,
    generate,
    ica_lingam_fit,
    multi_least_squares,
    order_errors,
    permute_matrix,
    prune_and_order,
    random_model,
    run_benchmark,
    sample_non_gaussian,
    simple_residual,
    t_profile,
    t_statistic,
)
from lingamkit.cli import ModelDocument, main
from lingamkit.errors import (
    DimensionError,
    DimensionMismatch,
    InvalidPermutation,
    LingamError,
    NotInActiveSet,
)
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
    "identity": ("p", 1, CausalOrder.identity),
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
    "call",
    [ConnectionMatrix, find_strict_lower_permutation, diagonal_permutation, b_from_unmixing,
     lambda m: frobenius_distance(m, m)],
    ids=["ConnectionMatrix", "find_strict_lower_permutation", "diagonal_permutation", "b_from_unmixing",
         "frobenius_distance"],
)
def test_square_matrix_arguments_refuse_other_shapes(call, shape):
    message = re.escape(f"expected a square matrix, got shape {shape}")
    with pytest.raises(DimensionError, match=f"^{message}$"):
        call(np.ones(shape))


# One of each kind of wrong argument: a string, None, a bool, NaN, an infinity, a negative
# number, a 0-d array, a 3-d array, a dict and a ragged list.
BAD_VALUES = {
    "str": "x",
    "None": None,
    "True": True,
    "nan": np.nan,
    "inf": np.inf,
    "-1": -1,
    "0-d": np.array(1.0),
    "3-d": np.ones((2, 2, 2)),
    "dict": {"a": 1},
    "ragged": [[1.0, 2.0], [3.0]],
}

# A matrix argument's rule: numpy refuses what it cannot read as floats with a ValueError
# (or, for a dict, its own TypeError), and the shape rule raises a DimensionError.
MATRIX = (DimensionError, ValueError, TypeError)
RNG = np.random.default_rng(0)
W = np.array([[2.0, 0.0, 0.5], [1.0, 4.0, 0.0], [0.0, 0.3, 1.0]])
SQUARE = np.zeros((3, 3))

# Export: (callable, {argument: (a value it accepts, the class a wrong one raises)}). Each
# call replaces one argument of a call that succeeds. Result types are built by the package
# from values it has already read, so their rows name no argument.
CONTRACT = {
    "BaselineModel": (BaselineModel, {}),
    "BenchmarkGrid": (BenchmarkGrid, {
        "p_values": ([2], ValueError), "n_values": ([10], ValueError), "trials": (1, ValueError),
        "estimators": (["direct"], ValueError), "master_seed": (0, ValueError)}),
    "BootstrapReport": (BootstrapReport, {}),
    "CausalOrder": (CausalOrder, {"order": ((2, 1, 3), InvalidPermutation)}),
    "ConnectionMatrix": (ConnectionMatrix, {"entries": (CHAIN_B.entries, MATRIX)}),
    "Dataset": (Dataset, {"values": (DATA.values, MATRIX), "labels": (("a", "b", "c"), DimensionError)}),
    "EdgeInterval": (EdgeInterval, {}),
    "EvaluationReport": (EvaluationReport, {}),
    "FittedModel": (FittedModel, {}),
    "GroundTruthModel": (GroundTruthModel, {}),
    "b_from_unmixing": (b_from_unmixing, {"w_tilde": (W, MATRIX)}),
    "bootstrap_cis": (bootstrap_cis, {
        "data": (DATA, TypeError), "order": ((1, 2, 3), InvalidPermutation), "rng": (RNG, TypeError),
        "level": (0.9, ValueError), "resamples": (100, ValueError)}),
    "center": (center, {"values": (DATA.values, MATRIX), "labels": (("a", "b", "c"), DimensionError)}),
    "diagonal_permutation": (diagonal_permutation, {"w": (W, MATRIX)}),
    "estimate_order": (estimate_order, {"data": (DATA, TypeError)}),
    "estimate_strengths": (estimate_strengths, {
        "data": (DATA, TypeError), "order": ((1, 2, 3), InvalidPermutation)}),
    "fastica": (fastica, {"data": (DATA, TypeError), "rng": (RNG, TypeError)}),
    "find_most_independent": (find_most_independent, {
        "active": ((1, 2), DimensionError), "data": (DATA, TypeError)}),
    "find_strict_lower_permutation": (find_strict_lower_permutation, {"b": (CHAIN_B.entries, MATRIX)}),
    "fit": (fit, {"data": (DATA, TypeError)}),
    "frobenius_distance": (frobenius_distance, {"b_true": (CHAIN_B, MATRIX), "b_hat": (SQUARE, MATRIX)}),
    "generate": (generate, {
        "p": (3, ValueError), "n": (20, ValueError), "network": ("dense", ValueError), "rng": (RNG, TypeError)}),
    "ica_lingam_fit": (ica_lingam_fit, {"data": (DATA, TypeError), "rng": (RNG, TypeError)}),
    "multi_least_squares": (multi_least_squares, {
        "y": (DATA.values[2], MATRIX), "predictors": (DATA.values[:2], MATRIX)}),
    "order_errors": (order_errors, {"b_true": (CHAIN_B, MATRIX), "k": ((1, 2, 3), DimensionMismatch)}),
    "permute_matrix": (permute_matrix, {"b": (CHAIN_B, TypeError), "perm": ((3, 1, 2), InvalidPermutation)}),
    "prune_and_order": (prune_and_order, {"b_hat": (CHAIN_B, TypeError)}),
    "random_model": (random_model, {"p": (3, ValueError), "network": ("sparse", ValueError), "rng": (RNG, TypeError)}),
    "run_benchmark": (run_benchmark, {"grid": (BenchmarkGrid(**GRID), TypeError), "threads": (1, ValueError)}),
    "sample_non_gaussian": (sample_non_gaussian, {"n": (20, ValueError), "q": (1.5, ValueError), "rng": (RNG, TypeError)}),
    "simple_residual": (simple_residual, {"xi": (DATA.values[1], MATRIX), "xj": (DATA.values[0], MATRIX)}),
    "t_profile": (t_profile, {"active": ((1, 2, 3), DimensionError), "data": (DATA, TypeError)}),
    "t_statistic": (t_statistic, {
        "j": (1, NotInActiveSet), "active": ((1, 2), DimensionError), "data": (DATA, TypeError)}),
}


def test_the_contract_has_one_row_per_export():
    assert set(CONTRACT) == set(lingamkit.__all__)


@pytest.mark.parametrize("export", [name for name, (_, arguments) in CONTRACT.items() if arguments])
def test_a_wrong_argument_raises_its_rule_class_where_it_enters(export):
    # Each argument in turn takes each bad value, except a value that is its default. The
    # call must raise the argument's rule class, and a TypeError must name the argument;
    # the one exception is numpy's own for a dict where a matrix belongs, which already
    # has the rule's class. The list names each argument, value and what it raised.
    call, arguments = CONTRACT[export]
    good = {name: value for name, (value, _) in arguments.items()}
    call(**good)
    defects = []
    for name, (_, rule) in arguments.items():
        default = inspect.signature(call).parameters[name].default
        for label, bad in BAD_VALUES.items():
            if bad is default:
                continue
            try:
                call(**{**good, name: bad})
            except Exception as exc:
                text = str(exc)
                named = (not isinstance(exc, TypeError) or text.startswith(f"{name} must be a ")
                         or rule is MATRIX and text.startswith("float() argument"))
                if not isinstance(exc, rule) or not named:
                    defects.append((name, label, f"{type(exc).__name__}: {text}"))
            else:
                defects.append((name, label, "returned"))
    assert defects == []
