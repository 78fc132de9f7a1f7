"""Boundary contract: finite data that ``Dataset`` accepts either fits or fails
with a ``LingamError``, at any scale the float range holds, and without a warning;
and every argument of the wrong type, shape or value, or below its floor, fails where
it enters with a ``TypeError`` naming it, a ``ValueError`` or the rule's ``LingamError``."""

import contextlib
import inspect
import io
import pickle
import re
from fractions import Fraction

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
    NonFiniteValue,
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
    "EdgeInterval-i": ("i", 1, lambda v: EdgeInterval(i=v, j=1, point=0.5, lower=0.1, upper=0.9)),
    "EdgeInterval-j": ("j", 1, lambda v: EdgeInterval(i=2, j=v, point=0.5, lower=0.1, upper=0.9)),
}


@pytest.mark.parametrize("entry", WHOLE_NUMBER_ARGUMENTS)
def test_whole_number_arguments_follow_one_floor_rule(entry, tmp_path, monkeypatch):
    # A whole float or Fraction reads as its int, to the bit; anything else that is not a
    # whole number, and a whole number below the floor, raises a ValueError naming the field.
    # A Fraction is read exactly, so one past the float range meets the rule, not an
    # OverflowError. argparse reads --seed as an int, so only its floor reaches the rule.
    field, least, call = WHOLE_NUMBER_ARGUMENTS[entry]
    monkeypatch.chdir(tmp_path)
    refused = [(least - 1, f"{field} must be at least {least}, got {least - 1}")]
    if entry != "--seed":
        expected = pickle.dumps(call(least + 3))
        for whole in (float(least + 3), np.float64(least + 3), Fraction(2 * least + 6, 2)):
            assert pickle.dumps(call(whole)) == expected
        refused += [(bad, f"{field} must be an integer, got {bad!r}") for bad in (2.5, "3", True, Fraction(10**400, 3))]
        # A whole number this large is read as its int, which is below the floor. Calls with
        # Fraction(10**400, 1) itself would ask some entries for that many rows or threads.
        refused.append((Fraction(-(10**400), 1), f"{field} must be at least {least}, got {-(10**400)}"))
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
# number, a 0-d array, a 3-d array, a dict, a ragged list, an array of names, and a matrix
# of digit strings and one of bools, both of which numpy would read as numbers.
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
    "names": np.array(["direct", "dense"]),
    "digits": [["0", "1", "2"], ["3", "0", "4"], ["5", "6", "0"]],
    "bools": np.array([[False, True, True], [True, False, True], [True, True, False]]),
    "nan-entry": np.array([[0.0, np.nan, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]]),
    "inf-entry": np.array([[0.0, 0.0, 0.0], [np.inf, 0.0, 0.0], [0.0, 0.0, 0.0]]),
}

# A matrix argument's rule: an entry that is not a real number raises a ValueError, a NaN or
# infinite entry a NonFiniteValue, and the shape rule raises a DimensionError.
MATRIX = (DimensionError, ValueError, NonFiniteValue)
# A name argument's rule: a ValueError whose message begins "<argument> must be ".
NAME = (ValueError,)
RNG = np.random.default_rng(0)
W = np.array([[2.0, 0.0, 0.5], [1.0, 4.0, 0.0], [0.0, 0.3, 1.0]])
SQUARE = np.zeros((3, 3))

MODEL = fit(DATA)

# Export: (callable, {argument: (a value it accepts, the class a wrong one raises)}). Each
# call replaces one argument of a call that succeeds. A result type's row names the fields
# its own checks read, and its callable fixes the others; result types without a check are
# built by the package from values it has already read, so their rows name no argument.
# An interval's lower bound and point estimate have no row: every real number, -1 too, is
# one. test_bootstrap holds their finite-number rule.
CONTRACT = {
    # ``converged``'s default is the "True" bad value, which the test then skips for it.
    "BaselineModel": (
        lambda order, strengths, pruned, converged=True: BaselineModel(order, strengths, pruned, converged), {
        "order": (CausalOrder((1, 2, 3)), TypeError), "strengths": (CHAIN_B, TypeError),
        "pruned": (CHAIN_B, TypeError), "converged": (True, TypeError)}),
    "BenchmarkGrid": (BenchmarkGrid, {
        "p_values": ([2], ValueError), "n_values": ([10], ValueError), "trials": (1, ValueError),
        "estimators": (["direct"], NAME), "master_seed": (0, ValueError)}),
    "BootstrapReport": (BootstrapReport, {}),
    "CausalOrder": (CausalOrder, {"order": ((2, 1, 3), InvalidPermutation)}),
    "ConnectionMatrix": (ConnectionMatrix, {"entries": (CHAIN_B.entries, MATRIX)}),
    "Dataset": (Dataset, {"values": (DATA.values, MATRIX), "labels": (("a", "b", "c"), DimensionError)}),
    "EdgeInterval": (lambda i, j, upper: EdgeInterval(i=i, j=j, point=0.5, lower=0.1, upper=upper), {
        "i": (2, ValueError), "j": (1, ValueError), "upper": (0.9, ValueError)}),
    "EvaluationReport": (EvaluationReport, {}),
    "FittedModel": (FittedModel, {
        "order": (MODEL.order, TypeError), "strengths": (MODEL.strengths, TypeError),
        "diagnostics": (MODEL.diagnostics, ValueError)}),
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
        "p": (3, ValueError), "n": (20, ValueError), "network": ("dense", NAME), "rng": (RNG, TypeError)}),
    "ica_lingam_fit": (ica_lingam_fit, {"data": (DATA, TypeError), "rng": (RNG, TypeError)}),
    "multi_least_squares": (multi_least_squares, {
        "y": (DATA.values[2], MATRIX), "predictors": (DATA.values[:2], MATRIX)}),
    "order_errors": (order_errors, {"b_true": (CHAIN_B, MATRIX), "k": ((1, 2, 3), DimensionMismatch)}),
    "permute_matrix": (permute_matrix, {"b": (CHAIN_B, TypeError), "perm": ((3, 1, 2), InvalidPermutation)}),
    "prune_and_order": (prune_and_order, {"b_hat": (CHAIN_B, TypeError)}),
    "random_model": (random_model, {"p": (3, ValueError), "network": ("sparse", NAME), "rng": (RNG, TypeError)}),
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
    # call must raise the argument's rule class, and a TypeError, or a name argument's
    # ValueError, must name the argument. The list names each argument, value and what it
    # raised.
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
                named = (text.startswith(f"{name} must be ") if rule is NAME
                         else not isinstance(exc, TypeError) or text.startswith(f"{name} must be a "))
                if not isinstance(exc, rule) or not named:
                    defects.append((name, label, f"{type(exc).__name__}: {text}"))
            else:
                defects.append((name, label, "returned"))
    assert defects == []


def with_huge_entry(value):
    """``value`` (a ``ConnectionMatrix`` by its entries) as an object array whose first entry
    is an int past the float range."""
    entries = np.array(getattr(value, "entries", value), dtype=object)
    entries.flat[0] = 10**400
    return entries


MATRIX_ARGUMENTS = [
    (export, name) for export, (_, arguments) in CONTRACT.items() for name, (_, rule) in arguments.items()
    if rule is MATRIX
]
PAST_THE_FLOAT_RANGE = MATRIX_ARGUMENTS + [
    ("bootstrap_cis", "level"), ("EdgeInterval", "upper"), ("sample_non_gaussian", "q")]


@pytest.mark.parametrize("export, name", PAST_THE_FLOAT_RANGE, ids=[f"{e}-{n}" for e, n in PAST_THE_FLOAT_RANGE])
def test_a_number_past_the_float_range_raises_a_value_error(export, name):
    # 10**400 is an int no float holds; numpy and float() raise OverflowError for it. A
    # matrix argument takes it alone and as one entry, a real-number argument alone.
    call, arguments = CONTRACT[export]
    good = {key: value for key, (value, _) in arguments.items()}
    bad_values = [10**400, with_huge_entry(good[name])] if arguments[name][1] is MATRIX else [10**400]
    for bad in bad_values:
        with pytest.raises(ValueError):
            call(**{**good, name: bad})


@pytest.mark.parametrize("export, name", MATRIX_ARGUMENTS, ids=[f"{e}-{n}" for e, n in MATRIX_ARGUMENTS])
def test_a_complex_matrix_raises_a_value_error(export, name):
    # The accepted matrix as complex numbers: numpy would drop the imaginary parts, warning
    # only with a ComplexWarning, and go on with the real parts.
    call, arguments = CONTRACT[export]
    good = {key: value for key, (value, _) in arguments.items()}
    bad = np.asarray(getattr(good[name], "entries", good[name])).astype(complex)
    with pytest.raises(ValueError, match="^a matrix entry must be a real number, got a complex128$"):
        call(**{**good, name: bad})
