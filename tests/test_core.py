import re
from fractions import Fraction

import numpy as np
import pytest

from lingamkit import (
    CausalOrder,
    ConnectionMatrix,
    Dataset,
    center,
    find_strict_lower_permutation,
    multi_least_squares,
    permute_matrix,
    simple_residual,
)
from lingamkit.core import _center_rows, _subscripts, default_labels
from lingamkit.errors import (
    DimensionError,
    InvalidPermutation,
    NonFiniteValue,
    SingularDesign,
    TooFewObservations,
    ZeroVariance,
    ZeroVarianceRow,
)

from helpers import CHAIN_B, brute_force_strict_lower, gauss_solve


class TestCenter:
    def test_subtracts_row_mean(self):
        ds = center([[1.0, 2.0, 3.0]])
        assert ds.values.tolist() == [[-1.0, 0.0, 1.0]]

    def test_already_centered_row_is_untouched_bitwise(self):
        first = center([[1.0, 2.0, 3.0], [-5.0, 0.0, 5.0]])
        second = center(first.values)
        assert np.array_equal(first.values, second.values)

    def test_constant_row_rejected(self):
        with pytest.raises(ZeroVarianceRow) as err:
            center([[1.0, 2.0, 3.0], [5.0, 5.0, 5.0]])
        assert err.value.subscript == 2

    def test_single_observation_rejected(self):
        with pytest.raises(DimensionError):
            center([[1.0]])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rejected(self, bad):
        raw = [[1.0, 2.0, 3.0], [1.0, bad, 3.0]]
        with pytest.raises(NonFiniteValue, match=r"^entry \(2, 2\) is "):
            center(raw)
        with pytest.raises(NonFiniteValue):
            Dataset(np.array(raw), ("a", "b"))

    def test_large_offsets_center_once_and_stay_put(self):
        # Rows with a mean large against their spread used to keep a rounding
        # residue above CENTERED_TOL and fail center()'s own Dataset check.
        for seed in range(300):
            rng = np.random.default_rng(seed)
            n = int(rng.integers(10, 501))
            scale = 10.0 ** rng.uniform(-5, 4, size=(3, 1))
            raw = rng.standard_normal((3, n)) * scale + rng.uniform(-2, 2, size=(3, 1))
            first = center(raw)
            assert np.array_equal(center(first.values).values, first.values), seed

    def test_labels_preserved(self):
        ds = center([[1.0, 3.0]], labels=("height",))
        assert ds.labels == ("height",)

    def test_default_labels(self):
        ds = center(np.arange(6.0).reshape(2, 3))
        assert ds.labels == ("x1", "x2")

    def test_center_is_the_dataset_constructor(self):
        assert center is Dataset
        assert Dataset(np.arange(6.0).reshape(2, 3)).labels == ("x1", "x2")


class TestCenterRows:
    def test_constant_mask_at_large_offsets_and_adjacent_floats(self):
        n = 1001
        rows = [np.full(n, 1e15), np.full(n, -3.7e300), np.full(n, 0.1), np.full(n, 5e-324)]
        for v in (1e15, -3.7e300, 0.1, 5e-324, 1.0):
            rows.append(np.resize([v, np.nextafter(v, np.inf)], n))
        x = np.array(rows)
        mask = _center_rows(x)
        assert mask.tolist() == [True] * 4 + [False] * 5
        assert np.array_equal(x.max(axis=1) == x.min(axis=1), mask)

    def test_one_off_centre_row_leaves_the_others_bit_for_bit(self):
        x = np.array([[-0.0, 1.0, -1.0, 0.0], [1.0, -1.0, 1e-14, -0.0], [1.0, 2.0, 3.0, 5.0]])
        kept = x[:2].copy()
        assert not _center_rows(x).any()
        assert x[:2].tobytes() == kept.tobytes()
        assert x[2].tolist() == [-1.75, -0.75, 0.25, 2.25]


class TestDataset:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_first_non_finite_entry_is_named(self, bad):
        x = np.random.default_rng(0).standard_normal((4, 1000))
        x[2, 997] = bad
        x[3, 5] = np.nan
        with pytest.raises(NonFiniteValue) as err:
            Dataset(x)
        assert str(err.value) == f"entry (3, 998) is {bad}"

    def test_values_are_read_only(self):
        ds = center([[1.0, 2.0, 3.0]])
        with pytest.raises(ValueError):
            ds.values[0, 0] = 9.0

    def test_centers_a_copy_like_center(self):
        # Every Dataset is centered: construction centers its own C-ordered copy,
        # so the input's layout changes no bit and the caller's array is kept.
        raw = np.random.default_rng(1).standard_normal((6, 3000)) ** 3 + np.arange(1.0, 7.0)[:, None]
        expected = center(raw).values
        assert np.abs(expected.mean(axis=1)).max() < 1e-15
        for layout in (np.ascontiguousarray, np.asfortranarray):
            given = layout(raw)
            kept = given.copy()
            assert np.array_equal(Dataset(given, default_labels(6)).values, expected)
            assert np.array_equal(center(given).values, expected)
            assert np.array_equal(given, kept)

    @pytest.mark.parametrize(
        "raw, labels, error, message",
        [
            (1.0, (), DimensionError, "expected a 2-D matrix, got 0-D"),
            ([1.0, 2.0, 3.0], ("x1",), DimensionError, "expected a 2-D matrix, got 1-D"),
            (np.empty((0, 1)), (), DimensionError, "need at least one variable"),
            ([[1.0, 2.0], [np.nan, 1.0]], ("x1", "x2"), NonFiniteValue, "entry (2, 1) is nan"),
            ([[1.0, 2.0, 3.0], [5.0, 5.0, 5.0]], ("x1", "x2"), ZeroVarianceRow,
             "variable x2 has zero sample variance"),
            ([[1.7e308, 1.7e308, -1.7e308]], ("x1",), NonFiniteValue, "row 1 overflows when centered"),
        ],
        ids=["0-D", "1-D", "0x1", "nan", "constant-row", "overflow"],
    )
    def test_bad_input_fails_alike_through_dataset_and_center(self, raw, labels, error, message):
        for build in (lambda: Dataset(np.asarray(raw), labels), lambda: center(raw)):
            with pytest.raises(error) as err:
                build()
            assert str(err.value) == message

    def test_entries_must_be_real_numbers(self):
        # An entry of any real type reads as its float, a Fraction exactly rounded; a bool, a
        # string or a complex value, each of which numpy would read as a number, is refused.
        reals = np.array([[Fraction(1, 3), 2, np.float64(3.5)], [np.int64(1), 2.0, 7]], dtype=object)
        assert Dataset(reals).values.tolist() == Dataset([[1 / 3, 2.0, 3.5], [1.0, 2.0, 7.0]]).values.tolist()
        refused = [
            ([["1", "2", "3"], ["4", "5", "7"]], "str"),
            ([[True, False, True], [1.0, 2.0, 4.0]], "bool"),
            (np.array([[1.0, "2", 3.0], [4.0, 5.0, 7.0]], dtype=object), "str"),
            ([[1.0, 2.0, 3.0], [4.0, 5.0, 7 + 0j]], "complex"),
            ([[1.0, None, 3.0], [4.0, 5.0, 7.0]], "NoneType"),
            (np.array([[True, False], [False, True]]), "bool"),
            (np.array([[1.0, 2.0], [3.0, 5.0]], dtype=complex), "complex128"),
            (np.array([["1", "2"], ["3", "5"]]), "str_"),
        ]
        for raw, kind in refused:
            with pytest.raises(ValueError, match=f"^a matrix entry must be a real number, got a {kind}$"):
                Dataset(raw)

    def test_label_count_must_match_the_rows(self):
        with pytest.raises(DimensionError) as err:
            Dataset([[1.0, 2.0], [3.0, 5.0]], ("x1",))
        assert str(err.value) == "1 labels for 2 rows"

    @pytest.mark.parametrize(
        "labels, bad",
        [(("a", "b", "a"), ["a"]), (("a", "", "c"), [""]), (("b", "", "b", ""), ["b", ""])],
    )
    def test_labels_must_be_distinct_and_non_empty(self, labels, bad):
        with pytest.raises(DimensionError) as err:
            Dataset(np.arange(2.0 * len(labels)).reshape(-1, 2), labels)
        assert str(err.value) == f"labels must be distinct and non-empty, got {bad}"

    @pytest.mark.parametrize(
        "labels", ["ab", [1, 2.5], ("a", b"b"), ["a", None], 5, {"a": 1, "b": 2}],
        ids=["str", "numbers", "bytes", "none", "int", "mapping"],
    )
    def test_labels_must_be_strings(self, labels):
        # A model file holds labels as a list of strings; a string is not split into characters,
        # nor a mapping read as its keys.
        with pytest.raises(DimensionError) as err:
            Dataset([[1.0, 2.0], [3.0, 5.0]], labels)
        assert str(err.value) == f"labels must be a sequence of strings, got {labels!r}"

    def test_row_accessor_uses_subscripts(self):
        ds = center([[1.0, 2.0, 3.0], [4.0, 6.0, 8.0]])
        assert ds.row(2).tolist() == [-2.0, 0.0, 2.0]

    @pytest.mark.parametrize("subscript", [0, -1, 3])
    def test_row_outside_one_to_p_raises(self, subscript):
        # 0 and -1 would otherwise wrap to the last rows, 3 leak an IndexError.
        ds = center([[1.0, 2.0, 3.0], [4.0, 6.0, 8.0]])
        with pytest.raises(DimensionError, match=rf"subscript {subscript} is outside 1\.\.2"):
            ds.row(subscript)

    def test_row_refuses_a_subscript_that_is_not_whole(self):
        # int() would truncate 2.7 to row 2.
        ds = center([[1.0, 2.0, 3.0], [4.0, 6.0, 8.0], [1.0, 0.0, 5.0]])
        with pytest.raises(DimensionError, match=r"^subscript must be an integer, got 2\.7$"):
            ds.row(2.7)
        assert ds.row(2.0).tolist() == ds.row(2).tolist()

    def test_subscripts_refuse_a_bool(self):
        # int(True) is 1, so [True, 2] would read as the subscripts 1 and 2.
        with pytest.raises(DimensionError, match="^subscript must be an integer, got True$"):
            _subscripts([True, 2], 3)

    def test_rows_held_c_ordered_whatever_the_input_layout(self):
        values = center(np.random.default_rng(0).standard_normal((3, 40))).values
        ds = Dataset(np.asfortranarray(values), ("a", "b", "c"))
        assert ds.values.flags.c_contiguous
        assert np.array_equal(ds.values, values)


class TestSimpleResidual:
    def test_self_regression(self):
        coef, resid = simple_residual(np.array([-1.0, 0.0, 1.0]), np.array([-1.0, 0.0, 1.0]))
        assert coef == 1.0
        assert resid.tolist() == [0.0, 0.0, 0.0]

    def test_exact_proportionality(self):
        coef, resid = simple_residual(np.array([1.5, -1.5]), np.array([1.0, -1.0]))
        assert coef == pytest.approx(1.5, abs=0.0)
        assert np.allclose(resid, 0.0)

    def test_hand_least_squares_value(self):
        # Normal equation by hand: cov = 1, var = 2/3, coef = 1.5.
        coef, resid = simple_residual(np.array([-1.0, -1.0, 2.0]), np.array([-1.0, 0.0, 1.0]))
        assert coef == pytest.approx(1.5, rel=1e-15)
        assert resid == pytest.approx([0.5, -1.0, 0.5], rel=1e-15)

    def test_zero_variance_regressor(self):
        with pytest.raises(ZeroVariance):
            simple_residual(np.array([1.0, 2.0]), np.array([3.0, 3.0]))

    @pytest.mark.parametrize("xi_shape, xj_shape", [(3, 4), ((2, 3), (2, 3))], ids=["lengths", "2-D"])
    def test_needs_two_vectors_of_one_length(self, xi_shape, xj_shape):
        with pytest.raises(DimensionError) as err:
            simple_residual(np.ones(xi_shape), np.ones(xj_shape))
        assert str(err.value) == "xi and xj must be 1-D vectors of equal length"

    def test_residual_uncorrelated_with_regressor(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            n = rng.integers(3, 50)
            xi = rng.standard_normal(n)
            xj = rng.standard_normal(n)
            _, resid = simple_residual(xi, xj)
            dj = xj - xj.mean()
            cov = (resid - resid.mean()) @ dj / n
            scale = max(np.abs(resid).max(), np.abs(dj).max(), 1.0)
            assert abs(cov) <= 1e-10 * scale


class TestMultiLeastSquares:
    def test_exact_single_predictor(self):
        p1 = np.array([-1.0, 0.0, 1.0])
        coefs = multi_least_squares(2.0 * p1, p1[None, :])
        assert coefs == pytest.approx([2.0], abs=0.0)

    def test_orthogonal_target_gives_zeros(self):
        preds = np.array([[1.0, 1.0, -1.0, -1.0], [1.0, -1.0, 1.0, -1.0]])
        y = np.array([1.0, -1.0, -1.0, 1.0])  # orthogonal to both rows
        coefs = multi_least_squares(y, preds)
        assert coefs.tolist() == [0.0, 0.0]

    def test_recovers_exact_coefficients_vs_gauss_oracle(self):
        rng = np.random.default_rng(7)
        p1 = rng.standard_normal(30)
        p2 = rng.standard_normal(30)
        y = 0.8 * p1 - 1.5 * p2
        preds = np.vstack([p1, p2])
        coefs = multi_least_squares(y, preds)
        oracle = gauss_solve(preds @ preds.T, preds @ y)
        assert coefs == pytest.approx([0.8, -1.5], rel=1e-10)
        assert coefs == pytest.approx(oracle, rel=1e-10)

    def test_random_exact_linear_recovery(self):
        rng = np.random.default_rng(21)
        for _ in range(100):
            k = int(rng.integers(1, 5))
            n = int(rng.integers(k + 2, 40))
            preds = rng.standard_normal((k, n))
            truth = rng.uniform(-2, 2, size=k)
            coefs = multi_least_squares(truth @ preds, preds)
            assert coefs == pytest.approx(truth, rel=1e-10, abs=1e-12)

    def test_singular_design(self):
        p1 = np.array([1.0, 2.0, 3.0, 4.0])
        with pytest.raises(SingularDesign):
            multi_least_squares(p1, np.vstack([p1, 2.0 * p1]))

    def test_too_few_observations(self):
        with pytest.raises(TooFewObservations):
            multi_least_squares(np.array([1.0, 2.0]), np.eye(2))

    def test_target_length_must_match_the_observations(self):
        with pytest.raises(DimensionError) as err:
            multi_least_squares(np.ones(3), np.eye(4)[:2])
        assert str(err.value) == "y has length 3, predictors have 4 columns"


class TestConnectionMatrix:
    @pytest.mark.parametrize(
        "entries, message",
        [
            (np.zeros((2, 3)), "expected a square matrix, got shape (2, 3)"),
            (np.zeros(3), "expected a square matrix, got shape (3,)"),
            ([[0.0, 1.0], [1.0, 0.5]], "diagonal entries must be exactly zero"),
        ],
        ids=["2x3", "1-D", "self-loop"],
    )
    def test_rejects(self, entries, message):
        with pytest.raises(DimensionError) as err:
            ConnectionMatrix(entries)
        assert str(err.value) == message


class TestPermuteMatrix:
    def test_identity(self):
        out = permute_matrix(CHAIN_B, CausalOrder.identity(3))
        assert np.array_equal(out.entries, CHAIN_B.entries)

    def test_two_by_two_swap(self):
        b = ConnectionMatrix([[0.0, 0.0], [3.0, 0.0]])
        out = permute_matrix(b, (2, 1))
        assert out.entries.tolist() == [[0.0, 3.0], [0.0, 0.0]]

    def test_chain_entry_lands_above_diagonal(self):
        out = permute_matrix(CHAIN_B, (2, 1, 3))
        assert out.entries[0, 1] == 1.5
        assert not out.is_strictly_lower()

    def test_invalid_permutation(self):
        with pytest.raises(InvalidPermutation):
            permute_matrix(CHAIN_B, (1, 1, 2))
        with pytest.raises(InvalidPermutation):
            permute_matrix(CHAIN_B, (1, 2))

    def test_round_trip_with_inverse(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            p = int(rng.integers(1, 7))
            b = rng.standard_normal((p, p))
            np.fill_diagonal(b, 0.0)
            b = ConnectionMatrix(b)
            perm = CausalOrder(tuple(int(v) + 1 for v in rng.permutation(p)))
            back = permute_matrix(permute_matrix(b, perm), perm.inverse())
            assert np.array_equal(back.entries, b.entries)


class TestFindStrictLowerPermutation:
    def test_chain_matrix_gives_identity(self):
        assert find_strict_lower_permutation(CHAIN_B).order == (1, 2, 3)

    def test_zero_matrix_tie_breaks_to_identity(self):
        assert find_strict_lower_permutation(np.zeros((4, 4))).order == (1, 2, 3, 4)

    def test_cycle_has_no_permutation(self):
        assert find_strict_lower_permutation(np.array([[0.0, 1.0], [1.0, 0.0]])) is None

    def test_returned_permutation_is_valid(self):
        rng = np.random.default_rng(13)
        for _ in range(50):
            p = int(rng.integers(2, 7))
            lower = np.tril(rng.standard_normal((p, p)), k=-1)
            lower[rng.random((p, p)) < 0.4] = 0.0
            perm = rng.permutation(p)
            scrambled = lower[np.ix_(perm, perm)]
            found = find_strict_lower_permutation(scrambled)
            assert found is not None
            idx = found.indices
            assert not np.any(np.triu(scrambled[np.ix_(idx, idx)]) != 0.0)

    def test_agrees_with_brute_force(self):
        rng = np.random.default_rng(99)
        for _ in range(200):
            p = int(rng.integers(2, 6))
            mat = rng.standard_normal((p, p))
            mat[rng.random((p, p)) < 0.5] = 0.0
            np.fill_diagonal(mat, 0.0)
            expected = brute_force_strict_lower(mat)
            found = find_strict_lower_permutation(mat)
            if expected:
                assert found is not None and found.order in expected
            else:
                assert found is None


class TestCausalOrder:
    def test_rejects_non_permutations(self):
        with pytest.raises(InvalidPermutation):
            CausalOrder((0, 1, 2))
        with pytest.raises(InvalidPermutation):
            CausalOrder((1, 1, 3))

    @pytest.mark.parametrize(
        "order, shown",
        [((2.7, 1.2), "2.7"), (("2", "1"), "'2'"), ((True, 2), "True"), ((2, np.nan), "nan"),
         ((2, np.float64(np.inf)), r"np\.float64\(inf\)"),
         ((2, Fraction(10**400, 3)), re.escape(repr(Fraction(10**400, 3))))],
        ids=["fraction", "string", "bool", "nan", "numpy-inf", "huge-fraction"],
    )
    def test_rejects_non_whole_subscripts_by_name(self, order, shown):
        # int() would truncate 2.7 and 1.2 to the permutation (2, 1).
        with pytest.raises(InvalidPermutation, match=f"^subscript must be an integer, got {shown}$"):
            CausalOrder(order)

    def test_accepts_whole_numbers_of_any_type(self):
        assert CausalOrder((2.0, np.int64(1), np.float64(3.0))).order == (2, 1, 3)

    def test_a_string_is_not_a_sequence_of_subscripts(self):
        with pytest.raises(InvalidPermutation, match=r"^an order must be a sequence of subscripts, got '123'$"):
            CausalOrder("123")

    def test_inverse(self):
        order = CausalOrder((3, 1, 2))
        assert order.inverse().order == (2, 3, 1)
        assert order.inverse().inverse().order == order.order
