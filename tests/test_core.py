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
        assert ds.centered

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
        with pytest.raises(NonFiniteValue, match="row 2, observation 2"):
            center(raw)
        with pytest.raises(NonFiniteValue):
            Dataset(np.array(raw), ("a", "b"), centered=False)

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


class TestDataset:
    def test_values_are_read_only(self):
        ds = center([[1.0, 2.0, 3.0]])
        with pytest.raises(ValueError):
            ds.values[0, 0] = 9.0

    def test_centered_flag_checked(self):
        with pytest.raises(DimensionError):
            Dataset(np.array([[1.0, 2.0, 3.0]]), ("x1",), centered=True)

    def test_row_accessor_uses_subscripts(self):
        ds = center([[1.0, 2.0, 3.0], [4.0, 6.0, 8.0]])
        assert ds.row(2).tolist() == [-2.0, 0.0, 2.0]


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

    def test_inverse(self):
        order = CausalOrder((3, 1, 2))
        assert order.inverse().order == (2, 3, 1)
        assert order.inverse().inverse().order == order.order
