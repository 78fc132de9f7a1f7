import numpy as np
import pytest

from lingamkit import (
    find_strict_lower_permutation,
    generate,
    permute_matrix,
    random_model,
    sample_non_gaussian,
)

from helpers import analytic_covariance


def excess_kurtosis(x):
    d = x - x.mean()
    m2 = (d @ d) / x.size
    m4 = np.mean(d**4)
    return m4 / m2**2 - 3.0


class TestRandomModel:
    def test_single_variable(self):
        model = random_model(1, "random-choice", np.random.default_rng(0))
        assert model.b_true.entries.tolist() == [[0.0]]
        assert 0.5 <= model.noise_stds[0] <= 1.5

    def test_dense_three_variables(self):
        model = random_model(3, "dense", np.random.default_rng(1))
        entries = model.b_true.entries
        assert np.count_nonzero(entries) == 3
        assert model.b_true.is_strictly_lower()

    def test_sparse_always_has_an_edge(self):
        for seed in range(30):
            model = random_model(4, "sparse", np.random.default_rng(seed))
            assert np.count_nonzero(model.b_true.entries) >= 1
            assert model.b_true.is_strictly_lower()

    def test_parent_contribution_std_in_range(self):
        model = random_model(4, "dense", np.random.default_rng(7))
        cov = analytic_covariance(model.b_true.entries, model.noise_stds)
        for i in range(1, 4):
            row = model.b_true.entries[i]
            std = np.sqrt(row @ cov @ row)
            assert 0.5 - 1e-9 <= std <= 1.5 + 1e-9

    def test_exponents_from_the_two_intervals(self):
        model = random_model(20, "random-choice", np.random.default_rng(3))
        for q in model.exponents:
            assert 0.5 <= q <= 0.8 or 1.2 <= q <= 2.0

    def test_unshuffled_truth_admits_identity_order(self):
        for seed in range(10):
            model = random_model(5, "random-choice", np.random.default_rng(seed))
            found = find_strict_lower_permutation(model.b_true)
            assert found is not None and found.order == (1, 2, 3, 4, 5)


class TestSampleNonGaussian:
    def test_q1_is_nearly_gaussian(self):
        e = sample_non_gaussian(100000, 1.0, np.random.default_rng(0))
        assert abs(e.mean()) < 1e-12
        assert abs(e @ e / e.size - 1.0) < 1e-12
        assert abs(excess_kurtosis(e)) < 0.15

    def test_q2_is_super_gaussian(self):
        e = sample_non_gaussian(100000, 2.0, np.random.default_rng(1))
        assert excess_kurtosis(e) > 0.5

    def test_q_half_is_sub_gaussian(self):
        e = sample_non_gaussian(100000, 0.5, np.random.default_rng(2))
        assert excess_kurtosis(e) < -0.1

    def test_rejects_bad_arguments(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            sample_non_gaussian(100, 0.0, rng)
        with pytest.raises(ValueError):
            sample_non_gaussian(1, 1.0, rng)

    @pytest.mark.parametrize("q", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_exponent(self, q):
        with pytest.raises(ValueError, match="^exponent q must be positive$"):
            sample_non_gaussian(5, q, np.random.default_rng(0))


class TestGenerate:
    def test_validation(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError, match="p must be at least 1"):
            generate(0, 100, "dense", rng)
        with pytest.raises(ValueError, match="n must be at least 2"):
            generate(3, 1, "dense", rng)
        with pytest.raises(ValueError, match="network must be one of"):
            generate(3, 100, "ring", rng)
        with pytest.raises(ValueError, match="p must be at least 1"):
            random_model(0, "dense", rng)
        with pytest.raises(ValueError, match="network must be one of"):
            random_model(3, "ring", rng)

    def test_single_variable_is_its_noise(self):
        data, truth = generate(1, 500, "random-choice", np.random.default_rng(4))
        rng = np.random.default_rng(4)
        model = random_model(1, "random-choice", rng)
        noise = model.noise_stds[0] * sample_non_gaussian(500, model.exponents[0], rng)
        assert data.values[0] == pytest.approx(noise, rel=1e-12, abs=1e-12)

    def test_mixing_identity_pre_centering(self):
        """Replaying the generator's draws, propagation must equal A @ e
        at machine precision."""
        p, n = 5, 300
        data, truth = generate(p, n, "dense", np.random.default_rng(9))

        rng = np.random.default_rng(9)
        model = random_model(p, "dense", rng)
        assert np.array_equal(model.b_true.entries, truth.b_true.entries)
        b = model.b_true.entries
        e = np.vstack(
            [
                model.noise_stds[i] * sample_non_gaussian(n, model.exponents[i], rng)
                for i in range(p)
            ]
        )
        x = np.empty_like(e)
        for i in range(p):
            x[i] = e[i] + b[i, :i] @ x[:i]
        mixed = np.linalg.inv(np.eye(p) - b) @ e
        scale = np.abs(x).max()
        assert np.max(np.abs(x - mixed)) < 1e-12 * scale

        # and the emitted dataset is exactly the shuffled, centered propagation
        shuffled = x[truth.shuffle.indices]
        shuffled = shuffled - shuffled.mean(axis=1, keepdims=True)
        assert np.allclose(data.values, shuffled, rtol=0, atol=1e-12 * scale)

    def test_row_means_are_zero(self):
        data, _ = generate(6, 1000, "random-choice", np.random.default_rng(11))
        for row in data.values:
            assert abs(row.mean()) <= 1e-12 * np.max(np.abs(row))

    def test_shuffle_round_trip(self):
        data, truth = generate(5, 200, "random-choice", np.random.default_rng(13))
        observed = truth.observed_matrix()
        back = permute_matrix(observed, truth.shuffle.inverse())
        assert np.array_equal(back.entries, truth.b_true.entries)

    def test_observed_order_is_consistent(self):
        from lingamkit import order_errors

        for seed in range(10):
            data, truth = generate(5, 100, "random-choice", np.random.default_rng(seed))
            assert order_errors(truth.observed_matrix(), truth.observed_order()) == 0

    def test_deterministic_given_seed(self):
        d1, t1 = generate(4, 300, "random-choice", np.random.default_rng(21))
        d2, t2 = generate(4, 300, "random-choice", np.random.default_rng(21))
        assert np.array_equal(d1.values, d2.values)
        assert np.array_equal(t1.b_true.entries, t2.b_true.entries)
        assert t1.shuffle.order == t2.shuffle.order
        assert t1.exponents == t2.exponents
