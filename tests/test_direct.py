import numpy as np
import pytest

from lingamkit import (
    CausalOrder,
    ConnectionMatrix,
    Dataset,
    bootstrap_cis,
    center,
    estimate_order,
    estimate_strengths,
    fit,
    generate,
    multi_least_squares,
    permute_matrix,
    simple_residual,
)
from lingamkit.core import RCOND_THRESHOLD, _gram
from lingamkit.direct import FittedModel, _ordered_least_squares
from lingamkit.errors import (
    NonFiniteValue,
    SingularDesign,
    TooFewObservations,
    ZeroVariance,
    ZeroVarianceRow,
)

from helpers import CHAIN_B, chain_dataset, loop_estimate_order


def exact_chain_dataset():
    """Chain data whose noise terms are mutually orthogonal in sample,
    so least squares recovers the coefficients exactly."""
    x1 = np.array([1.0, -1.0, 1.0, -1.0])
    e2 = np.array([1.0, 1.0, -1.0, -1.0])
    e3 = np.array([1.0, -1.0, -1.0, 1.0])
    x2 = 1.5 * x1 + e2
    x3 = 0.8 * x1 - 1.5 * x2 + e3
    return center(np.vstack([x1, x2, x3]))


class TestEstimateOrder:
    def test_single_variable(self):
        ds = center([[1.0, 2.0, 4.0]])
        order, diagnostics = estimate_order(ds)
        assert order.order == (1,)
        assert diagnostics == ()

    def test_chain_model_recovered(self):
        ds = chain_dataset(10000, np.random.default_rng(17))
        order, diagnostics = estimate_order(ds)
        assert order.order == (1, 2, 3)
        assert [len(step) for step in diagnostics] == [3, 2]

    def test_diagnostics_keyed_by_original_subscripts(self):
        ds = chain_dataset(2000, np.random.default_rng(2))
        _, diagnostics = estimate_order(ds)
        assert set(diagnostics[0]) == {1, 2, 3}
        assert len(set(diagnostics[1])) == 2

    def test_selection_count_is_p_minus_one_under_fuzz(self):
        rng = np.random.default_rng(100)
        for _ in range(100):
            p = int(rng.integers(1, 7))
            n = int(rng.integers(3, 40))
            ds = center(rng.standard_normal((p, n)))
            order, diagnostics = estimate_order(ds)
            assert len(order) == p
            assert len(diagnostics) == p - 1 if p > 1 else diagnostics == ()

    def test_exact_collinearity_raises_zero_variance(self):
        a = np.array([1.0, -2.0, 4.0, -1.0, -2.0])
        ds = center(np.vstack([a, 2.0 * a, 4.0 * a]))
        with pytest.raises(ZeroVariance):
            estimate_order(ds)

    def test_collinearity_reports_original_subscript(self):
        # x2 is picked before x3, so x3 = 2 x2 is the row that becomes constant.
        u = np.random.default_rng(0).standard_normal(5)
        a = np.array([1.0, -2.0, 4.0, -1.0, -2.0])
        with pytest.raises(ZeroVarianceRow, match="exact collinearity") as info:
            estimate_order(center(np.vstack([u, a, 2.0 * a])))
        assert info.value.subscript == 3
        assert "variable x3 became constant" in str(info.value)

    def test_overflowing_scores_raise_non_finite(self):
        # Finite data whose squared deviations overflow: every score is NaN,
        # which must fail rather than yield an arbitrary order.
        x = np.random.default_rng(1).standard_normal((4, 50)) * 1e160
        with np.errstate(all="ignore"), pytest.raises(NonFiniteValue):
            estimate_order(center(x))

    @pytest.mark.parametrize("scale", [[1e-170] * 3, [1e-160, 1e152]], ids=["zero-variance", "coefficient-overflow"])
    def test_underflowing_scores_raise_non_finite(self, scale):
        # Finite, non-constant data whose squared deviations underflow to 0 must fail,
        # not score every candidate 0 as a residual that centers to 0 does. A variance
        # that underflows only into the subnormal range overflows x2's coefficient on x1.
        x = np.random.default_rng(0).standard_normal((len(scale), 50)) * np.array(scale)[:, None]
        with pytest.raises(NonFiniteValue, match="^Gram matrix underflows"):
            estimate_order(center(x))

    @pytest.mark.parametrize("other", [0, 1], ids=["proportional", "independent"])
    def test_correlation_whose_variance_product_overflows_is_kept(self, other):
        # The product of two finite variances overflows; each score must still count the
        # correlation, and equal those of x1 scaled by 2**-200, which keeps it in range.
        a, b = np.random.default_rng(0).standard_normal(50), np.random.default_rng(other).standard_normal(50)
        model = fit(Dataset(np.vstack([a * 1e153, b * 1e47])))
        scaled = fit(Dataset(np.vstack([a * 1e153 * 2.0**-200, b * 1e47])))
        assert model.diagnostics == scaled.diagnostics
        assert all(t > 0.0 for t in model.diagnostics[0].values())

    def test_infinite_scores_raise_non_finite(self):
        # The variances are finite, but their product underflows to 0, so a
        # correlation is inf; the order must not be picked among inf scores.
        x = np.random.default_rng(0).standard_normal((3, 50)) * 1e-90
        with pytest.raises(NonFiniteValue, match="^an independence score is infinite$"):
            estimate_order(center(x))

    @pytest.mark.parametrize(
        "run",
        [
            fit,
            lambda data: estimate_strengths(data, CausalOrder((1, 2, 3))),
            lambda data: multi_least_squares(data.values[1], data.values[[0, 2]]),
            lambda data: bootstrap_cis(data, CausalOrder((1, 2, 3)), np.random.default_rng(0)),
        ],
        ids=["fit", "estimate_strengths", "multi_least_squares", "bootstrap_cis"],
    )
    def test_float_limit_entries_raise_non_finite_without_warning(self, run):
        # Finite, centered data whose Gram matrix overflows. Tier-1 turns
        # every warning into an error, so a numpy RuntimeWarning fails here.
        x = np.random.default_rng(0).standard_normal((3, 50))
        x[0, :2] = 1e308, -1e308
        with pytest.raises(NonFiniteValue, match="Gram matrix overflows"):
            run(center(x))

    def test_more_variables_than_observations(self):
        rng = np.random.default_rng(8)
        ds = center(rng.uniform(-1, 1, size=(20, 15)))
        order, diagnostics = estimate_order(ds)
        assert sorted(order.order) == list(range(1, 21))
        assert len(diagnostics) == 19

    @pytest.mark.parametrize("p, n", [(4, 3), (5, 3), (6, 3), (8, 4)])
    def test_no_false_collinearity_once_residuals_are_rounding_noise(self, p, n):
        # From n - 1 selections on, every centered residual is rounding noise, and
        # one that comes out exactly constant is chance: it must not raise.
        for seed in range(100):
            ds = center(np.random.default_rng(seed).standard_normal((p, n)))
            assert len(estimate_order(ds)[1]) == p - 1


class TestMatchesPairLoop:
    """The array kernel against the per-pair loop it replaced (``helpers``)."""

    def test_same_orders_and_scores_on_full_rank_data(self):
        rng = np.random.default_rng(2024)
        for trial in range(40):
            p = int(rng.integers(2, 21))
            n = int(rng.integers(p + 1, 1001))
            network = ("dense", "sparse")[trial % 2]
            data, _ = generate(p, n, network, rng)
            order, diagnostics = estimate_order(data)
            ref_order, ref_diagnostics = loop_estimate_order(data)
            assert order.order == ref_order.order, (p, n, network)
            for step, ref_step in zip(diagnostics, ref_diagnostics):
                assert list(step) == list(ref_step)
                assert step == pytest.approx(ref_step, rel=1e-12, abs=0.0)

    def test_large_n(self):
        # The grid above stops at n = 1000; sums over 20000 terms round differently.
        data, _ = generate(8, 20000, "dense", np.random.default_rng(5))
        order, diagnostics = estimate_order(data)
        ref_order, ref_diagnostics = loop_estimate_order(data)
        assert order.order == ref_order.order
        for step, ref_step in zip(diagnostics, ref_diagnostics):
            assert step == pytest.approx(ref_step, rel=1e-12, abs=0.0)

    def test_smallest_full_rank_shapes(self):
        rng = np.random.default_rng(7)
        for p in range(2, 21):
            data = center(rng.uniform(-1.0, 1.0, size=(p, p + 1)))
            order, diagnostics = estimate_order(data)
            ref_order, ref_diagnostics = loop_estimate_order(data)
            assert order.order == ref_order.order
            for step, ref_step in zip(diagnostics, ref_diagnostics):
                assert step == pytest.approx(ref_step, rel=1e-12, abs=0.0)

    def test_same_errors(self):
        def outcome(estimate, data):
            try:
                return estimate(data)[0].order
            except (ZeroVarianceRow, NonFiniteValue) as exc:
                return type(exc), str(exc), getattr(exc, "subscript", None)

        a = np.array([1.0, -2.0, 4.0, -1.0, -2.0])
        cases = [np.vstack([a, 2.0 * a, 4.0 * a])]
        for seed in range(5):
            u = np.random.default_rng(seed).standard_normal(5)
            cases += [np.vstack([u, a, 2.0 * a]), np.vstack([a, u, 3.0 * a, u - a])]
        cases.append(np.random.default_rng(3).standard_normal((4, 50)) * 1e160)
        cases.append(np.random.default_rng(0).standard_normal((3, 50)) * 1e-90)
        raised = 0
        for values in cases:
            data = center(values)
            with np.errstate(all="ignore"):
                mine = outcome(estimate_order, data)
                assert mine == outcome(loop_estimate_order, data)
            raised += isinstance(mine[0], type)
        assert raised >= 7


class TestInvariance:
    """Exact consequences of the method's symmetries, on seeded synthetic data."""

    @staticmethod
    def cases():
        for seed in range(40):
            rng = np.random.default_rng(seed)
            p = int(rng.integers(2, 21))
            data, _ = generate(p, int(rng.integers(p + 1, 1001)), ("dense", "sparse")[seed % 2], rng)
            yield rng, data, estimate_order(data)

    def test_sign_flips_change_no_bit(self):
        # tanh is odd and negation is exact, so every score keeps its bits.
        for rng, data, (order, diagnostics) in self.cases():
            signs = rng.choice([-1.0, 1.0], size=(data.p, 1))
            assert estimate_order(Dataset(data.values * signs)) == (order, diagnostics)

    def test_row_permutation_permutes_the_order(self):
        for rng, data, (order, diagnostics) in self.cases():
            perm = rng.permutation(data.p)
            moved = np.argsort(perm) + 1  # moved[s - 1] is old subscript s's new subscript
            new_order, new_diagnostics = estimate_order(Dataset(data.values[perm]))
            assert new_order.order == tuple(int(moved[s - 1]) for s in order)
            for step, new_step in zip(diagnostics, new_diagnostics):
                expected = {int(moved[s - 1]): score for s, score in step.items()}
                # Gram sums run in another order, so scores may move in the last bits.
                assert new_step == pytest.approx(expected, rel=1e-12, abs=0.0)


# Two standard normal rows for the float-limit cases below.
A, B = np.random.default_rng(0).standard_normal((2, 50))


class TestEstimateStrengths:
    def test_single_variable_zero_matrix(self):
        ds = center([[1.0, 2.0, 4.0]])
        b = estimate_strengths(ds, CausalOrder((1,)))
        assert b.entries.tolist() == [[0.0]]

    def test_exact_data_recovers_coefficients(self):
        b = estimate_strengths(exact_chain_dataset(), CausalOrder((1, 2, 3)))
        assert b.entries == pytest.approx(CHAIN_B.entries, rel=1e-10, abs=1e-12)

    def test_noisy_chain_within_tolerance(self):
        ds = chain_dataset(10000, np.random.default_rng(23))
        b = estimate_strengths(ds, CausalOrder((1, 2, 3)))
        for i, j in ((2, 1), (3, 1), (3, 2)):
            assert abs(b.entries[i - 1, j - 1] - CHAIN_B.entries[i - 1, j - 1]) < 0.05

    def test_upper_triangle_exactly_zero(self):
        ds = chain_dataset(500, np.random.default_rng(1))
        order = CausalOrder((2, 3, 1))
        permuted = permute_matrix(estimate_strengths(ds, order), order)
        assert permuted.is_strictly_lower()

    def test_too_few_observations_for_late_variables(self):
        rng = np.random.default_rng(8)
        ds = center(rng.uniform(-1, 1, size=(20, 15)))
        with pytest.raises(TooFewObservations):
            estimate_strengths(ds, CausalOrder.identity(20))


    def test_singular_design_before_too_few_observations(self):
        # p - 1 >= n: a collinear pair among the first n - 1 variables is
        # met before the regression with n predictors; one further down is not.
        rng = np.random.default_rng(9)
        x = rng.standard_normal((6, 4))
        early, late = x.copy(), x.copy()
        early[1] = 2.0 * early[0]
        late[4] = late[0] + late[1]
        with pytest.raises(SingularDesign):
            estimate_strengths(center(early), CausalOrder.identity(6))
        with pytest.raises(TooFewObservations):
            estimate_strengths(center(late), CausalOrder.identity(6))
        with pytest.raises(TooFewObservations):
            estimate_strengths(center(x), CausalOrder.identity(6))

    @pytest.mark.parametrize("scale, seed", [(1.2e153, 6), (1.25e153, 3), (1.25e153, 4), (1.25e153, 6)])
    def test_well_conditioned_data_near_the_float_limit(self, scale, seed):
        # Every Gram entry is finite, but an SVD of the unscaled Gram matrix
        # overflows and used to report these designs as singular.
        x = np.random.default_rng(seed).standard_normal((3, 100))
        order = CausalOrder((1, 2, 3))
        b = estimate_strengths(center(x * scale), order)
        assert b.entries == pytest.approx(estimate_strengths(center(x), order).entries, rel=1e-12)

    @pytest.mark.parametrize(
        "x, value",
        [
            # The unread own sum of squares of x2 is finite, but scaling it by the
            # power of two that brings the read entries below 1 overflows.
            (np.vstack([A * 1e-160, (B + A) * 1e153]), "inf"),
            # The unread entry overflows; the coefficient, about -1e310, does too.
            (np.vstack([A * 1e-155, B * 1e155]), "-inf"),
        ],
        ids=["scaled-unread-entry", "unread-entry-inf"],
    )
    @pytest.mark.parametrize(
        "run",
        [
            lambda data: estimate_strengths(data, CausalOrder((1, 2))),
            lambda data: multi_least_squares(data.values[1], data.values[:1]),
            lambda data: bootstrap_cis(data, CausalOrder((1, 2)), np.random.default_rng(0)),
        ],
        ids=["estimate_strengths", "multi_least_squares", "bootstrap_cis"],
    )
    def test_coefficient_past_the_float_range_raises_non_finite(self, x, value, run):
        # Every Gram entry a regression reads is finite; the coefficient is not. Tier-1
        # turns every warning into an error, so a numpy RuntimeWarning fails here.
        data = Dataset(x, ("a", "b"))
        assert np.isfinite(_gram(data.values)[0]).all()
        with pytest.raises(NonFiniteValue, match=f"^coefficient (a|predictor 1) -> (b|y) is {value}$"):
            run(data)

    def test_overflow_of_the_unread_gram_entry_is_ignored(self):
        # Only the last variable's own sum of squares overflows, and no regression
        # reads it. Scaling that row by a power of two is exact, so the estimate
        # must match the scaled-down data's, that row scaled back up.
        x1, x2, x3 = np.random.default_rng(0).standard_normal((3, 100))
        big = center(np.vstack([x1, x2, (x3 + x1) * 1e154]))
        with np.errstate(over="ignore"):
            assert not np.isfinite(big.values[2] @ big.values[2])
        scale = np.array([[1.0], [1.0], [2.0**-600]])
        small = Dataset(big.values * scale, big.labels)
        order = CausalOrder((1, 2, 3))
        b = estimate_strengths(big, order).entries
        assert np.array_equal(b, estimate_strengths(small, order).entries / scale)
        assert np.isfinite(b).all() and b[2, 0] != 0.0

    def test_multi_least_squares_ignores_an_overflow_confined_to_y(self):
        # The float-limit data above with x1 as y: only y's own sum of squares
        # overflows, and the regression never reads it.
        x = np.random.default_rng(0).standard_normal((3, 50))
        x[0, :2] = 1e308, -1e308
        values = center(x).values
        y, preds = values[0], values[1:]
        assert np.isfinite(preds @ np.vstack([preds, y]).T).all()
        with np.errstate(over="ignore"):
            assert not np.isfinite(y @ y)
        coefs = multi_least_squares(y, preds)
        assert np.array_equal(coefs, multi_least_squares(y * 2.0**-600, preds) * 2.0**600)
        assert np.isfinite(coefs).all() and (coefs != 0.0).all()

    def test_gram_stack_solves_each_member_as_if_alone(self):
        # One stack through the kernel gives, bit for bit, what each member gives on
        # its own: a well-posed design, an exactly collinear one, one whose read
        # entries overflow and a well-posed one at another scale.
        x = np.random.default_rng(0).standard_normal((4, 4, 60))
        x[1, 2] = 2.0 * x[1, 0] - x[1, 1]
        x[2, 1] *= 1e155
        x[3] *= 2.0**-30
        x -= x.mean(axis=2, keepdims=True)
        gram = _gram(x)
        b, finite, ok = _ordered_least_squares(gram.copy())
        assert finite.tolist() == [True, True, False, True]
        assert ok.tolist() == [True, False, False, True]
        for m in range(len(gram)):
            alone_b, alone_finite, alone_ok = _ordered_least_squares(gram[m : m + 1].copy())
            assert np.array_equal(b[m], alone_b[0])
            assert (finite[m], ok[m]) == (alone_finite[0], alone_ok[0])
        assert not b[1:3].any() and b[[0, 3]][:, 1:, 0].all()

    def test_design_that_underflow_left_indefinite_is_singular(self):
        # Underflow zeroed x1's variance but not its product with x2, so the 2 x 2 design
        # is indefinite: its singular values pass the condition test, while its leading
        # 1 x 1 block is exactly 0 and the solve for x2 on x1 has no pivot.
        tiny = 5e-324
        gram = np.array([[[0.0, tiny, 0.0], [tiny, tiny, 0.0], [0.0, 0.0, 1.0]]])
        b, finite, ok = _ordered_least_squares(gram)
        assert finite.tolist() == [True] and ok.tolist() == [False] and not b.any()

    @pytest.mark.parametrize("factor, singular", [(1.001, False), (0.999, True)])
    def test_rcond_boundary(self, factor, singular):
        # Orthogonal centered predictors whose Gram matrix diag(4, 4 s^2)
        # has reciprocal condition number s^2 = factor * RCOND_THRESHOLD.
        u = np.array([1.0, 1.0, -1.0, -1.0])
        v = np.array([1.0, -1.0, 1.0, -1.0]) * np.sqrt(factor * RCOND_THRESHOLD)
        y = u - 2.0 * v + np.array([1.0, -1.0, -1.0, 1.0])
        ds = Dataset(np.vstack([u, v, y]), ("u", "v", "y"))
        if singular:
            with pytest.raises(SingularDesign):
                estimate_strengths(ds, CausalOrder((1, 2, 3)))
            with pytest.raises(SingularDesign):
                multi_least_squares(y, np.vstack([u, v]))
        else:
            b = estimate_strengths(ds, CausalOrder((1, 2, 3)))
            assert b.entries[2, :2] == pytest.approx([1.0, -2.0], rel=1e-12)
            coefs = multi_least_squares(y, np.vstack([u, v]))
            assert coefs == pytest.approx([1.0, -2.0], rel=1e-12)


class TestFit:
    def test_single_variable(self):
        model = fit(center([[3.0, 1.0, 2.0]]))
        assert model.order.order == (1,)
        assert model.strengths.entries.tolist() == [[0.0]]

    def test_chain_model(self):
        model = fit(chain_dataset(10000, np.random.default_rng(41)))
        assert model.order.order == (1, 2, 3)
        assert model.strengths.entries == pytest.approx(CHAIN_B.entries, abs=0.05)

    def test_unconnected_pair_estimates_near_zero_strengths(self):
        rng = np.random.default_rng(6)
        ds = center(rng.uniform(-1, 1, size=(2, 10000)))
        model = fit(ds)
        assert np.max(np.abs(model.strengths.entries)) < 0.1

    def test_deterministic(self):
        ds = chain_dataset(3000, np.random.default_rng(12))
        first = fit(ds)
        second = fit(ds)
        assert first.order.order == second.order.order
        assert np.array_equal(first.strengths.entries, second.strengths.entries)
        assert first.diagnostics == second.diagnostics

    def test_strict_triangularity_on_random_inputs(self):
        rng = np.random.default_rng(77)
        for _ in range(20):
            p = int(rng.integers(1, 6))
            ds = center(rng.standard_normal((p, 60)))
            model = fit(ds)
            assert permute_matrix(model.strengths, model.order).is_strictly_lower()

    def test_diagnostics_scores_are_python_floats(self):
        model = fit(chain_dataset(500, np.random.default_rng(5)))
        assert all(type(t) is float for step in model.diagnostics for t in step.values())

    def test_diagnostics_step_sizes(self):
        ds = center(np.random.default_rng(3).standard_normal((5, 100)))
        model = fit(ds)
        assert [len(step) for step in model.diagnostics] == [5, 4, 3, 2]


def test_uncentered_dataset_fits_as_centered_data():
    # Estimators take every Dataset as centered: construction centers uncentered
    # values, whatever their layout, so the fit is the fit of center()'s rows.
    rng = np.random.default_rng(8)
    raw = chain_dataset(400, rng).values + rng.uniform(-5.0, 5.0, size=(3, 1))
    expected = fit(center(raw))
    for given in (raw, np.asfortranarray(raw)):
        model = fit(Dataset(given, ("x1", "x2", "x3")))
        assert model.order == expected.order
        assert np.array_equal(model.strengths.entries, expected.strengths.entries)
        assert model.diagnostics == expected.diagnostics


def test_fitted_model_validates_diagnostics_shape():
    ds = chain_dataset(500, np.random.default_rng(4))
    model = fit(ds)
    with pytest.raises(ValueError):
        FittedModel(order=model.order, strengths=model.strengths, diagnostics=())
    with pytest.raises(ValueError, match="^diagnostic step 1 has 3 entries, expected 2$"):
        FittedModel(model.order, model.strengths, (model.diagnostics[0], model.diagnostics[0]))


def test_fitted_model_refuses_strengths_its_order_does_not_fit():
    model = fit(chain_dataset(500, np.random.default_rng(4)))
    upper = ConnectionMatrix(model.strengths.entries.T)
    with pytest.raises(ValueError, match="^strengths are not strictly lower triangular under the order$"):
        FittedModel(model.order, upper, model.diagnostics)


def test_residual_recursion_preserves_relative_order():
    """Removing the true root by hand and re-running on the residuals
    should reproduce the relative order of the remaining variables."""
    agreements = 0
    trials = 100
    for trial in range(trials):
        rng = np.random.default_rng(5000 + trial)
        p = int(rng.integers(3, 6))
        data, truth = generate(p, 20000, "dense", rng)
        full_order, _ = estimate_order(data)

        root = truth.observed_order().order[0]
        root_row = data.row(root)
        rest = [s for s in range(1, p + 1) if s != root]
        residuals = np.vstack([simple_residual(data.row(s), root_row)[1] for s in rest])
        sub_order, _ = estimate_order(center(residuals))
        mapped = tuple(rest[local - 1] for local in sub_order.order)

        remaining_full = tuple(s for s in full_order.order if s != root)
        agreements += mapped == remaining_full
    assert agreements >= 95, f"relative order agreed in only {agreements}/100 trials"
