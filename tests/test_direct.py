import numpy as np
import pytest

from lingamkit import (
    CausalOrder,
    Dataset,
    SynthConfig,
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
from lingamkit.core import RCOND_THRESHOLD
from lingamkit.direct import FittedModel
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

    @pytest.mark.parametrize(
        "run",
        [
            fit,
            lambda data: estimate_strengths(data, CausalOrder((1, 2, 3))),
            lambda data: multi_least_squares(data.values[0], data.values[1:]),
            lambda data: bootstrap_cis(data, CausalOrder((1, 2, 3))),
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


class TestMatchesPairLoop:
    """The array kernel against the per-pair loop it replaced (``helpers``)."""

    def test_same_orders_and_scores_on_full_rank_data(self):
        rng = np.random.default_rng(2024)
        for trial in range(40):
            p = int(rng.integers(2, 21))
            n = int(rng.integers(p + 1, 1001))
            network = ("dense", "sparse")[trial % 2]
            data, _ = generate(SynthConfig(p=p, n=n, network=network), rng=rng)
            order, diagnostics = estimate_order(data)
            ref_order, ref_diagnostics = loop_estimate_order(data)
            assert order.order == ref_order.order, (p, n, network)
            for step, ref_step in zip(diagnostics, ref_diagnostics):
                assert list(step) == list(ref_step)
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
        raised = 0
        for values in cases:
            data = center(values)
            with np.errstate(all="ignore"):
                mine = outcome(estimate_order, data)
                assert mine == outcome(loop_estimate_order, data)
            raised += isinstance(mine[0], type)
        assert raised >= 7


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

    @pytest.mark.parametrize("factor, singular", [(1.001, False), (0.999, True)])
    def test_rcond_boundary(self, factor, singular):
        # Orthogonal centered predictors whose Gram matrix diag(4, 4 s^2)
        # has reciprocal condition number s^2 = factor * RCOND_THRESHOLD.
        u = np.array([1.0, 1.0, -1.0, -1.0])
        v = np.array([1.0, -1.0, 1.0, -1.0]) * np.sqrt(factor * RCOND_THRESHOLD)
        y = u - 2.0 * v + np.array([1.0, -1.0, -1.0, 1.0])
        ds = Dataset(np.vstack([u, v, y]), ("u", "v", "y"), centered=True)
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


def test_uncentered_dataset_rejected():
    from lingamkit import Dataset
    from lingamkit.errors import DimensionError

    raw = Dataset(np.array([[1.0, 2.0, 4.0], [0.0, 1.0, 5.0]]), ("x1", "x2"), centered=False)
    with pytest.raises(DimensionError):
        estimate_order(raw)
    with pytest.raises(DimensionError):
        estimate_strengths(raw, CausalOrder((1, 2)))


def test_fitted_model_validates_diagnostics_shape():
    ds = chain_dataset(500, np.random.default_rng(4))
    model = fit(ds)
    with pytest.raises(ValueError):
        FittedModel(order=model.order, strengths=model.strengths, diagnostics=())


def test_residual_recursion_preserves_relative_order():
    """Removing the true root by hand and re-running on the residuals
    should reproduce the relative order of the remaining variables."""
    agreements = 0
    trials = 100
    for trial in range(trials):
        rng = np.random.default_rng(5000 + trial)
        p = int(rng.integers(3, 6))
        data, truth = generate(SynthConfig(p=p, n=20000, network="dense"), rng=rng)
        full_order, _ = estimate_order(data)

        root = truth.observed_root()
        root_row = data.row(root)
        rest = [s for s in range(1, p + 1) if s != root]
        residuals = np.vstack([simple_residual(data.row(s), root_row)[1] for s in rest])
        sub_order, _ = estimate_order(center(residuals))
        mapped = tuple(rest[local - 1] for local in sub_order.order)

        remaining_full = tuple(s for s in full_order.order if s != root)
        agreements += mapped == remaining_full
    assert agreements >= 95, f"relative order agreed in only {agreements}/100 trials"
