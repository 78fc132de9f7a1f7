import numpy as np
import pytest

from lingamkit import (
    center,
    find_most_independent,
    generate,
    independence,
    t_profile,
    t_statistic,
)
from lingamkit.errors import DimensionError, NonFiniteValue, NotInActiveSet
from lingamkit.independence import _argmin, _scores

from helpers import chain_dataset, loop_scores, loop_t_statistic, scratch_t_statistic


def test_exact_proportionality_scores_zero():
    x1 = np.array([-3.0, -1.0, 1.0, 3.0])
    ds = center(np.vstack([x1, 1.5 * x1]))
    assert t_statistic(1, {1, 2}, ds) == 0.0


def test_exactly_zero_residual_matches_pair_loop():
    # x2 = 2 x1 to the bit, so both residuals of the pair are exactly 0.
    rng = np.random.default_rng(40)
    x1 = rng.standard_normal(50)
    ds = center(np.vstack([x1, 2.0 * x1, rng.standard_normal(50) ** 3]))
    assert t_profile({1, 2}, ds) == {1: 0.0, 2: 0.0}
    for j, score in t_profile({1, 2, 3}, ds).items():
        assert score == pytest.approx(loop_t_statistic(j, {1, 2, 3}, ds.values), rel=1e-12)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_cancelled_residual_variance_counts_as_zero(seed):
    # Near-proportional rows: the closed-form residual variance
    # gram_ii - b_ij gram_ij rounds to zero or below. Tier-1 turns every
    # warning into an error, so an invalid sqrt would fail here.
    rng = np.random.default_rng(seed)
    a = rng.standard_normal(50)
    ds = center(np.vstack([a, 3.0 * a + 1e-16 * rng.standard_normal(50), rng.standard_normal(50)]))
    xc = ds.values - ds.values.mean(axis=1, keepdims=True)
    gram = xc @ xc.T
    assert gram[1, 1] - gram[1, 0] / gram[0, 0] * gram[1, 0] <= 0.0
    profile = t_profile({1, 2, 3}, ds)
    assert all(np.isfinite(t) and t >= 0.0 for t in profile.values())


def test_matches_scratch_evaluation_on_small_dataset():
    values = center(
        [[0.3, -1.2, 0.9, 0.0], [1.1, 0.4, -0.7, -0.8]]
    )
    for j in (1, 2):
        mine = t_statistic(j, {1, 2}, values)
        ref = scratch_t_statistic(j, {1, 2}, values.values)
        assert mine == pytest.approx(ref, rel=1e-12)


def test_profile_of_a_subset_matches_pair_loop():
    rng = np.random.default_rng(21)
    for _ in range(20):
        p = int(rng.integers(3, 8))
        ds = center(rng.standard_normal((p, int(rng.integers(5, 300)))) ** 3)
        subs = sorted(rng.choice(np.arange(1, p + 1), size=int(rng.integers(2, p + 1)), replace=False))
        profile = t_profile(subs, ds)
        assert list(profile) == [int(s) for s in subs]
        for j, score in profile.items():
            assert score == pytest.approx(loop_t_statistic(j, subs, ds.values), rel=1e-12)
            assert t_statistic(j, subs, ds) == score


@pytest.mark.parametrize("n", [3, 8, 50, 1000, 3001])
@pytest.mark.parametrize("k", [2, 3, 7, 13, 20, 31, 64])
def test_chunked_kernel_matches_candidate_loop_bit_for_bit(k, n):
    # Covers one chunk holding every candidate, a partial last chunk and
    # one candidate per chunk, on the C-ordered rows every Dataset holds.
    x = center(np.random.default_rng(k * n).standard_normal((k, n)) ** 3).values
    scores, coef = _scores(x)
    ref_scores, ref_coef = loop_scores(x)
    assert np.array_equal(scores, ref_scores)
    assert np.array_equal(coef, ref_coef)


def test_chain_model_root_minimizes_score():
    ds = chain_dataset(10000, np.random.default_rng(5))
    t1 = t_statistic(1, {1, 2, 3}, ds)
    assert t1 < t_statistic(2, {1, 2, 3}, ds)
    assert t1 < t_statistic(3, {1, 2, 3}, ds)
    assert find_most_independent({1, 2, 3}, ds) == 1


def test_requires_candidate_in_active_set():
    ds = chain_dataset(50, np.random.default_rng(0))
    with pytest.raises(NotInActiveSet):
        t_statistic(3, {1, 2}, ds)
    with pytest.raises(DimensionError):
        t_statistic(1, {1}, ds)
    with pytest.raises(DimensionError):  # the active set is read first
        t_statistic(3, {1}, ds)
    with pytest.raises(DimensionError, match="at least two variables"):
        t_profile(set(), ds)


def test_two_variable_proportional_pair_picks_cause():
    x1 = np.array([-3.0, -1.0, 1.0, 3.0])
    ds = center(np.vstack([x1, 1.5 * x1]))
    assert find_most_independent({1, 2}, ds) == 1


def test_identical_rows_tie_break_to_lower_subscript():
    row = np.array([0.25, -1.0, 0.5, 0.25])
    ds = center(np.vstack([row, row]))
    assert find_most_independent({1, 2}, ds) == 1


def test_root_pick_ties_to_first_position_and_rejects_nan():
    assert _argmin(np.array([0.5, 0.25, 0.25])) == 1
    for scores in ([0.5, float("nan"), 0.25], [0.25, 0.5, float("nan")], [float("nan")] * 2,
                   [float("inf"), float("nan")]):
        with pytest.raises(NonFiniteValue, match="^an independence score is NaN$"):
            _argmin(np.array(scores))


def test_root_pick_rejects_infinite_scores():
    for scores in ([0.5, float("inf"), 0.25], [-float("inf"), 0.5], [float("inf")] * 2):
        with pytest.raises(NonFiniteValue, match="^an independence score is infinite$"):
            _argmin(np.array(scores))


@pytest.mark.parametrize(
    "scores, pick",
    [([0.5, 0.25, 0.25], 2), ([0.5, float("nan"), 0.25], None), ([float("nan")] * 3, None)],
    ids=["tie", "nan", "all-nan"],
)
def test_most_independent_ties_to_lowest_subscript_and_rejects_nan(monkeypatch, scores, pick):
    # The scores arrive in ascending subscript order whatever the order of ``active``.
    monkeypatch.setattr(independence, "_scores", lambda x: (np.array(scores), None))
    ds = chain_dataset(50, np.random.default_rng(0))
    if pick is None:
        with pytest.raises(NonFiniteValue, match="^an independence score is NaN$"):
            find_most_independent([3, 1, 2], ds)
    else:
        assert find_most_independent([3, 1, 2], ds) == pick


@pytest.mark.parametrize("active, bad", [({0, 1, 2}, 0), ({-1, 0, 1}, -1), ({1, 2, 4}, 4)])
def test_subscripts_outside_one_to_p_raise(active, bad):
    # Without the check 0 and -1 wrap to the last rows and 4 leaks an IndexError.
    ds = chain_dataset(50, np.random.default_rng(0))
    for call in (t_profile, find_most_independent, lambda a, d: t_statistic(1, a, d)):
        with pytest.raises(DimensionError, match=rf"subscript {bad} is outside 1\.\.3"):
            call(active, ds)


def test_subscripts_that_are_not_whole_raise():
    # int() would truncate 1.9 and 2.2 and score the subscripts 1, 2 and 3.
    ds = chain_dataset(50, np.random.default_rng(0))
    with pytest.raises(DimensionError, match=r"^subscript must be an integer, got 1\.9$"):
        t_profile([1.9, 2.2, 3], ds)


def test_score_nonnegative_and_order_invariant():
    rng = np.random.default_rng(11)
    for _ in range(30):
        p = int(rng.integers(2, 5))
        ds = center(rng.standard_normal((p, 40)))
        subs = list(range(1, p + 1))
        for j in subs:
            forward = t_statistic(j, subs, ds)
            backward = t_statistic(j, list(reversed(subs)), ds)
            assert forward >= 0.0
            assert forward == backward


def test_deterministic_given_data():
    ds = chain_dataset(500, np.random.default_rng(3))
    first = t_profile({1, 2, 3}, ds)
    second = t_profile({1, 2, 3}, ds)
    assert first == second


def test_exogenous_variable_attains_minimum_on_random_models():
    """Dense random models, p <= 5, n = 20000: the true root should win
    the score minimization in at least 95% of seeded trials."""
    hits = 0
    trials = 100
    for trial in range(trials):
        rng = np.random.default_rng(1000 + trial)
        p = int(rng.integers(2, 6))
        data, truth = generate(p, 20000, "dense", rng)
        winner = find_most_independent(range(1, p + 1), data)
        hits += winner == truth.observed_order().order[0]
    assert hits >= 95, f"exogenous variable won only {hits}/100 trials"
