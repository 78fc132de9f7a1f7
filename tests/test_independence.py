import numpy as np
import pytest

from lingamkit import (
    IndependenceConfig,
    SynthConfig,
    center,
    find_most_independent,
    generate,
    t_profile,
    t_statistic,
)
from lingamkit.errors import DimensionError, NonFiniteValue, NotInActiveSet
from lingamkit.independence import select_minimum

from helpers import chain_dataset, loop_t_statistic, scratch_t_statistic


def test_exact_proportionality_scores_zero():
    x1 = np.array([-3.0, -1.0, 1.0, 3.0])
    ds = center(np.vstack([x1, 1.5 * x1]))
    assert t_statistic(1, {1, 2}, ds) == 0.0


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


def test_two_variable_proportional_pair_picks_cause():
    x1 = np.array([-3.0, -1.0, 1.0, 3.0])
    ds = center(np.vstack([x1, 1.5 * x1]))
    assert find_most_independent({1, 2}, ds) == 1


def test_identical_rows_tie_break_to_lower_subscript():
    row = np.array([0.25, -1.0, 0.5, 0.25])
    ds = center(np.vstack([row, row]))
    assert find_most_independent({1, 2}, ds) == 1


def test_select_minimum_rejects_nan_scores():
    assert select_minimum({1: 0.5, 2: 0.25, 3: 0.25}) == 2
    with pytest.raises(NonFiniteValue):
        select_minimum({1: 0.5, 2: float("nan"), 3: 0.25})
    with pytest.raises(NonFiniteValue):
        select_minimum({1: float("nan"), 2: float("nan")})


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
    cfg = IndependenceConfig()
    first = t_profile({1, 2, 3}, ds, cfg)
    second = t_profile({1, 2, 3}, ds, cfg)
    assert first == second


def test_unknown_nonlinearity_rejected():
    with pytest.raises(ValueError):
        IndependenceConfig(nonlinearity="cube")


def test_exogenous_variable_attains_minimum_on_random_models():
    """Dense random models, p <= 5, n = 20000: the true root should win
    the score minimization in at least 95% of seeded trials."""
    hits = 0
    trials = 100
    for trial in range(trials):
        rng = np.random.default_rng(1000 + trial)
        p = int(rng.integers(2, 6))
        cfg = SynthConfig(p=p, n=20000, network="dense", seed=0)
        data, truth = generate(cfg, rng=rng)
        winner = find_most_independent(range(1, p + 1), data)
        hits += winner == truth.observed_root()
    assert hits >= 95, f"exogenous variable won only {hits}/100 trials"
