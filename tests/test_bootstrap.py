import numpy as np
import pytest

from lingamkit import CausalOrder, bootstrap_cis, center
from lingamkit.bootstrap import CHUNK_VALUES
from lingamkit.core import RCOND_THRESHOLD
from lingamkit.errors import TooFewObservations, TooManySingularResamples, ZeroVariance

from helpers import chain_dataset


def exact_pair_dataset():
    """x2 = 1.5 x1 exactly, on dyadic values so every resampled
    regression returns the coefficient without rounding."""
    x1 = np.array([1.0, -1.0, 2.0, -2.0, 4.0, -4.0, 0.5, -0.5])
    return center(np.vstack([x1, 1.5 * x1]))


class Degenerate(Exception):
    pass


def loop_bootstrap(data, order, level, resamples, rng, max_redraws):
    """One resample at a time: center, then one SVD-checked solve per variable.

    Returns ``(lower, upper, redraws)`` with the slots in the order the
    report lists its edges.
    """
    seq = order.order
    slots = [(seq[pos], parent) for pos in range(1, data.p) for parent in seq[:pos]]
    draws = []
    redraws = 0
    while len(draws) < resamples:
        idx = rng.integers(0, data.n, size=data.n)
        try:
            x = center(data.values[:, idx]).values
            coefs = {}
            for pos in range(1, data.p):
                preds = x[[s - 1 for s in seq[:pos]]]
                gram = preds @ preds.T
                sv = np.linalg.svd(gram, compute_uv=False)
                if sv[0] == 0.0 or sv[-1] / sv[0] < RCOND_THRESHOLD:
                    raise Degenerate
                beta = np.linalg.solve(gram, preds @ x[seq[pos] - 1])
                coefs.update({(seq[pos], j): c for j, c in zip(seq[:pos], beta)})
        except (ZeroVariance, Degenerate):
            redraws += 1
            if redraws > max_redraws:
                raise TooManySingularResamples
            continue
        draws.append([coefs[slot] for slot in slots])
    alpha = (1.0 - level) / 2.0
    draws = np.array(draws)
    return (
        np.quantile(draws, alpha, axis=0),
        np.quantile(draws, 1.0 - alpha, axis=0),
        redraws,
    )


def assert_matches_loop(data, order, resamples, seed, max_redraws=None):
    cap = resamples if max_redraws is None else max_redraws
    rng, loop_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    report = bootstrap_cis(data, order, 0.95, resamples, rng, max_redraws)
    lower, upper, redraws = loop_bootstrap(data, order, 0.95, resamples, loop_rng, cap)
    assert report.singular_redraws == redraws
    got_lower = np.array([e.lower for e in report.edges])
    got_upper = np.array([e.upper for e in report.edges])
    assert np.all(np.abs(got_lower - lower) <= 1e-9 * (1 + np.abs(lower)))
    assert np.all(np.abs(got_upper - upper) <= 1e-9 * (1 + np.abs(upper)))
    # Same number of draws: the generators end in the same state.
    assert rng.bit_generator.state == loop_rng.bit_generator.state
    return report


class TestMatchesPerResampleLoop:
    def test_chain_across_chunks(self):
        ds = chain_dataset(300, np.random.default_rng(30))
        resamples = 150
        chunk = CHUNK_VALUES // (ds.p * ds.n)
        assert chunk < resamples and resamples % chunk != 0
        assert_matches_loop(ds, CausalOrder((1, 2, 3)), resamples, seed=31)

    def test_shuffled_order_many_chunks(self):
        ds = center(np.random.default_rng(32).standard_t(3, size=(10, 1000)))
        order = CausalOrder((4, 9, 1, 10, 2, 8, 3, 7, 5, 6))
        assert 100 % (CHUNK_VALUES // (ds.p * ds.n)) != 0
        assert_matches_loop(ds, order, 100, seed=33)

    @pytest.mark.parametrize("p, n", [(2, 3), (2, 4), (3, 4), (3, 5)])
    @pytest.mark.parametrize("seed", range(3))
    def test_tiny_n_redraws_inside_a_chunk(self, p, n, seed):
        ds = center(np.random.default_rng(100 + seed).standard_normal((p, n)))
        assert CHUNK_VALUES // (p * n) >= 100
        report = assert_matches_loop(ds, CausalOrder.identity(p), 100, seed=seed)
        assert report.singular_redraws > 0

    def test_cap_trips_exactly_where_the_loop_does(self):
        ds = center(np.random.default_rng(3).standard_normal((2, 3)))
        order = CausalOrder((1, 2))
        redraws = assert_matches_loop(ds, order, 100, seed=9).singular_redraws
        assert_matches_loop(ds, order, 100, seed=9, max_redraws=redraws)
        with pytest.raises(TooManySingularResamples):
            bootstrap_cis(
                ds, order, resamples=100, rng=np.random.default_rng(9), max_redraws=redraws - 1
            )


class TestDegenerateDistribution:
    def test_noise_free_data_gives_zero_width_interval(self):
        report = bootstrap_cis(
            exact_pair_dataset(),
            CausalOrder((1, 2)),
            resamples=200,
            rng=np.random.default_rng(0),
        )
        (edge,) = report.edges
        assert edge.i == 2 and edge.j == 1
        assert edge.point == 1.5
        assert edge.lower == edge.upper == 1.5
        assert edge.significant


class TestChainModel:
    def test_interval_contains_the_true_strength(self):
        # 604 observations, matching the size of the reference application.
        ds = chain_dataset(604, np.random.default_rng(10))
        report = bootstrap_cis(ds, CausalOrder((1, 2, 3)), rng=np.random.default_rng(1))
        edge = next(e for e in report.edges if (e.i, e.j) == (2, 1))
        assert edge.lower <= 1.5 <= edge.upper
        assert edge.significant

    def test_point_estimate_inside_interval(self):
        ds = chain_dataset(604, np.random.default_rng(11))
        report = bootstrap_cis(ds, CausalOrder((1, 2, 3)), rng=np.random.default_rng(2))
        for edge in report.edges:
            assert edge.lower <= edge.point <= edge.upper

    def test_true_zero_edge_not_significant(self):
        rng = np.random.default_rng(12)
        n = 4000
        e = rng.uniform(-np.sqrt(3), np.sqrt(3), size=(3, n))
        x1 = e[0]
        x2 = 1.5 * x1 + e[1]
        x3 = -1.5 * x2 + e[2]  # no direct x1 -> x3 edge
        ds = center(np.vstack([x1, x2, x3]))
        report = bootstrap_cis(ds, CausalOrder((1, 2, 3)), rng=np.random.default_rng(3))
        edge = next(e for e in report.edges if (e.i, e.j) == (3, 1))
        assert not edge.significant


class TestIntervalProperties:
    def test_monotone_in_level(self):
        ds = chain_dataset(400, np.random.default_rng(20))
        narrow = bootstrap_cis(ds, (1, 2, 3), level=0.9, resamples=300, rng=np.random.default_rng(5))
        wide = bootstrap_cis(ds, (1, 2, 3), level=0.99, resamples=300, rng=np.random.default_rng(5))
        for lo, hi in zip(narrow.edges, wide.edges):
            assert hi.lower <= lo.lower
            assert hi.upper >= lo.upper

    def test_interval_stabilizes_with_more_resamples(self):
        ds = chain_dataset(500, np.random.default_rng(21))
        small = bootstrap_cis(ds, (1, 2, 3), resamples=2000, rng=np.random.default_rng(6))
        big = bootstrap_cis(ds, (1, 2, 3), resamples=4000, rng=np.random.default_rng(7))
        for a, b in zip(small.edges, big.edges):
            width = a.upper - a.lower
            assert abs(b.lower - a.lower) < 0.1 * width
            assert abs(b.upper - a.upper) < 0.1 * width

    def test_deterministic_given_rng_seed(self):
        ds = chain_dataset(300, np.random.default_rng(22))
        r1 = bootstrap_cis(ds, (1, 2, 3), resamples=150, rng=np.random.default_rng(8))
        r2 = bootstrap_cis(ds, (1, 2, 3), resamples=150, rng=np.random.default_rng(8))
        assert r1 == r2


class TestValidationAndFailure:
    def test_rejects_bad_level_and_resamples(self):
        ds = chain_dataset(100, np.random.default_rng(0))
        with pytest.raises(ValueError):
            bootstrap_cis(ds, (1, 2, 3), level=1.0)
        with pytest.raises(ValueError):
            bootstrap_cis(ds, (1, 2, 3), resamples=50)

    def test_propagates_too_few_observations(self):
        rng = np.random.default_rng(1)
        ds = center(rng.uniform(-1, 1, size=(5, 4)))
        with pytest.raises(TooFewObservations):
            bootstrap_cis(ds, CausalOrder.identity(5))

    def test_singular_resample_cap(self):
        # Tiny n makes degenerate resamples (all-equal columns) likely;
        # with a zero budget the cap must trip for this seed.
        rng = np.random.default_rng(2)
        ds = center(rng.standard_normal((2, 3)))
        with pytest.raises(TooManySingularResamples):
            bootstrap_cis(
                ds, (1, 2), resamples=100, rng=np.random.default_rng(123), max_redraws=0
            )

    def test_singular_resamples_counted(self):
        rng = np.random.default_rng(3)
        ds = center(rng.standard_normal((2, 3)))
        report = bootstrap_cis(ds, (1, 2), resamples=100, rng=np.random.default_rng(9))
        assert report.singular_redraws > 0
        assert len(report.edges) == 1
