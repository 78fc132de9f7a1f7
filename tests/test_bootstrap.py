import math
import re

import numpy as np
import pytest

from lingamkit import CausalOrder, bootstrap, bootstrap_cis, center, estimate_strengths
from lingamkit.bootstrap import CHUNK_VALUES, EdgeInterval
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


def loop_bootstrap(data, order, level, resamples, rng):
    """One resample at a time: center, then one SVD-checked solve per variable.
    A resample is redrawn when a Gram entry overflows, except the last variable's
    own sum of squares, which no regression reads, or when a coefficient does; more
    than ``resamples`` redraws raise.

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
            with np.errstate(over="ignore", invalid="ignore"):
                gram = x @ x.T
            gram[seq[-1] - 1, seq[-1] - 1] = 0.0
            if not np.isfinite(gram).all():
                raise Degenerate
            coefs = {}
            for pos in range(1, data.p):
                preds = x[[s - 1 for s in seq[:pos]]]
                gram = preds @ preds.T
                sv = np.linalg.svd(gram, compute_uv=False)
                if sv[0] == 0.0 or sv[-1] / sv[0] < RCOND_THRESHOLD:
                    raise Degenerate
                beta = np.linalg.solve(gram, preds @ x[seq[pos] - 1])
                if not np.isfinite(beta).all():
                    raise Degenerate
                coefs.update({(seq[pos], j): c for j, c in zip(seq[:pos], beta)})
        except (ZeroVariance, Degenerate):
            redraws += 1
            if redraws > resamples:
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


def half_degenerate_pair():
    """n = 2: a resample that draws the same column twice is constant, so half are redrawn."""
    return center([[1.0, -1.0], [0.5, 2.0]])


def assert_matches_loop(data, order, resamples, seed):
    rng, loop_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    report = bootstrap_cis(data, order, rng, 0.95, resamples)
    lower, upper, redraws = loop_bootstrap(data, order, 0.95, resamples, loop_rng)
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

    @pytest.mark.parametrize("seed", [0, 2, 3, 4, 5, 8, 9])
    def test_resamples_whose_gram_overflows_are_redrawn(self, seed):
        # The point estimate's Gram matrix is finite, some resamples' are not:
        # x1 is regressed on the large variable, so its sum of squares is read.
        # Tier-1 turns every warning into an error, so an overflow warning fails here.
        x1, x2, x3 = np.random.default_rng(seed).standard_normal((3, 100))
        ds = center(np.vstack([x1, (x3 + x1) * 0.85e153]))
        report = assert_matches_loop(ds, CausalOrder((2, 1)), 200, seed=seed)
        assert report.singular_redraws > 0

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_resamples_whose_coefficient_overflows_are_redrawn(self, seed):
        # Every Gram entry a regression reads is finite, and so is the point estimate
        # (1.4e308 to 1.5e308), but some resamples' coefficients lie past the float range.
        a, b = np.random.default_rng(seed).standard_normal((2, 50))
        ds = center(np.vstack([a * 1e-151, (b + a) * 1.6e157]))
        assert np.isfinite(estimate_strengths(ds, (1, 2)).entries).all()
        report = assert_matches_loop(ds, CausalOrder((1, 2)), 200, seed=seed)
        assert report.singular_redraws > 0
        assert np.isfinite([report.edges[0].lower, report.edges[0].upper]).all()

    @pytest.mark.parametrize("seed", [0, 2, 3])
    def test_overflow_of_the_unread_entry_is_not_redrawn(self, seed):
        # The same large variable last in the order: only its own sum of squares
        # overflows, and no regression reads it.
        x1, x2, x3 = np.random.default_rng(seed).standard_normal((3, 100))
        ds = center(np.vstack([x1, x2, (x3 + x1) * 0.85e153]))
        report = assert_matches_loop(ds, CausalOrder((1, 2, 3)), 200, seed=seed)
        assert report.singular_redraws == 0

    def test_cap_trips_exactly_where_the_loop_does(self):
        # The cap is ``resamples`` redraws: seeds 0, 1 and 3 pass it, 2, 4 and 5 end below it.
        ds, order = half_degenerate_pair(), CausalOrder((1, 2))
        for seed in (0, 1, 3):
            with pytest.raises(TooManySingularResamples):
                bootstrap_cis(ds, order, np.random.default_rng(seed), resamples=100)
            with pytest.raises(TooManySingularResamples):
                loop_bootstrap(ds, order, 0.95, 100, np.random.default_rng(seed))
        for seed, redraws in ((2, 97), (4, 88), (5, 68)):
            assert assert_matches_loop(ds, order, 100, seed).singular_redraws == redraws


class TestMatchesPerResampleLoopInSmallBatches(TestMatchesPerResampleLoop):
    """The cases above with ``CHUNK_VALUES`` at 256, so one call spans several solve
    batches of ``256 // (p*p)`` resamples, each gathered in chunks of ``256 // (p*n)``
    (at least one). The chunk sizes the inherited cases assert are the default's."""

    @pytest.fixture(autouse=True)
    def batch_sizes(self, monkeypatch):
        sizes = []
        solve = bootstrap._ordered_least_squares

        def recording(gram):
            sizes.append(len(gram))
            return solve(gram)

        monkeypatch.setattr(bootstrap, "CHUNK_VALUES", 256)
        monkeypatch.setattr(bootstrap, "_ordered_least_squares", recording)
        return sizes

    def test_redraws_before_the_last_batch(self, batch_sizes):
        # p = 2, n = 3: batches of 64 resamples, gathered in chunks of 42 and 22.
        ds = center(np.random.default_rng(100).standard_normal((2, 3)))
        report = assert_matches_loop(ds, CausalOrder.identity(2), 100, seed=0)
        assert len(batch_sizes) >= 3 and batch_sizes[0] == 64
        # The last batch draws exactly what is missing, so every resample drawn
        # beyond 100 before it was a redraw.
        assert sum(batch_sizes) - 100 > 0
        assert report.singular_redraws >= sum(batch_sizes) - 100


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

    def test_significance_is_derived_from_the_interval(self):
        assert EdgeInterval(i=2, j=1, point=0.5, lower=0.1, upper=0.9).significant
        assert not EdgeInterval(i=2, j=1, point=0.0, lower=-0.1, upper=0.0).significant
        with pytest.raises(TypeError):
            EdgeInterval(i=2, j=1, point=0.5, lower=0.1, upper=0.9, significant=False)

    def test_deterministic_given_rng_seed(self):
        ds = chain_dataset(300, np.random.default_rng(22))
        r1 = bootstrap_cis(ds, (1, 2, 3), resamples=150, rng=np.random.default_rng(8))
        r2 = bootstrap_cis(ds, (1, 2, 3), resamples=150, rng=np.random.default_rng(8))
        assert r1 == r2


class TestValidationAndFailure:
    def test_interval_bounds_must_be_ordered(self):
        with pytest.raises(ValueError, match="^lower 0.9 exceeds upper 0.1$"):
            EdgeInterval(i=2, j=1, point=0.5, lower=0.9, upper=0.1)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, 10**400, "0.1", None, True],
                             ids=["nan", "inf", "10**400", "str", "None", "True"])
    def test_interval_bounds_must_be_finite_numbers(self, bad):
        # NaN, an infinity or a value that is not a real number is refused before the order
        # test, in the point estimate as in either bound.
        for point, lower, upper, field in ((0.5, bad, 0.9, "lower"), (0.5, 0.1, bad, "upper"),
                                           (0.5, bad, bad, "lower"), (bad, 0.1, 0.9, "point")):
            with pytest.raises(ValueError, match=f"^{field} must be a finite number, got {re.escape(repr(bad))}$"):
                EdgeInterval(i=2, j=1, point=point, lower=lower, upper=upper)

    @pytest.mark.parametrize(
        "i, j, message",
        [(0, 0, "i must be at least 1, got 0"), (2, 0, "j must be at least 1, got 0"),
         ("a", None, "i must be an integer, got 'a'"), (2, None, "j must be an integer, got None"),
         (2, 1.5, "j must be an integer, got 1.5")],
        ids=["zero-zero", "zero-j", "name-none", "none-j", "half-j"],
    )
    def test_interval_subscripts_are_whole_numbers_of_at_least_one(self, i, j, message):
        # Without the rule, (0, 0) printed the edge of the last label into itself.
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            EdgeInterval(i=i, j=j, point=0.5, lower=0.1, upper=0.9)

    def test_interval_holds_its_fields_as_read(self):
        edge = EdgeInterval(i=2.0, j=np.int64(1), point=np.float32(0.5), lower=0, upper=1)
        assert [type(v) for v in (edge.i, edge.j, edge.point, edge.lower, edge.upper)] == [int, int] + [float] * 3
        assert edge.as_text(("a", "b")) == "a -> b : 0.5 [0, 1] ns"

    def test_rejects_bad_level_and_resamples(self):
        ds = chain_dataset(100, np.random.default_rng(0))
        with pytest.raises(ValueError):
            bootstrap_cis(ds, (1, 2, 3), np.random.default_rng(0), level=1.0)
        with pytest.raises(ValueError):
            bootstrap_cis(ds, (1, 2, 3), np.random.default_rng(0), resamples=50)

    def test_resample_count_is_read_as_a_whole_number(self):
        ds = chain_dataset(100, np.random.default_rng(0))
        reports = [
            bootstrap_cis(ds, (1, 2, 3), np.random.default_rng(4), 0.95, count)
            for count in (150, 150.0, np.int64(150))
        ]
        assert reports[0] == reports[1] == reports[2]
        assert all(type(r.resamples) is int for r in reports)
        for bad in (150.5, True):
            with pytest.raises(ValueError, match=f"^resamples must be an integer, got {bad}$"):
                bootstrap_cis(ds, (1, 2, 3), np.random.default_rng(4), 0.95, bad)

    def test_resample_count_past_the_draw_buffer_is_refused_before_any_work(self):
        # 10**400 fails the rule before any allocation; numpy would refuse the buffer's shape.
        ds = chain_dataset(100, np.random.default_rng(0))
        most = np.iinfo(np.intp).max
        with pytest.raises(ValueError, match=f"^resamples must be at most {most}, got {10**400}$"):
            bootstrap_cis(ds, (3, 2, 1, 1), np.random.default_rng(4), resamples=10**400)

    def test_propagates_too_few_observations(self):
        rng = np.random.default_rng(1)
        ds = center(rng.uniform(-1, 1, size=(5, 4)))
        with pytest.raises(TooFewObservations):
            bootstrap_cis(ds, CausalOrder.identity(5), np.random.default_rng(0))

    def test_singular_resample_cap(self):
        # With n = 2 half the resamples are degenerate; for this seed more than
        # ``resamples`` of them come before the hundredth good one.
        with pytest.raises(TooManySingularResamples, match="101 degenerate resamples exceeded the cap of 100"):
            bootstrap_cis(half_degenerate_pair(), (1, 2), resamples=100, rng=np.random.default_rng(0))

    def test_singular_resamples_counted(self):
        rng = np.random.default_rng(3)
        ds = center(rng.standard_normal((2, 3)))
        report = bootstrap_cis(ds, (1, 2), resamples=100, rng=np.random.default_rng(9))
        assert report.singular_redraws > 0
        assert len(report.edges) == 1
