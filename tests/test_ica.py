import json
import math

import numpy as np
import pytest

from lingamkit import (
    BaselineModel,
    CausalOrder,
    ConnectionMatrix,
    Dataset,
    b_from_unmixing,
    center,
    diagonal_permutation,
    fastica,
    fit,
    generate,
    ica_lingam_fit,
    prune_and_order,
)
from lingamkit import ica
from lingamkit.cli import main, write_dataset_csv
from lingamkit.errors import (
    DimensionError,
    NoFeasibleAssignment,
    NonFiniteValue,
    RankDeficient,
    ZeroDiagonal,
)
from lingamkit.ica import _whiten

from helpers import CHAIN_B, brute_force_assignment, chain_dataset, linear_prune_and_order


def dominance_ratios(wa):
    """Per-row ratio of the largest off-dominant entry to the dominant one."""
    ratios = []
    for row in np.abs(wa):
        top = row.max()
        rest = np.delete(row, row.argmax())
        ratios.append(rest.max() / top)
    return ratios


class TestFastIca:
    def test_identity_mixing_recovers_permutation_scale(self):
        rng = np.random.default_rng(0)
        sources = rng.uniform(-np.sqrt(3), np.sqrt(3), size=(3, 5000))
        ds = center(sources)
        w, converged = fastica(ds, np.random.default_rng(1))
        assert converged
        wa = w @ np.eye(3)
        assert max(dominance_ratios(wa)) < 0.1
        # dominant entries land in distinct columns (a permutation pattern)
        assert sorted(np.abs(wa).argmax(axis=1)) == [0, 1, 2]

    def test_two_source_mixture(self):
        rng = np.random.default_rng(3)
        e = rng.uniform(-np.sqrt(3), np.sqrt(3), size=(2, 8000))
        mixing = np.array([[1.0, 0.0], [1.5, 1.0]])
        ds = center(mixing @ e)
        w, converged = fastica(ds, np.random.default_rng(2))
        assert converged
        assert max(dominance_ratios(w @ mixing)) < 0.1

    def test_more_variables_than_observations(self):
        rng = np.random.default_rng(8)
        ds = center(rng.uniform(-1, 1, size=(20, 15)))
        with pytest.raises(RankDeficient):
            fastica(ds, np.random.default_rng(0))

    def test_rank_deficient_covariance(self):
        rng = np.random.default_rng(9)
        a = rng.standard_normal(50)
        b = rng.standard_normal(50)
        ds = center(np.vstack([a, b, a + b]))
        with pytest.raises(RankDeficient):
            fastica(ds, np.random.default_rng(0))

    def test_whitened_covariance_is_identity(self):
        rng = np.random.default_rng(4)
        values = center(rng.standard_normal((4, 3000))).values
        z = _whiten(values) @ values
        assert np.allclose(z @ z.T / z.shape[1], np.eye(4), atol=1e-8)

    def test_deterministic_given_seed(self):
        ds = chain_dataset(2000, np.random.default_rng(5))
        w1, c1 = fastica(ds, np.random.default_rng(7))
        w2, c2 = fastica(ds, np.random.default_rng(7))
        assert np.array_equal(w1, w2)
        assert c1 == c2

    @pytest.mark.parametrize(
        "make, seed",
        [
            (lambda: chain_dataset(2000, np.random.default_rng(5)), 7),
            (lambda: generate(10, 1000, "random-choice", np.random.default_rng(1))[0], 3),
        ],
        ids=["chain", "random-choice"],
    )
    def test_convergence_on_the_first_start_draws_one_start_per_component(self, make, seed):
        ds = make()
        rng, expected = np.random.default_rng(seed), np.random.default_rng(seed)
        _, converged = fastica(ds, rng)
        for _ in range(ds.p):
            expected.standard_normal(ds.p)
        assert converged is True
        assert rng.bit_generator.state == expected.bit_generator.state

    @pytest.mark.parametrize(
        "scale, message",
        [
            ([1e160], "overflows"),
            ([1e-170], "underflows"),
            ([1e-170, 1.0, 1.0], "underflows"),
        ],
        ids=["overflow", "underflow", "one-row-underflow"],
    )
    def test_covariance_outside_the_float_range_raises_non_finite(self, tmp_path, capsys, scale, message):
        # Finite, full-rank data whose sample covariance overflows must fail with a
        # LingamError before eigh, which raises numpy's LinAlgError on it; one with a
        # variance that underflows to 0 is not singular, and fails as the direct fit does.
        e = np.random.default_rng(0).standard_normal((3, 50)) ** 3
        ds = Dataset(e * np.array(scale)[:, None])
        with pytest.raises(NonFiniteValue, match=f"^sample covariance {message}"):
            ica_lingam_fit(ds, np.random.default_rng(0))
        if message == "underflows":
            with pytest.raises(NonFiniteValue, match="^Gram matrix underflows"):
                fit(ds)
        write_dataset_csv(tmp_path / "x.csv", ds)
        argv = ["fit", "--method", "ica", "--seed", "0", "--input", str(tmp_path / "x.csv"),
                "--output", str(tmp_path / "m.json")]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"NonFiniteValue: sample covariance {message}") and err.count("\n") == 1
        assert not (tmp_path / "m.json").exists()

    def test_non_convergence_is_reported_after_every_restart(self, tmp_path, monkeypatch):
        # A drift is never below 0, so no component converges and each one draws
        # RESTARTS + 1 starting vectors; the flag reaches the model file.
        monkeypatch.setattr(ica, "MAX_ITERATIONS", 2)
        monkeypatch.setattr(ica, "TOLERANCE", 0.0)
        ds = chain_dataset(200, np.random.default_rng(5))
        rng, expected = np.random.default_rng(7), np.random.default_rng(7)
        _, converged = fastica(ds, rng)
        for _ in range(ds.p * (ica.RESTARTS + 1)):
            expected.standard_normal(ds.p)
        assert converged is False
        assert rng.bit_generator.state == expected.bit_generator.state
        assert ica_lingam_fit(ds, np.random.default_rng(7)).converged is False
        write_dataset_csv(tmp_path / "x.csv", ds)
        argv = ["fit", "--method", "ica", "--seed", "7", "--input", str(tmp_path / "x.csv"),
                "--output", str(tmp_path / "m.json")]
        assert main(argv) == 0
        assert json.loads((tmp_path / "m.json").read_text(encoding="utf-8"))["converged"] is False


class TestDiagonalPermutation:
    def test_diagonally_dominant_keeps_identity(self):
        w = np.array([[5.0, 0.1], [0.2, -4.0]])
        w_tilde, row_order = diagonal_permutation(w)
        assert row_order == (0, 1)
        assert np.array_equal(w_tilde, w)

    def test_antidiagonal_swaps(self):
        w_tilde, row_order = diagonal_permutation(np.array([[0.0, 2.0], [3.0, 0.0]]))
        assert row_order == (1, 0)
        assert w_tilde.tolist() == [[3.0, 0.0], [0.0, 2.0]]

    def test_matches_brute_force_on_random_matrices(self):
        rng = np.random.default_rng(31)
        for _ in range(200):
            p = int(rng.integers(2, 6))
            w = rng.standard_normal((p, p))
            w[rng.random((p, p)) < 0.3] = 0.0
            expected = brute_force_assignment(w)
            if expected is None:
                with pytest.raises(NoFeasibleAssignment):
                    diagonal_permutation(w)
            else:
                w_tilde, _ = diagonal_permutation(w)
                cost = float(np.sum(1.0 / np.abs(np.diagonal(w_tilde))))
                assert cost == pytest.approx(expected, rel=1e-12)

    def test_infeasible_raises(self):
        with pytest.raises(NoFeasibleAssignment):
            diagonal_permutation(np.array([[0.0, 1.0], [0.0, 1.0]]))

    def test_non_square_rejected(self):
        with pytest.raises(DimensionError, match=r"^expected a square matrix, got shape \(2, 3\)$"):
            diagonal_permutation(np.ones((2, 3)))


class TestBFromUnmixing:
    def test_identity_gives_zero(self):
        assert b_from_unmixing(np.eye(3)).entries.tolist() == np.zeros((3, 3)).tolist()

    def test_hand_computed_example(self):
        b = b_from_unmixing(np.array([[2.0, 0.0], [-3.0, 3.0]]))
        assert b.entries.tolist() == [[0.0, 0.0], [1.0, 0.0]]

    def test_round_trip_from_connection_matrix(self):
        w = np.eye(3) - CHAIN_B.entries
        recovered = b_from_unmixing(w)
        assert recovered.entries == pytest.approx(CHAIN_B.entries, abs=1e-12)

    def test_zero_diagonal_rejected(self):
        with pytest.raises(ZeroDiagonal):
            b_from_unmixing(np.array([[0.0, 1.0], [1.0, 1.0]]))

    def test_diagonal_is_exactly_zero_at_any_finite_scale(self):
        # x / x is exactly 1 for finite nonzero x, subnormal and near-overflow included.
        w = np.array([[5e-324, 1e-320, 0.0], [2.0, 1.7e308, 1e308], [0.0, -1.0, -3.0]])
        assert np.diagonal(b_from_unmixing(w).entries).tobytes() == np.zeros(3).tobytes()

    def test_non_finite_diagonal_rejected(self):
        with pytest.raises(NonFiniteValue, match=r"^entry \(1, 1\) is nan$"):
            b_from_unmixing(np.array([[np.nan, 1.0], [1.0, 1.0]]))


def scratch_prune(entries):
    """Independent reimplementation of the prune loop: zero smallest
    entries (lexicographic tie-break), test with exhaustive search."""
    import itertools

    entries = [row[:] for row in entries]
    p = len(entries)
    ranked = sorted(
        ((abs(entries[r][c]), r, c) for r in range(p) for c in range(p))
    )

    def lowerable():
        for perm in itertools.permutations(range(p)):
            ok = all(
                entries[perm[i]][perm[j]] == 0.0
                for i in range(p)
                for j in range(i, p)
            )
            if ok:
                return [i + 1 for i in perm]
        return None

    head = p * (p + 1) // 2
    for _, r, c in ranked[:head]:
        entries[r][c] = 0.0
    pos = head
    while True:
        order = lowerable()
        if order is not None:
            return order, entries
        _, r, c = ranked[pos]
        entries[r][c] = 0.0
        pos += 1


class TestPruneAndOrder:
    def test_already_strictly_lower(self):
        b = ConnectionMatrix([[0.0, 0.0, 0.0], [2.0, 0.0, 0.0], [3.0, 4.0, 0.0]])
        order, pruned = prune_and_order(b)
        assert order.order == (1, 2, 3)
        assert np.array_equal(pruned.entries, b.entries)

    def test_small_upper_noise_removed(self):
        noisy = CHAIN_B.entries.copy()
        noisy[0, 1] = 0.01
        noisy[0, 2] = -0.01
        noisy[1, 2] = 0.01
        order, pruned = prune_and_order(ConnectionMatrix(noisy))
        assert order.order == (1, 2, 3)
        assert np.array_equal(pruned.entries, CHAIN_B.entries)

    def test_adversarial_case_needs_two_extra_zeroings(self):
        # Surviving head entries form a 2-cycle plus a spur; the loop
        # must zero twice more before a valid permutation appears.
        b = ConnectionMatrix(
            [[0.0, 5.0, 0.1], [6.0, 0.0, 0.2], [4.0, 0.3, 0.0]]
        )
        order, pruned = prune_and_order(b)
        expected_order, expected_entries = scratch_prune(b.entries.tolist())
        assert list(order.order) == expected_order
        assert pruned.entries.tolist() == expected_entries

    def test_matches_scratch_on_random_matrices(self):
        rng = np.random.default_rng(55)
        for _ in range(50):
            p = int(rng.integers(2, 5))
            mat = rng.standard_normal((p, p))
            np.fill_diagonal(mat, 0.0)
            order, pruned = prune_and_order(ConnectionMatrix(mat))
            expected_order, expected_entries = scratch_prune(mat.tolist())
            assert pruned.entries.tolist() == expected_entries
            # The found permutation must validate even if tie-broken differently.
            idx = order.indices
            assert not np.any(np.triu(pruned.entries[np.ix_(idx, idx)]) != 0.0)
            assert list(order.order) == expected_order

    def test_bisection_matches_linear_scan_in_log_checks(self, monkeypatch):
        calls = []
        check = ica.find_strict_lower_permutation
        monkeypatch.setattr(
            ica, "find_strict_lower_permutation", lambda b: calls.append(b) or check(b)
        )
        rng = np.random.default_rng(404)
        for p in range(2, 31):
            perm = rng.permutation(p)
            lower = np.tril(rng.standard_normal((p, p)), -1)[np.ix_(perm, perm)]
            mats = {
                "dense": rng.standard_normal((p, p)),
                "tied magnitudes": rng.integers(-2, 3, size=(p, p)).astype(float),
                "already lower": lower,
                "lower plus upper noise": lower + 0.01 * np.triu(rng.standard_normal((p, p)), 1),
            }
            bound = math.ceil(math.log2(p * p - p * (p + 1) // 2 + 1)) + 1
            for kind, mat in mats.items():
                np.fill_diagonal(mat, 0.0)
                calls.clear()
                order, pruned = prune_and_order(ConnectionMatrix(mat))
                ref_order, ref_pruned = linear_prune_and_order(ConnectionMatrix(mat))
                assert order == ref_order, (p, kind)
                assert pruned.entries.tolist() == ref_pruned.entries.tolist(), (p, kind)
                assert len(calls) <= bound, (p, kind)


class TestIcaLingamFit:
    def test_model_refuses_a_pruned_matrix_its_order_does_not_fit(self):
        with pytest.raises(ValueError, match="^pruned matrix is not strictly lower triangular"):
            BaselineModel(CausalOrder((3, 2, 1)), CHAIN_B, CHAIN_B, converged=True)

    @pytest.mark.parametrize(
        "field, value, kind",
        [("order", (1, 2, 3), "CausalOrder"), ("strengths", CHAIN_B.entries, "ConnectionMatrix"),
         ("converged", "yes", "bool")],
    )
    def test_model_refuses_a_field_of_another_type(self, field, value, kind):
        # A tuple order has no ``.order``, which the CLI reads when it writes the model.
        fields = {"order": CausalOrder((1, 2, 3)), "strengths": CHAIN_B, "pruned": CHAIN_B, "converged": True}
        with pytest.raises(TypeError, match=f"^{field} must be a {kind}, got "):
            BaselineModel(**{**fields, field: value})

    def test_chain_model(self):
        ds = chain_dataset(10000, np.random.default_rng(19))
        model = ica_lingam_fit(ds, np.random.default_rng(3))
        assert model.order.order == (1, 2, 3)
        assert model.strengths.entries == pytest.approx(CHAIN_B.entries, abs=0.1)
        assert model.converged

    def test_independent_pair_prunes_to_noise_level(self):
        rng = np.random.default_rng(29)
        ds = center(rng.uniform(-1, 1, size=(2, 10000)))
        model = ica_lingam_fit(ds, np.random.default_rng(4))
        assert np.max(np.abs(model.pruned.entries)) < 0.1

    def test_deterministic_given_seed(self):
        ds = chain_dataset(1500, np.random.default_rng(2))
        m1 = ica_lingam_fit(ds, np.random.default_rng(11))
        m2 = ica_lingam_fit(ds, np.random.default_rng(11))
        assert m1.order.order == m2.order.order
        assert np.array_equal(m1.strengths.entries, m2.strengths.entries)
        assert np.array_equal(m1.pruned.entries, m2.pruned.entries)
        assert m1.converged == m2.converged
