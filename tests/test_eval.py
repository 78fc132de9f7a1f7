import csv
import json

import numpy as np
import pytest

from lingamkit import (
    BenchmarkGrid,
    CausalOrder,
    ConnectionMatrix,
    SynthConfig,
    frobenius_distance,
    generate,
    order_errors,
    run_benchmark,
)
from lingamkit import evaluation
from lingamkit.errors import DimensionMismatch
from lingamkit.evaluation import box_summary

from helpers import CHAIN_B


class TestOrderErrors:
    def test_true_order_gives_zero(self):
        assert order_errors(CHAIN_B, CausalOrder((1, 2, 3))) == 0

    def test_swapping_first_two_gives_one(self):
        assert order_errors(CHAIN_B, CausalOrder((2, 1, 3))) == 1

    def test_full_reversal_gives_three(self):
        assert order_errors(CHAIN_B, CausalOrder((3, 2, 1))) == 3

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            order_errors(CHAIN_B, CausalOrder((1, 2)))

    def test_bounds_on_random_models(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            p = int(rng.integers(2, 7))
            data, truth = generate(SynthConfig(p=p, n=50), rng=rng)
            k = CausalOrder(tuple(int(v) + 1 for v in rng.permutation(p)))
            count = order_errors(truth.observed_matrix(), k)
            assert 0 <= count <= p * (p - 1) // 2
            assert order_errors(truth.observed_matrix(), truth.observed_order()) == 0


class TestFrobeniusDistance:
    def test_identical_matrices(self):
        assert frobenius_distance(CHAIN_B, CHAIN_B) == 0.0

    def test_three_four_five(self):
        assert frobenius_distance(np.array([[0.0, 0.0], [3.0, 4.0]]), np.zeros((2, 2))) == 5.0

    def test_symmetric_in_arguments(self):
        a = ConnectionMatrix([[0.0, 0.0], [0.0, 0.0]])
        b = ConnectionMatrix([[0.0, 0.0], [-3.0, 0.0]])
        assert frobenius_distance(a, b) == 3.0
        assert frobenius_distance(b, a) == 3.0

    def test_homogeneity(self):
        rng = np.random.default_rng(1)
        a = rng.standard_normal((3, 3))
        assert frobenius_distance(4.0 * a, np.zeros((3, 3))) == pytest.approx(
            4.0 * frobenius_distance(a, np.zeros((3, 3)))
        )

    def test_triangle_inequality(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            a, b, c = rng.standard_normal((3, 4, 4))
            assert frobenius_distance(a, c) <= (
                frobenius_distance(a, b) + frobenius_distance(b, c) + 1e-12
            )

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            frobenius_distance(np.zeros((2, 2)), np.zeros((3, 3)))


class TestBoxSummary:
    def test_empty_is_none(self):
        assert box_summary([]) is None

    def test_median_of_nine_is_fifth_order_statistic(self):
        values = [9.0, 1.0, 5.0, 3.0, 7.0, 8.0, 2.0, 6.0, 4.0]
        assert box_summary(values)["median"] == sorted(values)[4]

    def test_whiskers_clamped_to_observed_range(self):
        s = box_summary([1.0, 2.0, 3.0, 4.0, 100.0])
        assert s["whisker_low"] == 1.0
        assert s["whisker_high"] <= 100.0
        assert s["whisker_high"] == min(100.0, s["q3"] + 1.5 * (s["q3"] - s["q1"]))


class TestBenchmarkGrid:
    def test_defaults_follow_the_protocol(self):
        grid = BenchmarkGrid()
        assert grid.p_values == (10, 20, 50, 100)
        assert grid.n_values == (30, 50, 80, 200, 500, 1000, 2000, 5000)
        assert grid.trials == 501

    def test_validation(self):
        with pytest.raises(ValueError):
            BenchmarkGrid(p_values=())
        with pytest.raises(ValueError):
            BenchmarkGrid(trials=0)
        with pytest.raises(ValueError):
            BenchmarkGrid(estimators=("direct", "pc"))


class TestRunBenchmark:
    def test_empty_estimator_set(self):
        grid = BenchmarkGrid(p_values=(3,), n_values=(50,), trials=2, estimators=())
        report = run_benchmark(grid)
        assert report.cells[0].trials == {}
        assert report.cells[0].summaries == {}

    def test_smoke_cell_has_one_entry_per_trial(self):
        grid = BenchmarkGrid(
            p_values=(5,), n_values=(1000,), trials=9, estimators=("direct",), master_seed=5
        )
        report = run_benchmark(grid)
        results = report.cells[0].trials["direct"]
        assert len(results) == 9
        assert [r.trial for r in results] == list(range(9))
        raw = [r.order_errors for r in results]
        assert report.cells[0].summaries["direct"]["order_errors"]["median"] == sorted(raw)[4]

    def test_direct_beats_or_ties_baseline_at_large_n(self):
        grid = BenchmarkGrid(
            p_values=(10,),
            n_values=(2000,),
            trials=25,
            estimators=("direct", "ica_baseline"),
            master_seed=1,
        )
        report = run_benchmark(grid)
        s = report.cells[0].summaries
        assert (
            s["direct"]["order_errors"]["median"]
            <= s["ica_baseline"]["order_errors"]["median"]
        )

    def test_failures_recorded_not_raised(self):
        grid = BenchmarkGrid(
            p_values=(20,),
            n_values=(15,),
            trials=3,
            estimators=("direct", "ica_baseline"),
            master_seed=2,
        )
        report = run_benchmark(grid)
        cell = report.cells[0]
        # The baseline fails completely in the p > n regime.
        assert cell.failures["ica_baseline"] == 3
        assert all(r.error == "RankDeficient" for r in cell.trials["ica_baseline"])
        assert cell.summaries["ica_baseline"]["order_errors"] is None
        # The direct estimator still orders the variables; only strength
        # estimation is impossible without regularization.
        assert all(r.order_errors is not None for r in cell.trials["direct"])
        assert all(r.frobenius is None for r in cell.trials["direct"])
        assert all(r.error == "TooFewObservations" for r in cell.trials["direct"])
        assert cell.summaries["direct"]["order_errors"] is not None

    def test_deterministic_and_thread_invariant(self):
        grid = BenchmarkGrid(
            p_values=(4,), n_values=(200,), trials=6, estimators=("direct", "ica_baseline")
        )
        solo = run_benchmark(grid, threads=1)
        pooled = run_benchmark(grid, threads=3)
        assert solo.to_dict() == pooled.to_dict()

    def test_summaries_recomputable_from_raw_lists(self):
        grid = BenchmarkGrid(p_values=(4,), n_values=(300,), trials=7, estimators=("direct",))
        report = run_benchmark(grid)
        cell = report.cells[0]
        ok = [r for r in cell.trials["direct"] if not r.failed]
        assert box_summary([r.order_errors for r in ok]) == cell.summaries["direct"]["order_errors"]
        assert box_summary([r.frobenius for r in ok]) == cell.summaries["direct"]["frobenius"]

    def test_json_summaries_match_csv_rows(self, tmp_path):
        grid = BenchmarkGrid(p_values=(4,), n_values=(250,), trials=8, estimators=("direct",))
        report = run_benchmark(grid)
        csv_path = tmp_path / "report.csv"
        report.write_csv(csv_path)
        with open(csv_path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 8
        med = float(np.median([float(r["frobenius"]) for r in rows]))
        doc = report.to_dict()
        stored = doc["cells"][0]["estimators"]["direct"]["summaries"]["frobenius"]["median"]
        assert med == stored
        assert "seconds" not in doc["cells"][0]["estimators"]["direct"]["trials"][0]

    def test_timings_included_on_request(self):
        grid = BenchmarkGrid(p_values=(3,), n_values=(100,), trials=2, estimators=("direct",))
        doc = run_benchmark(grid).to_dict(include_timings=True)
        trial = doc["cells"][0]["estimators"]["direct"]["trials"][0]
        assert trial["seconds"] > 0


def report_bytes(report, tmp_path):
    """The report's JSON and CSV artifacts, as bytes."""
    report.write_csv(tmp_path / "report.csv")
    return json.dumps(report.to_dict()).encode(), (tmp_path / "report.csv").read_bytes()


class TestWorkerProcesses:
    @pytest.mark.parametrize("threads", [0, -2])
    def test_fewer_than_one_worker_rejected(self, threads):
        grid = BenchmarkGrid(p_values=(3,), n_values=(40,), trials=1)
        with pytest.raises(ValueError, match="threads must be at least 1"):
            run_benchmark(grid, threads=threads)

    def test_more_workers_than_tasks_same_bytes(self, tmp_path):
        grid = BenchmarkGrid(p_values=(3,), n_values=(40,), trials=2, master_seed=3)
        assert report_bytes(run_benchmark(grid, threads=5), tmp_path) == report_bytes(
            run_benchmark(grid, threads=1), tmp_path
        )

    @pytest.mark.parametrize("threads", [1, 2])
    def test_unexpected_error_in_a_trial_reaches_the_caller(self, monkeypatch, threads):
        # Only LingamError codes are recorded per trial; anything else is a bug
        # and must surface with its own type, also from a worker process.
        def broken(*args, **kwargs):
            raise FloatingPointError("broken estimator")

        monkeypatch.setattr(evaluation.direct, "estimate_order", broken)
        grid = BenchmarkGrid(p_values=(3,), n_values=(40,), trials=3, estimators=("direct",))
        with pytest.raises(FloatingPointError, match="broken estimator"):
            run_benchmark(grid, threads=threads)

    def test_p_above_n_error_codes_independent_of_workers(self):
        grid = BenchmarkGrid(p_values=(20,), n_values=(8, 15), trials=3, master_seed=6)

        def codes(threads):
            report = run_benchmark(grid, threads=threads)
            return [
                [r.error for r in cell.trials[name]]
                for cell in report.cells
                for name in grid.estimators
            ]

        serial = codes(1)
        assert set(sum(serial, [])) == {"TooFewObservations", "RankDeficient"}
        assert codes(2) == serial
        assert codes(4) == serial
