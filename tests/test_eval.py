import csv
import json
import os
import re
import signal
import subprocess
import sys
import textwrap
import threading
import time

import numpy as np
import pytest

from lingamkit import (
    BenchmarkGrid,
    CausalOrder,
    ConnectionMatrix,
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
        assert order_errors(np.array(CHAIN_B.entries), CausalOrder((3, 2, 1))) == 3

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            order_errors(CHAIN_B, CausalOrder((1, 2)))

    def test_bounds_on_random_models(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            p = int(rng.integers(2, 7))
            data, truth = generate(p, 50, "random-choice", rng)
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
        with pytest.raises(ValueError, match="^estimators must not repeat a name"):
            BenchmarkGrid(estimators=("direct", "ica_baseline", "direct"))
        with pytest.raises(ValueError, match="^estimators must be non-empty$"):
            BenchmarkGrid(estimators=())
        with pytest.raises(ValueError, match="^p_values and n_values must be non-empty$"):
            BenchmarkGrid(p_values=[], n_values=[])

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"p_values": "10"}, "p_values must be a list, got '10'"),
            ({"n_values": 50}, "n_values must be a list, got 50"),
            ({"p_values": (4, 2.5)}, "p_values must be an integer, got 2.5"),
            ({"trials": 1.7}, "trials must be an integer, got 1.7"),
            ({"trials": None}, "trials must be an integer, got None"),
            ({"trials": float("nan")}, "trials must be an integer, got nan"),
            ({"master_seed": "0"}, "master_seed must be an integer, got '0'"),
            ({"master_seed": False}, "master_seed must be an integer, got False"),
            ({"estimators": "direct"}, "estimators must be a list, got 'direct'"),
            ({"estimators": None}, "estimators must be a list, got None"),
            ({"master_seed": -1}, "master_seed must be at least 0, got -1"),
        ],
    )
    def test_wrong_type_names_the_field(self, kwargs, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            BenchmarkGrid(**kwargs)

    def test_integral_values_become_ints(self):
        grid = BenchmarkGrid(
            p_values=[4.0], n_values=range(50, 52), trials=np.float64(2), master_seed=np.int64(3),
            estimators=["direct"],
        )
        assert grid == BenchmarkGrid(
            p_values=(4,), n_values=(50, 51), trials=2, master_seed=3, estimators=("direct",)
        )
        assert all(type(v) is int for v in (*grid.p_values, *grid.n_values, grid.trials, grid.master_seed))

    @pytest.mark.parametrize(
        "p_values, n_values, message",
        [
            ((4,), (1000, 1), "n must be at least 2"),
            ((10, 0), (50,), "p must be at least 1"),
            ((-1,), (0,), "p must be at least 1"),
        ],
    )
    def test_p_and_n_checked_by_the_rule_of_generate(self, p_values, n_values, message):
        with pytest.raises(ValueError, match=message):
            BenchmarkGrid(p_values=p_values, n_values=n_values, trials=1)


class TestRunBenchmark:
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


class TestSummaryTable:
    def test_one_row_per_cell_and_estimator(self):
        # p = 5 > n = 4: the direct estimator orders but fits no strengths, and
        # the baseline fails outright, so every trial of that cell failed.
        grid = BenchmarkGrid(p_values=(5,), n_values=(4, 200), trials=3, master_seed=4)
        report = run_benchmark(grid)
        header, *rows = report.summary_table().splitlines()
        assert header.split() == [
            "p", "n", "estimator", "med.order.err", "med.frobenius", "failures"
        ]
        fields = [row.split() for row in rows]
        assert [f[:3] for f in fields] == [
            ["5", "4", "direct"],
            ["5", "4", "ica_baseline"],
            ["5", "200", "direct"],
            ["5", "200", "ica_baseline"],
        ]
        cells = {(int(f[1]), f[2]): f[3:] for f in fields}
        order_errors_p_above_n = [r.order_errors for r in report.cells[0].trials["direct"]]
        assert cells[4, "direct"] == [
            f"{np.median(order_errors_p_above_n):.2f}", "nan", str(grid.trials)
        ]
        assert cells[4, "ica_baseline"] == ["nan", "nan", str(grid.trials)]
        for name in grid.estimators:
            s = report.cells[1].summaries[name]
            assert cells[200, name] == [
                f"{s['order_errors']['median']:.2f}",
                f"{s['frobenius']['median']:.4f}",
                str(report.cells[1].failures[name]),
            ]


def report_bytes(report, tmp_path):
    """The report's JSON and CSV artifacts, as bytes."""
    report.write_csv(tmp_path / "report.csv")
    return json.dumps(report.to_dict()).encode(), (tmp_path / "report.csv").read_bytes()


def running(pid):
    """Whether ``pid`` is a live process; a zombie left for init to reap is not."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False


# threading.active_count() in the parent at each fork, recorded while this is a list.
_fork_thread_counts = None


def _record_fork():
    if _fork_thread_counts is not None:
        _fork_thread_counts.append(threading.active_count())


os.register_at_fork(before=_record_fork)


class TestWorkerProcesses:
    def test_sweeps_fork_with_no_other_thread_alive(self):
        # Python 3.12 warns on a fork from a multi-threaded process, but under an
        # "error" warning filter it drops that warning unseen, so count the threads:
        # the pool must fork its workers before it starts a thread, and a second
        # sweep must find the first one's threads gone.
        global _fork_thread_counts
        _fork_thread_counts = []
        try:
            for trials in (3, 1):
                grid = BenchmarkGrid(p_values=(3,), n_values=(40,), trials=trials, estimators=("direct",))
                run_benchmark(grid, threads=2)
            assert _fork_thread_counts == [1, 1, 1]
        finally:
            _fork_thread_counts = None

    @pytest.mark.parametrize("threads", [0, -2])
    def test_fewer_than_one_worker_rejected(self, threads):
        grid = BenchmarkGrid(p_values=(3,), n_values=(40,), trials=1)
        with pytest.raises(ValueError, match="threads must be at least 1"):
            run_benchmark(grid, threads=threads)

    @pytest.mark.parametrize("threads", [1.5, "2", True])
    def test_worker_count_that_is_not_a_whole_number_rejected_before_forking(self, monkeypatch, threads):
        def no_pool(*args, **kwargs):
            raise AssertionError("a worker pool was started")

        monkeypatch.setattr(evaluation, "ProcessPoolExecutor", no_pool)
        grid = BenchmarkGrid(p_values=(2,), n_values=(10,), trials=3, estimators=("direct",))
        with pytest.raises(ValueError, match=f"^threads must be an integer, got {re.escape(repr(threads))}$"):
            run_benchmark(grid, threads=threads)

    def test_whole_float_worker_count_reads_as_an_integer(self, tmp_path):
        grid = BenchmarkGrid(p_values=(3,), n_values=(40,), trials=2, master_seed=3)
        assert report_bytes(run_benchmark(grid, threads=2.0), tmp_path) == report_bytes(
            run_benchmark(grid, threads=1), tmp_path
        )

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

    @pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc")
    def test_workers_exit_when_the_parent_is_killed(self):
        # A sweep whose trials sleep: each of its two workers writes its pid on
        # its first task. SIGTERM to the sweep must not leave them running.
        script = textwrap.dedent(
            """
            import os, time
            from lingamkit import BenchmarkGrid, evaluation

            def slow(*args):
                os.write(1, b"%d\\n" % os.getpid())  # one write: lines never interleave
                time.sleep(60)

            evaluation._run_trial = slow
            evaluation.run_benchmark(BenchmarkGrid(p_values=(3,), n_values=(40,), trials=4), 2)
            """
        )
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        proc = subprocess.Popen([sys.executable, "-c", script], stdout=subprocess.PIPE, env=env, text=True)
        workers = []
        try:
            workers = [int(proc.stdout.readline()) for _ in range(2)]
            proc.send_signal(signal.SIGTERM)
            proc.wait(timeout=10)
            deadline = time.monotonic() + 5.0
            while any(map(running, workers)) and time.monotonic() < deadline:
                time.sleep(0.1)
            assert not any(map(running, workers))
        finally:
            proc.kill()
            proc.wait(timeout=10)
            proc.stdout.close()
            for pid in filter(running, workers):
                os.kill(pid, signal.SIGKILL)

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
