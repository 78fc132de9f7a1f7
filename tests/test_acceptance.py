"""Acceptance suite: one test per release criterion.

Each test prints a single ``[acceptance] criterion N ...: PASS/FAIL``
line (run with ``pytest -s`` to see them live) and then asserts, so a
red test always has its criterion line in the captured output.
"""

import inspect
import json
import time

import numpy as np

from lingamkit import (
    BenchmarkGrid,
    CausalOrder,
    bootstrap_cis,
    center,
    estimate_order,
    fastica,
    fit,
    frobenius_distance,
    generate,
    order_errors,
    random_model,
    run_benchmark,
    sample_non_gaussian,
    t_statistic,
)
from lingamkit.cli import main, write_dataset_csv
from lingamkit.core import find_strict_lower_permutation
from lingamkit.errors import NoFeasibleAssignment, RankDeficient
from lingamkit.ica import diagonal_permutation

from helpers import (
    CHAIN_B,
    analytic_covariance,
    brute_force_assignment,
    brute_force_strict_lower,
    chain_dataset,
    power_noise,
    scratch_t_statistic,
)


def report(number, name, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance] criterion {number} {name}: {status} ({detail})")
    assert ok, f"criterion {number} {name}: {detail}"


def test_criterion_1_exact_recovery_sanity():
    trials = 100
    orders_ok = 0
    strengths_ok = 0
    fit_seconds = 0.0
    for trial in range(trials):
        rng = np.random.default_rng(90_000 + trial)
        e = np.vstack([power_noise(rng, 10_000, 2.0) for _ in range(3)])
        x1 = e[0]
        x2 = 1.5 * x1 + e[1]
        x3 = 0.8 * x1 - 1.5 * x2 + e[2]
        ds = center(np.vstack([x1, x2, x3]))
        start = time.perf_counter()
        model = fit(ds)
        fit_seconds += time.perf_counter() - start
        if model.order.order == (1, 2, 3):
            orders_ok += 1
            b = model.strengths.entries
            strengths_ok += bool(
                abs(b[1, 0] - 1.5) < 0.05
                and abs(b[2, 0] - 0.8) < 0.05
                and abs(b[2, 1] + 1.5) < 0.05
            )
    ok = orders_ok >= 95 and strengths_ok == orders_ok and fit_seconds < 5.0
    report(
        1,
        "exact-recovery",
        ok,
        f"orders {orders_ok}/100, strengths-in-0.05 {strengths_ok}, fit time {fit_seconds:.2f}s",
    )


def test_criterion_2_directional_superiority():
    grid = BenchmarkGrid(
        p_values=(10,),
        n_values=(200,),
        trials=50,
        estimators=("direct", "ica_baseline"),
        master_seed=424242,
    )
    cell = run_benchmark(grid).cells[0]
    direct_median = cell.summaries["direct"]["order_errors"]["median"]
    ica_median = cell.summaries["ica_baseline"]["order_errors"]["median"]

    grid_large_n = BenchmarkGrid(
        p_values=(10,), n_values=(2000,), trials=50, estimators=("direct",), master_seed=424242
    )
    large_n_median = run_benchmark(grid_large_n).cells[0].summaries["direct"]["order_errors"]["median"]

    ok = direct_median <= ica_median and large_n_median <= 2.0
    report(
        2,
        "directional-superiority",
        ok,
        f"p=10 n=200 medians: direct {direct_median} vs ica {ica_median}; "
        f"p=10 n=2000 direct median {large_n_median}",
    )


def test_criterion_3_guaranteed_convergence():
    params = set(inspect.signature(estimate_order).parameters)
    params |= set(inspect.signature(fit).parameters)
    no_limit_knob = not params & {
        "max_iter",
        "max_iterations",
        "iterations",
        "n_iter",
    }

    rng = np.random.default_rng(31337)
    exact_steps = True
    for _ in range(1000):
        p = int(rng.integers(1, 7))
        n = int(rng.integers(3, 30))
        ds = center(rng.standard_normal((p, n)))
        order, diagnostics = estimate_order(ds)
        exact_steps = exact_steps and len(diagnostics) == p - 1 and len(order) == p
    ok = no_limit_knob and exact_steps
    report(
        3,
        "guaranteed-convergence",
        ok,
        f"1000 fuzz cases, exactly p-1 selection steps: {exact_steps}; "
        f"iteration-limit knob absent: {no_limit_knob}",
    )


def test_criterion_4_complexity_scaling():
    times = {}
    for p in (20, 40):
        samples = []
        for trial in range(20):
            rng = np.random.default_rng(7000 + trial)
            data, _ = generate(p, 1000, "dense", rng)
            start = time.perf_counter()
            estimate_order(data)
            samples.append(time.perf_counter() - start)
        times[p] = float(np.median(samples))
    ratio = times[40] / times[20]
    ok = 4.0 <= ratio <= 16.0
    report(
        4,
        "complexity-scaling",
        ok,
        f"median t(p=40)/t(p=20) at n=1000 over 20 trials: {ratio:.2f}",
    )


def test_criterion_5_more_variables_than_observations():
    rng = np.random.default_rng(8)
    ds = center(rng.uniform(-1.0, 1.0, size=(20, 15)))
    order, diagnostics = estimate_order(ds)
    order_ok = sorted(order.order) == list(range(1, 21)) and len(diagnostics) == 19
    try:
        fastica(ds, np.random.default_rng(0))
        ica_raised = False
    except RankDeficient:
        ica_raised = True
    ok = order_ok and ica_raised
    report(
        5,
        "p-greater-than-n",
        ok,
        f"estimate_order succeeded: {order_ok}; fastica raised RankDeficient: {ica_raised}",
    )


def test_criterion_6_oracle_equivalence():
    rng = np.random.default_rng(600)
    lower_mismatches = 0
    for trial in range(1000):
        p = int(rng.integers(2, 7))
        if trial % 2 == 0:
            mat = np.tril(rng.standard_normal((p, p)), k=-1)
            mat[rng.random((p, p)) < 0.3] = 0.0
            perm = rng.permutation(p)
            mat = mat[np.ix_(perm, perm)]
        else:
            mat = rng.standard_normal((p, p))
            mat[rng.random((p, p)) < 0.6] = 0.0
            np.fill_diagonal(mat, 0.0)
        expected = brute_force_strict_lower(mat)
        found = find_strict_lower_permutation(mat)
        if expected:
            if found is None or found.order not in expected:
                lower_mismatches += 1
        elif found is not None:
            lower_mismatches += 1

    assignment_mismatches = 0
    for _ in range(1000):
        p = int(rng.integers(2, 7))
        w = rng.standard_normal((p, p))
        w[rng.random((p, p)) < 0.35] = 0.0
        expected = brute_force_assignment(w)
        try:
            w_tilde, _ = diagonal_permutation(w)
            cost = float(np.sum(1.0 / np.abs(np.diagonal(w_tilde))))
        except NoFeasibleAssignment:
            cost = None
        if expected is None:
            if cost is not None:
                assignment_mismatches += 1
        elif cost is None or abs(cost - expected) > 1e-9 * max(1.0, expected):
            assignment_mismatches += 1

    ok = lower_mismatches == 0 and assignment_mismatches == 0
    report(
        6,
        "oracle-equivalence",
        ok,
        f"strict-lower mismatches {lower_mismatches}/1000, "
        f"assignment mismatches {assignment_mismatches}/1000",
    )


def test_criterion_7_statistic_transliteration():
    rng = np.random.default_rng(700)
    worst = 0.0
    for _ in range(50):
        p = int(rng.integers(2, 5))
        n = int(rng.integers(5, 13))
        ds = center(rng.standard_normal((p, n)))
        subs = list(range(1, p + 1))
        for j in subs:
            mine = t_statistic(j, subs, ds)
            ref = scratch_t_statistic(j, subs, ds.values)
            denom = max(abs(ref), 1e-300)
            worst = max(worst, abs(mine - ref) / denom)
    ok = worst <= 1e-12
    report(7, "statistic-transliteration", ok, f"worst relative deviation {worst:.2e}")


def test_criterion_8_synth_fidelity():
    sub = power_noise(np.random.default_rng(80), 100_000, 0.5)
    sup = power_noise(np.random.default_rng(81), 100_000, 2.0)

    def kurt(x):
        d = x - x.mean()
        m2 = d @ d / x.size
        return float(np.mean(d**4) / m2**2 - 3.0)

    kurtosis_ok = kurt(sub) < 0.0 < kurt(sup)

    stds_ok = True
    for seed in range(10):
        model = random_model(5, "dense", np.random.default_rng(seed))
        cov = analytic_covariance(model.b_true.entries, model.noise_stds)
        for i in range(1, 5):
            row = model.b_true.entries[i]
            std = float(np.sqrt(row @ cov @ row))
            stds_ok = stds_ok and (0.5 - 1e-9 <= std <= 1.5 + 1e-9)

    # x = Ae at machine precision, checked by replaying the generator's draws
    p, n = 6, 500
    data, truth = generate(p, n, "dense", np.random.default_rng(88))
    rng = np.random.default_rng(88)
    model = random_model(p, "dense", rng)
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
    mixing_dev = float(np.max(np.abs(x - mixed)) / np.abs(x).max())
    mixing_ok = np.array_equal(model.b_true.entries, truth.b_true.entries) and mixing_dev < 1e-12

    ok = kurtosis_ok and stds_ok and mixing_ok
    report(
        8,
        "synth-fidelity",
        ok,
        f"kurtosis signs ok: {kurtosis_ok} (q=0.5: {kurt(sub):.3f}, q=2: {kurt(sup):.3f}); "
        f"parent stds in [0.5,1.5]: {stds_ok}; x=Ae relative deviation {mixing_dev:.2e}",
    )


def test_criterion_9_metric_correctness():
    oe = (
        order_errors(CHAIN_B, CausalOrder((1, 2, 3))),
        order_errors(CHAIN_B, CausalOrder((2, 1, 3))),
        order_errors(CHAIN_B, CausalOrder((3, 2, 1))),
    )
    fro = frobenius_distance(np.array([[0.0, 0.0], [3.0, 4.0]]), np.zeros((2, 2)))
    ok = oe == (0, 1, 3) and fro == 5.0
    report(9, "metric-correctness", ok, f"order errors {oe}, frobenius {fro}")


def test_criterion_10_bootstrap_behavior():
    # zero width on noise-free data
    x1 = np.array([1.0, -1.0, 2.0, -2.0, 4.0, -4.0, 0.5, -0.5])
    exact = center(np.vstack([x1, 1.5 * x1]))
    degenerate = bootstrap_cis(exact, (1, 2), resamples=200, rng=np.random.default_rng(0))
    (edge,) = degenerate.edges
    zero_width_ok = edge.lower == edge.upper == edge.point == 1.5

    # coverage and zero-edge significance over 200 seeded runs
    # (400 resamples per run; the criterion pins runs and tolerances, not
    # the resample count)
    true_values = {(2, 1): 1.5, (3, 1): 0.0, (3, 2): -1.5}
    covered = {key: 0 for key in true_values}
    zero_nonsig = 0
    runs = 200
    for run in range(runs):
        rng = np.random.default_rng(30_000 + run)
        e = rng.uniform(-np.sqrt(3.0), np.sqrt(3.0), size=(3, 1000))
        x1 = e[0]
        x2 = 1.5 * x1 + e[1]
        x3 = -1.5 * x2 + e[2]
        ds = center(np.vstack([x1, x2, x3]))
        rep = bootstrap_cis(
            ds, (1, 2, 3), level=0.99, resamples=400, rng=np.random.default_rng(60_000 + run)
        )
        for interval in rep.edges:
            truth = true_values[(interval.i, interval.j)]
            covered[(interval.i, interval.j)] += interval.lower <= truth <= interval.upper
        zero_edge = next(iv for iv in rep.edges if (iv.i, iv.j) == (3, 1))
        zero_nonsig += not zero_edge.significant

    coverage_ok = all(count >= 0.95 * runs for count in covered.values())
    nonsig_ok = zero_nonsig >= 0.95 * runs
    ok = zero_width_ok and coverage_ok and nonsig_ok
    report(
        10,
        "bootstrap-behavior",
        ok,
        f"zero width: {zero_width_ok}; coverage {dict(covered)}/{runs}; "
        f"zero-edge non-significant {zero_nonsig}/{runs}",
    )


def test_criterion_11_cli_determinism(tmp_path, capsys):
    ds = chain_dataset(1000, np.random.default_rng(4))
    data_csv = tmp_path / "data.csv"
    write_dataset_csv(data_csv, ds)
    grid_path = tmp_path / "grid.json"
    grid_path.write_text(
        json.dumps(
            {
                "schema": {"name": "lingamkit-grid", "major": 1, "minor": 0},
                "p_values": [4],
                "n_values": [150],
                "trials": 5,
                "estimators": ["direct", "ica_baseline"],
                "master_seed": 5,
            }
        )
    )

    def run(*argv):
        assert main([str(a) for a in argv]) == 0

    identical = {}
    for tag in ("one", "two"):
        run("fit", "--input", data_csv, "--method", "direct", "--seed", 3,
            "--output", tmp_path / f"direct-{tag}.json")
        run("fit", "--input", data_csv, "--method", "ica", "--seed", 3,
            "--output", tmp_path / f"ica-{tag}.json")
        run("simulate", "--p", 4, "--n", 120, "--seed", 6,
            "--out-data", tmp_path / f"sim-{tag}.csv", "--out-truth", tmp_path / f"truth-{tag}.json")
        run("bootstrap", "--input", data_csv, "--model", tmp_path / f"direct-{tag}.json",
            "--resamples", 150, "--seed", 7, "--out", tmp_path / f"edges-{tag}.json")
        threads = 1 if tag == "one" else 3
        run("benchmark", "--grid", grid_path, "--out", tmp_path / f"report-{tag}.json",
            "--threads", threads)

    for stem, suffix in (
        ("direct", "json"),
        ("ica", "json"),
        ("sim", "csv"),
        ("truth", "json"),
        ("edges", "json"),
        ("report", "json"),
    ):
        a = (tmp_path / f"{stem}-one.{suffix}").read_bytes()
        b = (tmp_path / f"{stem}-two.{suffix}").read_bytes()
        identical[stem] = a == b

    ok = all(identical.values())
    capsys.readouterr()  # swallow command output; keep the criterion line visible
    with capsys.disabled():
        report(11, "cli-determinism", ok, f"byte-identical artifacts: {identical}")
