"""The three workloads: inputs, one operation, and the check of its output.

Each workload drives ``lingamkit.cli.main`` in-process with files it
generated from the seed. ``generate_inputs`` writes what the program
reads, ``prepare_reference`` computes the answers the operation is
checked against (independently where ``reference`` can, otherwise with
a serial run of the program), and ``warm_up`` runs the command once on
a small input so that lazy imports and allocator growth are paid in
set-up. ``check`` returns ``None`` for a correct operation, otherwise
the reason it is counted as failed.
"""

from __future__ import annotations

import json
import statistics
from pathlib import Path
from time import perf_counter

import numpy as np

import reference

# Sizes per scale: "full" is what the benchmark measures, "tiny" is what
# the self-test runs to exercise every path in seconds.
SIZES = {
    "fit": {"full": {"p": 20, "n": 20000}, "tiny": {"p": 5, "n": 300}},
    "bootstrap": {
        "full": {"p": 10, "n": 1000, "resamples": 2000},
        "tiny": {"p": 4, "n": 200, "resamples": 100},
    },
    "sweep": {
        "full": {"p_values": [10, 20], "n_values": [8, 1000], "trials": 4},
        "tiny": {"p_values": [3, 6], "n_values": [5, 80], "trials": 2},
    },
}

STRENGTH_RTOL = 1e-8
INTERVAL_ATOL = 1e-9


def _cli(argv) -> None:
    """Run a set-up command through the CLI; set-up must not fail."""
    import lingamkit.cli

    rc = lingamkit.cli.main([str(a) for a in argv])
    if rc != 0:
        raise RuntimeError(f"set-up command failed with exit code {rc}: {argv}")


def _read_json(path) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _max_rel_diff(a, b) -> float:
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    scale = max(1.0, float(np.max(np.abs(b), initial=0.0)))
    return float(np.max(np.abs(a - b), initial=0.0)) / scale


class Workload:
    name = ""

    def __init__(self, workdir: Path, seed: int, scale: str):
        self.dir = workdir
        self.seed = seed
        self.size = SIZES[self.name][scale]
        self.output = workdir / "output.json"
        self.reference_seconds: list[float] = []

    def generate_inputs(self) -> None:
        raise NotImplementedError

    def prepare_reference(self) -> None:
        raise NotImplementedError

    def warm_up(self) -> None:
        raise NotImplementedError

    def argv(self) -> list[str]:
        raise NotImplementedError

    def check(self, stdout: str) -> str | None:
        raise NotImplementedError

    def accuracy(self) -> dict[str, tuple[float, str]]:
        """Accuracy of the last operation's output: name -> (value, unit)."""
        raise NotImplementedError

    def _simulate(self, stem: str, p: int, n: int) -> tuple[Path, Path]:
        data, truth = self.dir / f"{stem}.csv", self.dir / f"{stem}-truth.json"
        _cli(["simulate", "--p", p, "--n", n, "--network", "dense", "--seed", self.seed,
              "--out-data", data, "--out-truth", truth])
        return data, truth


class FitWorkload(Workload):
    """``lingamkit fit --method direct`` on one dense CSV."""

    name = "fit"

    def generate_inputs(self):
        self.data, self.truth = self._simulate("data", self.size["p"], self.size["n"])

    def prepare_reference(self):
        x = reference.load_matrix(self.data)
        self.ref_order, self.ref_decided = reference.direct_order(x)
        self.ref_strengths = reference.strengths(x, self.ref_order)
        self.b_obs = reference.observed_matrix(_read_json(self.truth))

    def warm_up(self):
        warm, _ = self._simulate("warm", 4, 200)
        _cli(["fit", "--input", warm, "--method", "direct", "--output", self.dir / "warm.json"])

    def argv(self):
        return ["fit", "--input", str(self.data), "--method", "direct", "--seed", "0",
                "--output", str(self.output)]

    def check(self, stdout):
        model = _read_json(self.output)
        order = tuple(model["order"])
        if self.ref_decided and order != self.ref_order:
            return f"order {order} differs from reference {self.ref_order}"
        expected = (
            self.ref_strengths if order == self.ref_order
            else reference.strengths(reference.load_matrix(self.data), order)
        )
        diff = _max_rel_diff(model["strengths"], expected)
        if diff > STRENGTH_RTOL:
            return f"strengths differ from reference by {diff:.3g} (relative)"
        if "causal order:" not in stdout:
            return "no causal order printed"
        return None

    def accuracy(self):
        order = _read_json(self.output)["order"]
        return {"direct_order_errors": (reference.order_errors(self.b_obs, order), "count")}


class BootstrapWorkload(Workload):
    """``lingamkit bootstrap`` under a fixed model holding the true order."""

    name = "bootstrap"
    level = 0.99

    def generate_inputs(self):
        import lingamkit

        self.data, truth_path = self._simulate("data", self.size["p"], self.size["n"])
        truth = _read_json(truth_path)
        order = [int(s) + 1 for s in np.argsort(truth["shuffle"])]
        x = reference.load_matrix(self.data)
        self.model = self.dir / "model.json"
        with open(self.model, "w", encoding="utf-8") as fh:
            json.dump({
                "schema": {"name": "lingamkit-model", "major": 1, "minor": 0},
                "labels": [f"x{i}" for i in range(1, len(order) + 1)],
                "order": order,
                "strengths": reference.strengths(x, order).tolist(),
                "diagnostics": [],
                "estimator": "direct",
                "seed": self.seed,
                "version": lingamkit.__version__,
                "pruned": None,
                "converged": None,
            }, fh)
        self.order = tuple(order)

    def prepare_reference(self):
        x = reference.load_matrix(self.data)
        self.ref_point = reference.strengths(x, self.order)
        self.ref_slots, self.ref_lower, self.ref_upper = reference.bootstrap_intervals(
            x, self.order, self.level, self.size["resamples"], self.seed
        )

    def warm_up(self):
        _cli(["bootstrap", "--input", self.data, "--model", self.model, "--resamples", 100,
              "--seed", self.seed, "--out", self.dir / "warm.json"])

    def argv(self):
        return ["bootstrap", "--input", str(self.data), "--model", str(self.model),
                "--level", str(self.level), "--resamples", str(self.size["resamples"]),
                "--seed", str(self.seed), "--out", str(self.output)]

    def check(self, stdout):
        doc = _read_json(self.output)
        if doc["singular_redraws"]:
            return f"{doc['singular_redraws']} redraws; the reference assumes none"
        edges = doc["edges"]
        slots = [(e["i"], e["j"]) for e in edges]
        if slots != self.ref_slots:
            return "edge slots differ from reference"
        point = [self.ref_point[i - 1, j - 1] for i, j in slots]
        for key, ref in (("point", point), ("lower", self.ref_lower), ("upper", self.ref_upper)):
            got = np.array([e[key] for e in edges])
            worst = float(np.max(np.abs(got - ref) / (1.0 + np.abs(ref))))
            if worst > INTERVAL_ATOL:
                return f"edge {key} values differ from reference by {worst:.3g}"
        if len(stdout.splitlines()) != len(edges):
            return "printed edge count differs from the edges file"
        return None

    def accuracy(self):
        edges = _read_json(self.output)["edges"]
        widths = [e["upper"] - e["lower"] for e in edges]
        return {"ci_width_median": (statistics.median(widths), "1")}


class SweepWorkload(Workload):
    """``lingamkit benchmark --threads 2`` on a small (p, n) grid, both estimators."""

    name = "sweep"
    threads = 2

    def generate_inputs(self):
        self.grid = self.dir / "grid.json"
        with open(self.grid, "w", encoding="utf-8") as fh:
            json.dump({
                "schema": {"name": "lingamkit-grid", "major": 1, "minor": 0},
                "p_values": self.size["p_values"],
                "n_values": self.size["n_values"],
                "trials": self.size["trials"],
                "estimators": ["direct", "ica_baseline"],
                "master_seed": self.seed,
            }, fh)

    def prepare_reference(self):
        serial = self.dir / "serial.json"
        start = perf_counter()
        _cli(["benchmark", "--grid", self.grid, "--out", serial, "--threads", 1])
        self.reference_seconds.append(perf_counter() - start)
        self.ref_bytes = serial.read_bytes()

    def warm_up(self):
        warm = self.dir / "warm-grid.json"
        with open(warm, "w", encoding="utf-8") as fh:
            json.dump({"schema": {"name": "lingamkit-grid", "major": 1, "minor": 0},
                       "p_values": [3], "n_values": [50], "trials": 2}, fh)
        _cli(["benchmark", "--grid", warm, "--out", self.dir / "warm.json",
              "--threads", self.threads])

    def argv(self):
        return ["benchmark", "--grid", str(self.grid), "--out", str(self.output),
                "--threads", str(self.threads)]

    def check(self, stdout):
        if self.output.read_bytes() != self.ref_bytes:
            return "report differs from the --threads 1 reference"
        return None

    def accuracy(self):
        report = _read_json(self.output)
        trials = {"direct": [], "ica_baseline": []}
        for cell in report["cells"]:
            for name, est in cell["estimators"].items():
                trials[name].extend(est["trials"])
        everything = trials["direct"] + trials["ica_baseline"]
        frob = [t["frobenius"] for t in trials["direct"] if t["frobenius"] is not None]
        return {
            "direct_order_errors": (
                sum(t["order_errors"] or 0 for t in trials["direct"]), "count"),
            "ica_order_errors": (
                sum(t["order_errors"] or 0 for t in trials["ica_baseline"]), "count"),
            "direct_frobenius_median": (statistics.median(frob), "1"),
            "trial_error_share": (
                sum(t["error"] is not None for t in everything) / len(everything), "1"),
        }


WORKLOADS = {w.name: w for w in (FitWorkload, BootstrapWorkload, SweepWorkload)}
