import csv
import dataclasses
import functools
import io
import json
import operator
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from lingamkit import Dataset, __version__, center, cli, direct, evaluation, generate
from lingamkit.cli import ModelDocument, load_csv, main, write_dataset_csv
from lingamkit.errors import NonNumericCell, ParseError, RaggedRows, ZeroVarianceRow

from helpers import chain_dataset


def write_text(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


class TestLoadCsv:
    def test_header_and_orientation(self, tmp_path):
        path = write_text(tmp_path / "d.csv", "a,b\n1,4\n2,5\n3,9\n")
        ds = load_csv(path)
        assert ds.p == 2 and ds.n == 3
        assert ds.labels == ("a", "b")
        assert ds.values[0].tolist() == [-1.0, 0.0, 1.0]

    @pytest.mark.parametrize("variables_as_rows", [False, True])
    def test_values_are_c_ordered(self, tmp_path, variables_as_rows):
        path = write_text(tmp_path / "d.csv", "a,b\n1,4\n2,5\n3,9\n")
        assert load_csv(path, variables_as_rows=variables_as_rows).values.flags.c_contiguous

    def test_no_header_generates_labels(self, tmp_path):
        path = write_text(tmp_path / "d.csv", "1,4\n2,5\n3,9\n")
        ds = load_csv(path, header=False)
        assert ds.labels == ("x1", "x2")

    def test_variables_as_rows(self, tmp_path):
        path = write_text(tmp_path / "d.csv", "1,2,3\n4,5,9\n")
        ds = load_csv(path, header=False, variables_as_rows=True)
        assert ds.p == 2 and ds.n == 3

    def test_non_numeric_cell_reports_location(self, tmp_path):
        path = write_text(tmp_path / "d.csv", "a,b\n1,2\n3,oops\n")
        with pytest.raises(NonNumericCell) as err:
            load_csv(path)
        assert err.value.line == 3
        assert err.value.column == 2
        assert err.value.cell == "oops"

    def test_non_finite_rejected(self, tmp_path):
        for cell in ("inf", "nan", "-Infinity"):
            path = write_text(tmp_path / "d.csv", f"a,b\n1,2\n3,{cell}\n")
            with pytest.raises(NonNumericCell) as err:
                load_csv(path)
            assert (err.value.line, err.value.column) == (3, 2)

    def test_ragged_rows(self, tmp_path):
        path = write_text(tmp_path / "d.csv", "a,b\n1,2\n3\n")
        with pytest.raises(RaggedRows) as err:
            load_csv(path)
        assert err.value.line == 3

    def test_empty_file(self, tmp_path):
        path = write_text(tmp_path / "d.csv", "")
        with pytest.raises(ParseError):
            load_csv(path)

    def test_round_trip_is_bit_exact(self, tmp_path):
        data, _ = generate(4, 50, "random-choice", np.random.default_rng(3))
        path = tmp_path / "round.csv"
        write_dataset_csv(path, data)
        loaded = load_csv(str(path))
        assert loaded.labels == data.labels
        assert np.array_equal(loaded.values, data.values)


# (text, load_csv keywords, (error class, line, column)) as the per-cell parser reports them.
PARSE_ERRORS = {
    "word": ("a,b\n1,2\n3,abc\n", {}, (NonNumericCell, 3, 2)),
    "nan": ("a,b\n1,2\nnan,4\n", {}, (NonNumericCell, 3, 1)),
    "-Infinity": ("a,b\n1,2\n3,-Infinity\n", {}, (NonNumericCell, 3, 2)),
    "overflow": ("a,b\n1,2\n1e400,4\n", {}, (NonNumericCell, 3, 1)),
    "empty cell": ("a,b\n1,2\n3,\n", {}, (NonNumericCell, 3, 2)),
    "trailing comma": ("a,b\n1,2,\n3,4,\n", {}, (NonNumericCell, 2, 3)),
    "ragged row": ("a,b\n1,2\n3\n", {}, (RaggedRows, 3, 1)),
    "whitespace line": ("a,b\n1,2\n  \n3,4\n", {}, (RaggedRows, 3, 1)),
    "header only": ("a,b\n", {}, (ParseError, 1, 1)),
    "empty file": ("", {}, (ParseError, 1, 1)),
    "no header, empty": ("\n\n", {"header": False}, (ParseError, 1, 1)),
    "label over field limit": ("a" * 200_000 + ",b\n1,2\n", {}, (ParseError, 1, 1)),
}

# (text, load_csv keywords, labels or None for generated ones, raw table with variables as rows)
PARSE_VALUES = {
    "plain": ("a,b\n1,4\n2,5\n3,9\n", {}, ("a", "b"), [[1, 2, 3], [4, 5, 9]]),
    "quoted number": ('a,b\n"1.5",4\n2,5\n', {}, ("a", "b"), [[1.5, 2], [4, 5]]),
    "underscores": ("a,b\n1_000,4\n2,5\n", {}, ("a", "b"), [[1000, 2], [4, 5]]),
    "blank lines": ("\na,b\n\n1,4\n\r\n2,5\n\n", {}, ("a", "b"), [[1, 2], [4, 5]]),
    "separator in header": ("a\x1c,b\n1,4\n2,5\n", {}, ("a", "b"), [[1, 2], [4, 5]]),
    "separator char": ("a,b\n1,2\n\x1c3,4\n", {}, ("a", "b"), [[1, 3], [2, 4]]),
    "separator in last line": ("a,b\n1,2\n3,4\x1f\n", {}, ("a", "b"), [[1, 3], [2, 4]]),
    "lone cr line": ("a,b\n1,4\n\r2,5\n", {}, ("a", "b"), [[1, 2], [4, 5]]),
    "cr endings": ("a,b\r1,4\r2,5\r", {}, ("a", "b"), [[1, 2], [4, 5]]),
    "padded cells": (" a , b\n 1 ,\t4\n2,5 \n", {}, ("a", "b"), [[1, 2], [4, 5]]),
    "no header": ("1,4\n2,5\n", {"header": False}, None, [[1, 2], [4, 5]]),
    "byte-order mark": ("\ufeffa,b\n1,4\n2,5\n", {}, ("a", "b"), [[1, 2], [4, 5]]),
    "byte-order mark, no header": ("\ufeff1,4\n2,5\n", {"header": False}, None, [[1, 2], [4, 5]]),
    "byte-order mark, quoted number": (
        '\ufeffa,b\n"1.5",4\n2,5\n', {}, ("a", "b"), [[1.5, 2], [4, 5]]
    ),
    "variables as rows": (
        "a,b,c\n1,2,3\n4,5,9\n", {"variables_as_rows": True}, None, [[1, 2, 3], [4, 5, 9]]
    ),
}


# Every str.isspace() character, the C0 controls, U+007F..U+00A0 and four zero-width
# or formerly-space characters; not \n or \r, which end a record instead.
WHITESPACE_PROBES = sorted(
    ({chr(c) for c in (*range(0x20), *range(0x7F, 0xA1), 0x180E, 0x200B, 0x2060, 0xFEFF)}
     | {chr(c) for c in range(0x3001) if chr(c).isspace()}) - {"\n", "\r"}
)


class TestParseParity:
    @pytest.mark.parametrize("name", sorted(PARSE_ERRORS))
    def test_error_location(self, tmp_path, name):
        text, kwargs, (cls, line, column) = PARSE_ERRORS[name]
        path = write_text(tmp_path / "d.csv", text)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ParseError) as err:
                load_csv(path, **kwargs)
        assert (type(err.value), err.value.line, err.value.column) == (cls, line, column)

    @pytest.mark.parametrize("name", sorted(PARSE_VALUES))
    def test_values(self, tmp_path, name):
        text, kwargs, labels, raw = PARSE_VALUES[name]
        path = write_text(tmp_path / "d.csv", text)
        ds = load_csv(path, **kwargs)
        expected = Dataset(np.array(raw, dtype=float), labels)
        assert ds.labels == expected.labels
        assert np.array_equal(ds.values, expected.values)

    @pytest.mark.parametrize(
        "placement", ["{c}3", "3{c}", "{c}3{c}", "3{c}5"], ids=["before", "after", "around", "inside"]
    )
    def test_one_whitespace_rule(self, tmp_path, placement):
        # load_csv, whose loadtxt path needs no check of its own for these characters, and
        # the per-cell parser alone agree on a cell holding any of them.
        def outcome(build):
            try:
                data = build()
            except ParseError as exc:
                return type(exc), exc.line, exc.column
            return data.labels, data.values.tolist()

        def per_cell():
            with open(path, newline="", encoding="utf-8-sig") as fh:
                _, head, table = cli._located_table(fh, True)
            return Dataset(table.T, tuple(cell.strip() for cell in head))

        for c in WHITESPACE_PROBES:
            path = write_text(tmp_path / "d.csv", "a,b\n1,2\n" + placement.format(c=c) + ",4\n")
            assert outcome(lambda: load_csv(path)) == outcome(per_cell), repr(c)

    @pytest.mark.parametrize("quoted", [False, True])
    def test_header_width_reports_header_line(self, tmp_path, quoted):
        first = '"1"' if quoted else "1"
        path = write_text(tmp_path / "d.csv", f"\n\na,b,c\n{first},2\n3,4\n")
        with pytest.raises(RaggedRows) as err:
            load_csv(path)
        assert (err.value.line, err.value.expected, err.value.got) == (3, 2, 3)

    def test_round_trip_keeps_every_bit(self, tmp_path):
        rng = np.random.default_rng(11)
        half = rng.standard_normal((3, 40)) * 10.0 ** rng.integers(-300, 300, size=(3, 40))
        half[:, :4] = [-0.0, 5e-324, 1e308, 0.1]
        # (v, -v) pairs sum to exactly zero, so every row is already centered
        values = np.stack([half, -half], axis=-1).reshape(3, 80)
        data = Dataset(values, ("a", "b", "c"))
        path = tmp_path / "r.csv"
        write_dataset_csv(path, data)
        loaded = load_csv(str(path))
        assert loaded.labels == data.labels
        assert np.array_equal(loaded.values.view(np.int64), data.values.view(np.int64))


class TestWriteDatasetCsv:
    def test_bytes_match_csv_writer_with_repr(self, tmp_path):
        labels = ("plain", "with,comma", 'with"quote', " spaced ")
        data, _ = generate(4, 30, "random-choice", np.random.default_rng(5))
        data = Dataset(data.values, labels)
        path = tmp_path / "w.csv"
        write_dataset_csv(path, data)
        expected = io.StringIO(newline="")
        writer = csv.writer(expected)
        writer.writerow(labels)
        for col in data.values.T:
            writer.writerow([repr(float(v)) for v in col])
        assert path.read_bytes() == expected.getvalue().encode("utf-8")
        assert path.read_bytes().startswith(b'plain,"with,comma","with""quote", spaced \r\n')


class TestModelDocument:
    def test_round_trip(self):
        doc = ModelDocument(
            labels=("a", "b"),
            order=(2, 1),
            strengths=((0.0, 0.25), (0.0, 0.0)),
            diagnostics=(((1, 0.5), (2, 0.125)),),
            estimator="direct",
            seed=7,
            version="0.1.0",
        )
        assert ModelDocument.from_dict(doc.to_dict()) == doc

    def test_rejects_unknown_major_version(self):
        doc = ModelDocument(
            labels=("a",),
            order=(1,),
            strengths=((0.0,),),
            diagnostics=(),
            estimator="direct",
            seed=0,
            version="0.1.0",
        ).to_dict()
        doc["schema"]["major"] = 2
        from lingamkit.errors import SchemaVersionError

        with pytest.raises(SchemaVersionError):
            ModelDocument.from_dict(doc)


def run_cli(*argv):
    return main([str(a) for a in argv])


class TestCommands:
    def write_chain_csv(self, tmp_path, seed=1, n=2000):
        ds = chain_dataset(n, np.random.default_rng(seed))
        path = tmp_path / "chain.csv"
        write_dataset_csv(path, ds)
        return path

    def test_fit_direct_prints_order(self, tmp_path, capsys):
        data = self.write_chain_csv(tmp_path)
        out = tmp_path / "model.json"
        assert run_cli("fit", "--input", data, "--output", out) == 0
        printed = capsys.readouterr().out
        assert "causal order: x1 x2 x3" in printed
        assert "x1 -> x2" in printed
        doc = ModelDocument.from_dict(json.loads(out.read_text()))
        assert doc.order == (1, 2, 3)
        assert doc.estimator == "direct"
        assert len(doc.diagnostics) == 2

    def test_fit_ica(self, tmp_path, capsys):
        data = self.write_chain_csv(tmp_path, seed=2, n=4000)
        out = tmp_path / "model.json"
        assert run_cli("fit", "--input", data, "--method", "ica", "--seed", 5, "--output", out) == 0
        doc = ModelDocument.from_dict(json.loads(out.read_text()))
        assert doc.estimator == "ica"
        assert doc.pruned is not None
        assert doc.converged is True

    @pytest.mark.parametrize("method, shown", [("direct", "strengths"), ("ica", "pruned")])
    def test_fit_prints_what_it_writes(self, tmp_path, capsys, method, shown):
        # The printed order spells out the model's order by label, and the edges are the
        # nonzero entries of the printed matrix, in row-major order, formatted .6g.
        data, _ = generate(5, 2000, "dense", np.random.default_rng(4))
        path, out = tmp_path / "d.csv", tmp_path / "m.json"
        write_dataset_csv(path, Dataset(data.values, ("a", "b", "c", "d", "e")))
        assert run_cli("fit", "--input", path, "--method", method, "--seed", 3, "--output", out) == 0
        doc = ModelDocument.from_dict(json.loads(out.read_text(encoding="utf-8")))
        edges = [
            f"  {doc.labels[j]} -> {doc.labels[i]} : {value:.6g}"
            for i, row in enumerate(getattr(doc, shown))
            for j, value in enumerate(row)
            if value != 0.0
        ]
        assert edges and doc.order != (1, 2, 3, 4, 5)
        assert capsys.readouterr().out.splitlines() == [
            f"estimator: {method}",
            "causal order: " + " ".join(doc.labels[s - 1] for s in doc.order),
            "edges:",
            *edges,
        ]

    def test_fit_deterministic_bytes(self, tmp_path, capsys):
        data = self.write_chain_csv(tmp_path)
        out1, out2 = tmp_path / "m1.json", tmp_path / "m2.json"
        run_cli("fit", "--input", data, "--output", out1)
        run_cli("fit", "--input", data, "--output", out2)
        assert out1.read_bytes() == out2.read_bytes()

    def test_fit_direct_model_bytes_match_in_process_fit(self, tmp_path, capsys):
        # The CSV holds the same values as the in-process dataset, bit for bit,
        # so both fits run the same arithmetic and write the same model.
        data, _ = generate(8, 3000, "dense", np.random.default_rng(6))
        path, out = tmp_path / "d.csv", tmp_path / "m.json"
        write_dataset_csv(path, data)
        assert np.array_equal(load_csv(path).values, data.values)
        assert run_cli("fit", "--input", path, "--output", out) == 0
        doc = ModelDocument.from_dict(json.loads(out.read_text(encoding="utf-8")))
        model = direct.fit(data)
        expected = dataclasses.replace(
            doc,
            order=model.order.order,
            strengths=tuple(tuple(row) for row in model.strengths.entries.tolist()),
            diagnostics=tuple(tuple(sorted(step.items())) for step in model.diagnostics),
        )
        assert out.read_bytes() == (json.dumps(expected.to_dict(), indent=2) + "\n").encode("utf-8")

    def test_fit_of_an_uncentered_csv_matches_in_process_fit(self, tmp_path, capsys):
        # The loaded table is transposed, not C-ordered; Dataset centers its own
        # C-ordered copy, so the CLI and the library center by the same arithmetic.
        rng = np.random.default_rng(9)
        values = chain_dataset(2000, rng).values * [[1.0], [3.0], [0.5]] + rng.uniform(-4, 4, (3, 1))
        labels = ("a", "b", "c")
        path, out = tmp_path / "u.csv", tmp_path / "m.json"
        np.savetxt(path, values.T, fmt="%.17g", delimiter=",", header=",".join(labels), comments="")
        assert np.array_equal(load_csv(path).values, center(values, labels).values)
        assert run_cli("fit", "--input", path, "--output", out) == 0
        model = direct.fit(center(values, labels))
        expected = ModelDocument(
            labels=labels,
            order=model.order.order,
            strengths=tuple(tuple(row) for row in model.strengths.entries.tolist()),
            diagnostics=tuple(tuple(sorted(step.items())) for step in model.diagnostics),
            estimator="direct",
            seed=0,
            version=__version__,
        )
        assert out.read_bytes() == (json.dumps(expected.to_dict(), indent=2) + "\n").encode("utf-8")

    def test_model_bytes_same_as_with_numpy_float_scores(self, tmp_path, capsys):
        data = self.write_chain_csv(tmp_path)
        out = tmp_path / "m.json"
        run_cli("fit", "--input", data, "--output", out)
        doc = ModelDocument.from_dict(json.loads(out.read_text(encoding="utf-8")))
        numpy_scores = tuple(
            tuple((s, np.float64(t)) for s, t in step) for step in doc.diagnostics
        )
        payload = dataclasses.replace(doc, diagnostics=numpy_scores).to_dict()
        assert out.read_bytes() == (json.dumps(payload, indent=2) + "\n").encode("utf-8")

    def test_simulate_deterministic_bytes(self, tmp_path, capsys):
        for stem in ("a", "b"):
            assert (
                run_cli(
                    "simulate", "--p", 4, "--n", 100, "--seed", 9,
                    "--out-data", tmp_path / f"{stem}.csv",
                    "--out-truth", tmp_path / f"{stem}.json",
                )
                == 0
            )
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()

    def test_simulate_then_fit_recovers_truth(self, tmp_path, capsys):
        run_cli(
            "simulate", "--p", 3, "--n", 5000, "--network", "dense", "--seed", 13,
            "--out-data", tmp_path / "x.csv", "--out-truth", tmp_path / "t.json",
        )
        assert run_cli("fit", "--input", tmp_path / "x.csv", "--output", tmp_path / "m.json") == 0
        truth = json.loads((tmp_path / "t.json").read_text())
        doc = ModelDocument.from_dict(json.loads((tmp_path / "m.json").read_text()))
        # order must be consistent with the shuffled truth
        from lingamkit import ConnectionMatrix, order_errors, permute_matrix

        observed = permute_matrix(ConnectionMatrix(truth["b_true"]), tuple(truth["shuffle"]))
        assert order_errors(observed, doc.order) == 0

    def test_bootstrap_command(self, tmp_path, capsys):
        data = self.write_chain_csv(tmp_path, seed=4, n=604)
        run_cli("fit", "--input", data, "--output", tmp_path / "m.json")
        assert (
            run_cli(
                "bootstrap", "--input", data, "--model", tmp_path / "m.json",
                "--resamples", 200, "--seed", 4, "--out", tmp_path / "edges.json",
            )
            == 0
        )
        payload = json.loads((tmp_path / "edges.json").read_text())
        assert payload["level"] == 0.99
        assert len(payload["edges"]) == 3
        edge = next(e for e in payload["edges"] if (e["i"], e["j"]) == (2, 1))
        assert edge["lower"] <= 1.5 <= edge["upper"]
        printed = capsys.readouterr().out
        assert "->" in printed and ("sig" in printed or "ns" in printed)

    def test_bootstrap_prints_what_it_writes(self, tmp_path, capsys):
        # One line per written edge, in file order, with the CSV's own labels.
        data, _ = generate(4, 1000, "dense", np.random.default_rng(5))
        path, model, edges = tmp_path / "d.csv", tmp_path / "m.json", tmp_path / "e.json"
        labels = ("w", "x", "y", "z")
        write_dataset_csv(path, Dataset(data.values, labels))
        assert run_cli("fit", "--input", path, "--output", model) == 0
        capsys.readouterr()
        assert run_cli(
            "bootstrap", "--input", path, "--model", model, "--resamples", 100, "--seed", 2, "--out", edges
        ) == 0
        written = json.loads(edges.read_text(encoding="utf-8"))["edges"]
        assert written
        assert capsys.readouterr().out.splitlines() == [
            f"{labels[e['j'] - 1]} -> {labels[e['i'] - 1]} : {e['point']:.6g} "
            f"[{e['lower']:.6g}, {e['upper']:.6g}] {'sig' if e['significant'] else 'ns'}"
            for e in written
        ]

    def test_bootstrap_label_mismatch_fails(self, tmp_path, capsys):
        data = self.write_chain_csv(tmp_path)
        run_cli("fit", "--input", data, "--output", tmp_path / "m.json")
        other = tmp_path / "other.csv"
        other.write_text("u,v,w\n" + "\n".join((tmp_path / "chain.csv").read_text().splitlines()[1:]) + "\n")
        code = run_cli(
            "bootstrap", "--input", other, "--model", tmp_path / "m.json",
            "--resamples", 100, "--out", tmp_path / "e.json",
        )
        assert code == 1
        assert "DimensionMismatch" in capsys.readouterr().err

    def test_benchmark_command(self, tmp_path, capsys):
        grid = tmp_path / "grid.json"
        grid.write_text(
            json.dumps(
                {
                    "schema": {"name": "lingamkit-grid", "major": 1, "minor": 0},
                    "p_values": [4],
                    "n_values": [200],
                    "trials": 4,
                    "estimators": ["direct"],
                    "master_seed": 3,
                }
            )
        )
        out = tmp_path / "report.json"
        csv_out = tmp_path / "report.csv"
        assert run_cli("benchmark", "--grid", grid, "--out", out, "--csv", csv_out, "--summary") == 0
        assert "med.order.err" in capsys.readouterr().out
        payload = json.loads(out.read_text())
        assert payload["cells"][0]["p"] == 4
        assert len(payload["cells"][0]["estimators"]["direct"]["trials"]) == 4
        # summaries must be recomputable from the emitted CSV rows
        import csv as csvmod

        with open(csv_out, newline="") as fh:
            rows = list(csvmod.DictReader(fh))
        assert len(rows) == 4
        stored = payload["cells"][0]["estimators"]["direct"]["summaries"]
        assert float(np.median([int(r["order_errors"]) for r in rows])) == stored["order_errors"]["median"]
        assert float(np.median([float(r["frobenius"]) for r in rows])) == stored["frobenius"]["median"]

    def test_benchmark_threads_byte_identical(self, tmp_path, capsys):
        grid = tmp_path / "grid.json"
        grid.write_text(
            json.dumps(
                {
                    "schema": {"name": "lingamkit-grid", "major": 1, "minor": 0},
                    "p_values": [4],
                    "n_values": [150],
                    "trials": 6,
                    "estimators": ["direct", "ica_baseline"],
                    "master_seed": 8,
                }
            )
        )
        run_cli("benchmark", "--grid", grid, "--out", tmp_path / "r1.json")
        run_cli("benchmark", "--grid", grid, "--out", tmp_path / "r2.json", "--threads", 4)
        assert (tmp_path / "r1.json").read_bytes() == (tmp_path / "r2.json").read_bytes()

    def test_benchmark_bad_n_fails_before_any_trial(self, tmp_path, capsys, monkeypatch):
        # The n=1000 cells come first; the grid must fail before running them.
        trials = []
        monkeypatch.setattr(evaluation, "_run_trial", lambda *task: trials.append(task))
        grid = tmp_path / "grid.json"
        grid.write_text(
            json.dumps(
                {
                    "schema": {"name": "lingamkit-grid", "major": 1, "minor": 0},
                    "p_values": [4],
                    "n_values": [1000, 1],
                    "trials": 2,
                }
            )
        )
        out = tmp_path / "report.json"
        assert run_cli("benchmark", "--grid", grid, "--out", out) == 1
        assert capsys.readouterr().err == "ValueError: n must be at least 2, got 1\n"
        assert trials == []
        assert not out.exists()

    def test_missing_file_gives_error_code(self, tmp_path, capsys):
        code = run_cli("fit", "--input", tmp_path / "nope.csv", "--output", tmp_path / "m.json")
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("FileNotFoundError:")

    def test_parse_error_exit_status(self, tmp_path, capsys):
        bad = write_text(tmp_path / "bad.csv", "a,b\n1,x\n2,3\n")
        code = run_cli("fit", "--input", bad, "--output", tmp_path / "m.json")
        assert code == 1
        assert capsys.readouterr().err.startswith("NonNumericCell:")

    def test_bad_grid_schema_rejected(self, tmp_path, capsys):
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps({"p_values": [3], "n_values": [50], "trials": 1}))
        code = run_cli("benchmark", "--grid", grid, "--out", tmp_path / "r.json")
        assert code == 1
        assert "SchemaVersionError" in capsys.readouterr().err

    def test_fit_with_infinite_scores_fails_without_writing(self, tmp_path, capsys):
        # At this scale the product of two variances underflows, so a correlation is inf.
        data = center(np.random.default_rng(0).standard_normal((3, 50)) * 1e-90)
        write_dataset_csv(tmp_path / "x.csv", data)
        assert run_cli("fit", "--input", tmp_path / "x.csv", "--output", tmp_path / "m.json") == 1
        assert capsys.readouterr().err == "NonFiniteValue: an independence score is infinite\n"
        assert not (tmp_path / "m.json").exists()

    def test_json_with_nan_or_infinity_is_refused_before_the_file_is_opened(self, tmp_path):
        for bad in (float("nan"), float("inf"), -float("inf")):
            with pytest.raises(ValueError):
                cli._write_json(tmp_path / "d.json", {"score": [1.0, bad]})
            assert not (tmp_path / "d.json").exists()

    def test_fit_p_above_n_counts_the_last_variables_predecessors(self, tmp_path, capsys):
        run_cli(
            "simulate", "--p", 30, "--n", 12, "--network", "dense", "--seed", 2,
            "--out-data", tmp_path / "x.csv", "--out-truth", tmp_path / "t.json",
        )
        capsys.readouterr()
        assert run_cli("fit", "--input", tmp_path / "x.csv", "--output", tmp_path / "m.json") == 1
        assert capsys.readouterr().err == "TooFewObservations: 29 predictors with only 12 observations\n"

    @pytest.mark.parametrize(
        "argv",
        [
            ["fit", "--input", "x.csv", "--output", "m.json"],
            ["fit", "--method", "ica", "--input", "x.csv", "--output", "m.json"],
            ["simulate", "--p", 3, "--n", 50, "--out-data", "x.csv", "--out-truth", "t.json"],
            ["bootstrap", "--input", "x.csv", "--model", "m.json", "--out", "e.json"],
        ],
        ids=["fit-direct", "fit-ica", "simulate", "bootstrap"],
    )
    def test_negative_seed_is_refused_before_any_file_is_touched(self, tmp_path, capsys, monkeypatch, argv):
        # x.csv does not exist: reading it would fail as FileNotFoundError.
        monkeypatch.chdir(tmp_path)
        assert run_cli(*argv, "--seed", -1) == 1
        assert one_error_line(capsys) == "ValueError: --seed must be at least 0, got -1\n"
        assert list(tmp_path.iterdir()) == []

    def test_constant_column_is_named_by_its_label(self, tmp_path, capsys):
        data = write_text(tmp_path / "d.csv", "a,b,c\n1,5,2\n2,5,7\n4,5,1\n")
        with pytest.raises(ZeroVarianceRow) as err:
            load_csv(data)
        assert err.value.subscript == 2
        assert run_cli("fit", "--input", data, "--output", tmp_path / "m.json") == 1
        assert one_error_line(capsys) == "ZeroVarianceRow: variable b has zero sample variance\n"

    @pytest.mark.parametrize("header, bad", [("a,a,c", ["a"]), ("a,,c", [""]), (",b,b", ["", "b"])])
    def test_repeated_or_empty_labels_are_refused(self, tmp_path, capsys, header, bad):
        # Edges between two variables labelled a would print as "a -> a", a self-loop.
        data = write_text(tmp_path / "d.csv", header + "\n1,5,2\n2,3,7\n4,5,1\n")
        assert run_cli("fit", "--input", data, "--output", tmp_path / "m.json") == 1
        assert one_error_line(capsys) == f"DimensionError: labels must be distinct and non-empty, got {bad}\n"


SCHEMA = {"schema": {"name": "lingamkit-grid", "major": 1, "minor": 0}}


def one_error_line(capsys) -> str:
    """The stderr of a failed command, which must be one line and no traceback."""
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "Traceback" not in err
    return err


class TestMalformedDocuments:
    GRID = {**SCHEMA, "p_values": [3], "n_values": [40], "trials": 2}

    def run_grid(self, tmp_path, doc, *options):
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps(doc), encoding="utf-8")
        return run_cli("benchmark", "--grid", grid, "--out", tmp_path / "r.json", *options)

    @pytest.mark.parametrize(
        "changes, message",
        [
            ({"trials": None}, "ValueError: trials must be an integer, got None\n"),
            ({"trials": 1.7}, "ValueError: trials must be an integer, got 1.7\n"),
            ({"trials": True}, "ValueError: trials must be an integer, got True\n"),
            ({"master_seed": "1"}, "ValueError: master_seed must be an integer, got '1'\n"),
            ({"master_seed": -1}, "ValueError: master_seed must be at least 0, got -1\n"),
            ({"p_values": "10"}, "ValueError: p_values must be a list, got '10'\n"),
            ({"n_values": [40, None]}, "ValueError: n_values must be an integer, got None\n"),
            ({"estimators": "direct"}, "ValueError: estimators must be a list, got 'direct'\n"),
            ({"estimators": [["direct"]]}, "ValueError: unknown estimators [['direct']]; "
                                           "choose from ('direct', 'ica_baseline')\n"),
            ({"estimators": ["direct", "direct"]}, "ValueError: estimators must not repeat a name, "
                                                   "got ['direct', 'direct']\n"),
            ({"estimators": []}, "ValueError: estimators must be non-empty\n"),
            ({"trials": "missing"}, "ValueError: grid document lacks trials\n"),
            ({"x": float("inf")}, "ValueError: Infinity is not strict JSON\n"),
        ],
        ids=["trials-null", "trials-1.7", "trials-true", "seed-string", "seed-negative", "p-string",
             "n-null", "estimators-string", "estimators-nested", "estimators-repeated",
             "estimators-empty", "trials-missing", "infinity-constant"],
    )
    def test_bad_grid_field_fails_before_any_trial(self, tmp_path, capsys, monkeypatch, changes, message):
        trials = []
        monkeypatch.setattr(evaluation, "_run_trial", lambda *task: trials.append(task))
        doc = {**self.GRID, **changes}
        doc = {key: value for key, value in doc.items() if value != "missing"}
        assert self.run_grid(tmp_path, doc) == 1
        assert one_error_line(capsys) == message
        assert trials == []

    def test_integral_values_and_defaults_accepted(self, tmp_path, capsys):
        # The sweep workload's warm-up grid leaves out estimators and master_seed.
        assert self.run_grid(tmp_path, {**self.GRID, "p_values": [3.0], "trials": 2.0, "x": 1}) == 0
        grid = json.loads((tmp_path / "r.json").read_text(encoding="utf-8"))["grid"]
        assert grid == {
            "p_values": [3], "n_values": [40], "trials": 2,
            "estimators": ["direct", "ica_baseline"], "master_seed": 0,
        }

    @pytest.mark.parametrize("command", ["benchmark", "bootstrap"])
    def test_top_level_array_is_not_a_document(self, tmp_path, capsys, command):
        doc = tmp_path / "doc.json"
        doc.write_text("[1, 2]", encoding="utf-8")
        if command == "benchmark":
            code = run_cli("benchmark", "--grid", doc, "--out", tmp_path / "r.json")
            expected = "SchemaVersionError: not a lingamkit-grid document\n"
        else:
            data = write_text(tmp_path / "d.csv", "a,b\n1,4\n2,5\n3,9\n")
            code = run_cli("bootstrap", "--input", data, "--model", doc, "--out", tmp_path / "e.json")
            expected = "SchemaVersionError: not a lingamkit-model document\n"
        assert code == 1
        assert one_error_line(capsys) == expected

    @pytest.mark.parametrize(
        "field, value",
        [("order", [None, 1, 2]), ("diagnostics", [[1]]), ("seed", 1e400), ("estimator", 5),
         ("strengths", None), ("converged", "yes"), ("order", [2.7, 3.2, 1.9]),
         ("order", ["2", "3", "1"]), ("seed", True), ("seed", 2.9), ("diagnostics", [[[1.5, 0.1]]]),
         ("labels", "abc"), ("labels", [1, 2, 3]), ("strengths", [["1.5", 0.0, 0.0]]),
         ("strengths", [[True, 0.0, 0.0]]), ("strengths", [[1e400, 0.0, 0.0]]), ("pruned", [[True]]),
         ("diagnostics", [[[1, "nan"]]]), ("estimator", "bogus"), ("seed", -1)],
    )
    def test_model_field_of_the_wrong_type_is_named(self, tmp_path, capsys, field, value):
        data = TestCommands().write_chain_csv(tmp_path, n=200)
        run_cli("fit", "--input", data, "--output", tmp_path / "m.json")
        doc = json.loads((tmp_path / "m.json").read_text(encoding="utf-8"))
        doc[field] = value
        # Strict JSON has no Infinity: an infinite value is the literal 1e400, which reads as inf.
        text = json.dumps(doc).replace("Infinity", "1e400")
        (tmp_path / "m.json").write_text(text, encoding="utf-8")
        capsys.readouterr()
        code = run_cli("bootstrap", "--input", data, "--model", tmp_path / "m.json",
                       "--out", tmp_path / "e.json")
        assert code == 1
        assert one_error_line(capsys).startswith(f"ValueError: model field {field}: ")

    def test_nan_constant_in_model_is_refused(self, tmp_path, capsys):
        data = TestCommands().write_chain_csv(tmp_path, n=200)
        run_cli("fit", "--input", data, "--output", tmp_path / "m.json")
        doc = json.loads((tmp_path / "m.json").read_text(encoding="utf-8"))
        doc["strengths"][1][0] = float("nan")
        (tmp_path / "m.json").write_text(json.dumps(doc), encoding="utf-8")
        capsys.readouterr()
        code = run_cli("bootstrap", "--input", data, "--model", tmp_path / "m.json",
                       "--out", tmp_path / "e.json")
        assert code == 1
        assert one_error_line(capsys) == "ValueError: NaN is not strict JSON\n"


MODEL_KEYS = ["schema", "labels", "order", "strengths", "diagnostics", "estimator", "seed",
              "version", "pruned", "converged"]
REPORT_KEYS = ["schema", "version", "grid", "cells"]
GRID_KEYS = ["p_values", "n_values", "trials", "estimators", "master_seed"]
TRIAL_KEYS = ["trial", "order_errors", "frobenius", "error"]
SUMMARY_KEYS = ["order_errors", "frobenius"]
DIRECT = ("cells", 0, "estimators", "direct")


@pytest.fixture(scope="module")
def artifacts(tmp_path_factory):
    """Every JSON document the CLI writes, from one small run."""
    d = tmp_path_factory.mktemp("artifacts")
    (d / "grid.json").write_text(
        json.dumps({**SCHEMA, "p_values": [3], "n_values": [40], "trials": 2}), encoding="utf-8"
    )
    commands = [
        ("simulate", "--p", 3, "--n", 300, "--seed", 1,
         "--out-data", d / "x.csv", "--out-truth", d / "truth.json"),
        ("fit", "--input", d / "x.csv", "--output", d / "model-direct.json"),
        ("fit", "--input", d / "x.csv", "--method", "ica", "--output", d / "model-ica.json"),
        ("bootstrap", "--input", d / "x.csv", "--model", d / "model-direct.json",
         "--resamples", 100, "--out", d / "edges.json"),
        ("benchmark", "--grid", d / "grid.json", "--out", d / "report.json", "--csv", d / "report.csv"),
        ("benchmark", "--grid", d / "grid.json", "--out", d / "report-timings.json", "--timings"),
    ]
    for argv in commands:
        assert run_cli(*argv) == 0
    return d


# Written key order of each document: its top-level keys, and {path to a nested object: its keys}.
DOCUMENT_KEYS = {
    "model-direct": (MODEL_KEYS, {}),
    "model-ica": (MODEL_KEYS, {}),
    "edges": (
        ["schema", "version", "estimator", "level", "resamples", "singular_redraws", "seed", "edges"],
        {("edges", 0): ["i", "j", "point", "lower", "upper", "significant"]},
    ),
    "report": (
        REPORT_KEYS,
        {
            ("grid",): GRID_KEYS,
            ("cells", 0): ["p", "n", "estimators"],
            DIRECT: ["trials", "failures", "summaries"],
            DIRECT + ("summaries",): SUMMARY_KEYS,
            DIRECT + ("trials", 0): TRIAL_KEYS,
        },
    ),
    "report-timings": (
        REPORT_KEYS,
        {
            ("grid",): GRID_KEYS,
            DIRECT + ("summaries",): SUMMARY_KEYS + ["seconds"],
            DIRECT + ("trials", 0): TRIAL_KEYS + ["seconds"],
        },
    ),
    "truth": (
        ["schema", "p", "n", "network", "seed", "version", "b_true", "noise_stds", "exponents", "shuffle"],
        {},
    ),
}


@pytest.mark.parametrize("name", list(DOCUMENT_KEYS))
def test_document_key_order(artifacts, name):
    top, nested = DOCUMENT_KEYS[name]
    doc = json.loads((artifacts / f"{name}.json").read_text(encoding="utf-8"))
    assert list(doc) == top
    for path, keys in nested.items():
        assert list(functools.reduce(operator.getitem, path, doc)) == keys


@pytest.mark.parametrize("name", list(DOCUMENT_KEYS))
def test_documents_are_strict_json(artifacts, name):
    def refuse(constant):
        raise ValueError(f"{constant} is not JSON")

    json.loads((artifacts / f"{name}.json").read_text(encoding="utf-8"), parse_constant=refuse)


def test_report_csv_column_order(artifacts):
    with open(artifacts / "report.csv", newline="", encoding="utf-8") as fh:
        header = next(csv.reader(fh))
    assert header == ["p", "n", "estimator", "trial", "order_errors", "frobenius", "seconds", "error"]


# The import boundary: scipy.optimize, the ICA baseline's linear assignment solver,
# is loaded only by runs of that baseline. Each case runs in a fresh interpreter.
LOADS_SOLVER = {
    "import": ("import lingamkit", False),
    "simulate": ("main(['simulate', '--p', '3', '--n', '300', '--seed', '1', '--out-data', 'y.csv', "
                 "'--out-truth', 'y.json'])", False),
    "fit-direct": ("main(['fit', '--input', 'x.csv', '--output', 'm.json'])", False),
    "bootstrap": ("main(['bootstrap', '--input', 'x.csv', '--model', 'model-direct.json', "
                  "'--resamples', '20', '--out', 'e.json'])", False),
    "fit-ica": ("main(['fit', '--input', 'x.csv', '--method', 'ica', '--output', 'm.json'])", True),
    # ICA runs only in the forked workers, so only an import before forking puts it in the parent.
    "benchmark-ica-2": ("run_benchmark(BenchmarkGrid(p_values=[3], n_values=[40], trials=2), 2)", True),
    "benchmark-direct-2": ("run_benchmark(BenchmarkGrid(p_values=[3], n_values=[40], trials=2, "
                           "estimators=['direct']), 2)", False),
}


@pytest.mark.parametrize("name", list(LOADS_SOLVER))
def test_scipy_optimize_loaded_only_for_the_ica_baseline(artifacts, name):
    code, loaded = LOADS_SOLVER[name]
    script = (
        "import sys\n"
        "from lingamkit import BenchmarkGrid, run_benchmark\n"
        "from lingamkit.cli import main\n"
        f"{code}\n"
        "print('scipy.optimize' in sys.modules)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", script], cwd=artifacts, env=env, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == str(loaded)
