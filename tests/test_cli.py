import csv
import dataclasses
import io
import json
import warnings

import numpy as np
import pytest

from lingamkit import Dataset, SynthConfig, center, generate
from lingamkit.cli import ModelDocument, load_csv, main, write_dataset_csv
from lingamkit.errors import NonNumericCell, ParseError, RaggedRows

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
        data, _ = generate(SynthConfig(p=4, n=50, seed=3))
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
    "separator char": ("a,b\n1,2\n\x1c3,4\n", {}, (NonNumericCell, 3, 1)),
    "ragged row": ("a,b\n1,2\n3\n", {}, (RaggedRows, 3, 1)),
    "whitespace line": ("a,b\n1,2\n  \n3,4\n", {}, (RaggedRows, 3, 1)),
    "header only": ("a,b\n", {}, (ParseError, 1, 1)),
    "empty file": ("", {}, (ParseError, 1, 1)),
    "no header, empty": ("\n\n", {"header": False}, (ParseError, 1, 1)),
}

# (text, load_csv keywords, labels or None for generated ones, raw table with variables as rows)
PARSE_VALUES = {
    "plain": ("a,b\n1,4\n2,5\n3,9\n", {}, ("a", "b"), [[1, 2, 3], [4, 5, 9]]),
    "quoted number": ('a,b\n"1.5",4\n2,5\n', {}, ("a", "b"), [[1.5, 2], [4, 5]]),
    "underscores": ("a,b\n1_000,4\n2,5\n", {}, ("a", "b"), [[1000, 2], [4, 5]]),
    "blank lines": ("\na,b\n\n1,4\n\r\n2,5\n\n", {}, ("a", "b"), [[1, 2], [4, 5]]),
    "cr endings": ("a,b\r1,4\r2,5\r", {}, ("a", "b"), [[1, 2], [4, 5]]),
    "padded cells": (" a , b\n 1 ,\t4\n2,5 \n", {}, ("a", "b"), [[1, 2], [4, 5]]),
    "no header": ("1,4\n2,5\n", {"header": False}, None, [[1, 2], [4, 5]]),
    "variables as rows": (
        "a,b,c\n1,2,3\n4,5,9\n", {"variables_as_rows": True}, None, [[1, 2, 3], [4, 5, 9]]
    ),
}


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
        expected = center(np.array(raw, dtype=float), labels=labels)
        assert ds.labels == expected.labels
        assert np.array_equal(ds.values, expected.values)

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
        data = Dataset(values, ("a", "b", "c"), centered=True)
        path = tmp_path / "r.csv"
        write_dataset_csv(path, data)
        loaded = load_csv(str(path))
        assert loaded.labels == data.labels
        assert np.array_equal(loaded.values.view(np.int64), data.values.view(np.int64))


class TestWriteDatasetCsv:
    def test_bytes_match_csv_writer_with_repr(self, tmp_path):
        labels = ("plain", "with,comma", 'with"quote', " spaced ")
        data, _ = generate(SynthConfig(p=4, n=30, seed=5))
        data = Dataset(data.values, labels, centered=True)
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

    def test_fit_deterministic_bytes(self, tmp_path, capsys):
        data = self.write_chain_csv(tmp_path)
        out1, out2 = tmp_path / "m1.json", tmp_path / "m2.json"
        run_cli("fit", "--input", data, "--output", out1)
        run_cli("fit", "--input", data, "--output", out2)
        assert out1.read_bytes() == out2.read_bytes()

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
