"""Command-line surface: CSV/JSON I/O and the four subcommands.

Commands are deterministic given their ``--seed``; artifacts are
written with full round-trip float precision, and JSON documents carry
a schema version that loaders check before use.
"""

from __future__ import annotations

import argparse
import csv
import itertools
import json
import sys
from dataclasses import MISSING, dataclass, field, fields

import numpy as np

from . import __version__, direct
from .bootstrap import bootstrap_cis
from .core import CausalOrder, Dataset, _at_least, _field_dict, _integer, _of, _real
from .errors import (
    DimensionMismatch,
    LingamError,
    NonNumericCell,
    ParseError,
    RaggedRows,
    SchemaVersionError,
)
from .evaluation import BenchmarkGrid, run_benchmark
from .ica import ica_lingam_fit
from .synth import generate

SCHEMA_MAJOR = 1
SCHEMA_MINOR = 0

# The estimators of ``fit --method``, which a model file's ``estimator`` names.
METHODS = ("direct", "ica")


def _schema(name: str) -> dict:
    return {"name": name, "major": SCHEMA_MAJOR, "minor": SCHEMA_MINOR}


def _check_schema(doc, name: str) -> None:
    schema = doc.get("schema") if isinstance(doc, dict) else None
    if not isinstance(schema, dict) or schema.get("name") != name:
        raise SchemaVersionError(f"not a {name} document")
    if schema.get("major") != SCHEMA_MAJOR:
        raise SchemaVersionError(
            f"unsupported major schema version {schema.get('major')} (supported: {SCHEMA_MAJOR})"
        )


def load_csv(path, header: bool = True, variables_as_rows: bool = False) -> Dataset:
    """Read a rectangular numeric CSV into a centered dataset.

    By default rows are observations and columns are variables (labels
    from the header when present); ``variables_as_rows`` flips the
    orientation, in which case a header row is discarded and labels are
    generated. Completely empty records are skipped. Header labels and
    cells have surrounding whitespace stripped by one rule, ``str.strip()``,
    which ``np.loadtxt`` also follows; a leading UTF-8 byte-order mark is dropped.

    The file is opened once and parsed with one ``np.loadtxt`` call. Input
    it does not accept as a finite table is read again from the start of
    the same handle by the per-cell parser, which reports the first bad
    cell's line and column or parses the rare valid cells ``loadtxt``
    rejects (quoted numbers, ``1_000``, non-ASCII digits).
    """
    with open(path, newline="", encoding="utf-8-sig") as fh:
        try:
            head_line, head = 0, None
            if header:
                reader = csv.reader(fh)
                head = next(row for row in reader if row)
                head_line = reader.line_num
            # np.loadtxt warns on input with no data, so a file without one goes to the fallback
            first = next(line for line in fh if line.strip("\r\n"))
            table = np.loadtxt(itertools.chain((first,), fh), delimiter=",", comments=None, ndmin=2)
            if not np.isfinite(table).all():
                raise ValueError("non-finite cell")
        except (ValueError, csv.Error, StopIteration):
            fh.seek(0)
            head_line, head, table = _located_table(fh, header)

    labels = None if head is None or variables_as_rows else tuple(cell.strip() for cell in head)
    values = table if variables_as_rows else table.T
    if labels is not None and len(labels) != values.shape[0]:
        raise RaggedRows(head_line, values.shape[0], len(labels))
    return Dataset(values, labels)


def _located_table(fh, header: bool) -> tuple[int, list[str] | None, np.ndarray]:
    """Per-cell parse to ``(header line, header cells, table)``; errors carry 1-based locations."""
    reader = csv.reader(fh)
    try:
        records = [(reader.line_num, row) for row in reader if row]
    except csv.Error as exc:
        raise ParseError(reader.line_num, 1, f"malformed CSV: {exc}") from exc
    if not records:
        raise ParseError(1, 1, "empty CSV file")

    head_line, head = 0, None
    if header:
        head_line, head = records.pop(0)
        if not records:
            raise ParseError(head_line, 1, "no data rows after header")

    width = len(records[0][1])
    table = np.empty((len(records), width))
    for r, (line, row) in enumerate(records):
        if len(row) != width:
            raise RaggedRows(line, width, len(row))
        for c, cell in enumerate(row):
            try:
                table[r, c] = value = float(cell.strip())
                if not np.isfinite(value):
                    raise ValueError(cell)
            except ValueError:
                raise NonNumericCell(line, c + 1, cell) from None
    return head_line, head, table


def write_dataset_csv(path, dataset: Dataset) -> None:
    """Write observations as rows with a label header, full float precision."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerow(dataset.labels)
        fh.writelines(",".join(map(repr, row.tolist())) + "\r\n" for row in dataset.values.T)


def _strings(values) -> tuple[str, ...]:
    """A list of strings as a tuple; a string alone is not one."""
    if not isinstance(values, (list, tuple)) or not all(isinstance(s, str) for s in values):
        raise TypeError(f"expected a list of strings, got {values!r}")
    return tuple(values)


def _float_rows(rows) -> tuple[tuple[float, ...], ...]:
    return tuple(tuple(_real(v, f"expected a finite number, got {v!r}") for v in row) for row in rows)


def _method(value) -> str:
    if value not in METHODS:
        raise ValueError(f"expected one of {METHODS}, got {value!r}")
    return value


def _read(read, default=MISSING):
    """A document field whose JSON value ``read`` turns back into the field's value."""
    return field(default=default, metadata={"read": read})


@dataclass(frozen=True)
class ModelDocument:
    """Serialized estimation result; restores everything bit-for-bit.

    The fields, in order, are the document's keys after ``schema``."""

    labels: tuple[str, ...] = _read(_strings)
    order: tuple[int, ...] = _read(lambda subs: tuple(_integer("subscript", s) for s in subs))
    strengths: tuple[tuple[float, ...], ...] = _read(_float_rows)
    diagnostics: tuple[tuple[tuple[int, float], ...], ...] = _read(
        lambda steps: tuple(
            tuple((_integer("subscript", s), _real(t, f"expected a finite number, got {t!r}")) for s, t in st)
            for st in steps
        )
    )
    estimator: str = _read(_method)
    seed: int = _read(lambda value: _at_least("seed", value, 0))
    version: str = _read(lambda value: _of(str, "version", value))
    pruned: tuple[tuple[float, ...], ...] | None = _read(_float_rows, None)
    converged: bool | None = _read(lambda value: _of(bool, "converged", value), None)

    def to_dict(self) -> dict:
        return {"schema": _schema("lingamkit-model"), **_field_dict(self)}

    @classmethod
    def from_dict(cls, doc) -> "ModelDocument":
        """A value its field's reader refuses raises ``ValueError`` naming the field;
        a missing required key raises ``KeyError``, a null optional one reads as None."""
        _check_schema(doc, "lingamkit-model")
        values = {}
        for f in fields(cls):
            value = doc[f.name] if f.default is MISSING else doc.get(f.name)
            try:
                values[f.name] = value if value is f.default else f.metadata["read"](value)
            except (TypeError, ValueError, OverflowError) as exc:
                raise ValueError(f"model field {f.name}: {exc}") from None
        return cls(**values)


def _read_json(path):
    """Read strict JSON: a bare ``NaN``, ``Infinity`` or ``-Infinity`` raises ``ValueError``."""

    def refuse(constant):
        raise ValueError(f"{constant} is not strict JSON")

    with open(path, encoding="utf-8") as fh:
        return json.load(fh, parse_constant=refuse)


def _write_json(path, payload: dict) -> None:
    """Write strict JSON: a NaN or infinity raises ``ValueError`` before the file is opened."""
    text = json.dumps(payload, indent=2, allow_nan=False)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text + "\n")


def _cmd_fit(args) -> int:
    data = load_csv(args.input, header=not args.no_header, variables_as_rows=args.variables_as_rows)
    if args.method == "direct":
        model = direct.fit(data)
        shown = model.strengths
        own = {"diagnostics": tuple(tuple(sorted(step.items())) for step in model.diagnostics)}
    else:
        model = ica_lingam_fit(data, np.random.default_rng(args.seed))
        shown = model.pruned
        own = {"diagnostics": (), "pruned": _float_rows(model.pruned.entries), "converged": model.converged}

    doc = ModelDocument(
        labels=data.labels,
        order=model.order.order,
        strengths=_float_rows(model.strengths.entries),
        estimator=args.method,
        seed=args.seed,
        version=__version__,
        **own,
    )
    _write_json(args.output, doc.to_dict())
    print(f"estimator: {args.method}")
    print("causal order: " + " ".join(data.labels[s - 1] for s in model.order))
    print("edges:")
    for i, j in np.argwhere(shown.entries != 0.0):
        print(f"  {data.labels[j]} -> {data.labels[i]} : {shown.entries[i, j]:.6g}")
    return 0


def _cmd_simulate(args) -> int:
    network = "random-choice" if args.network == "random" else args.network
    dataset, truth = generate(args.p, args.n, network, np.random.default_rng(args.seed))
    write_dataset_csv(args.out_data, dataset)
    payload = {
        "schema": _schema("lingamkit-truth"),
        "p": args.p,
        "n": args.n,
        "network": args.network,
        "seed": args.seed,
        "version": __version__,
        "b_true": _float_rows(truth.b_true.entries),
        "noise_stds": list(truth.noise_stds),
        "exponents": list(truth.exponents),
        "shuffle": list(truth.shuffle.order),
    }
    _write_json(args.out_truth, payload)
    print(f"wrote {dataset.p} variables x {dataset.n} observations to {args.out_data}")
    return 0


def _cmd_benchmark(args) -> int:
    grid_doc = _read_json(args.grid)
    _check_schema(grid_doc, "lingamkit-grid")
    missing = [key for key in ("p_values", "n_values", "trials") if key not in grid_doc]
    if missing:  # a grid without them would fall back to the full protocol
        raise ValueError(f"grid document lacks {', '.join(missing)}")
    known = {f.name for f in fields(BenchmarkGrid)}
    grid = BenchmarkGrid(**{key: value for key, value in grid_doc.items() if key in known})
    report = run_benchmark(grid, threads=args.threads)
    payload = {"schema": _schema("lingamkit-benchmark-report"), "version": __version__}
    payload.update(report.to_dict(include_timings=args.timings))
    _write_json(args.out, payload)
    if args.csv:
        report.write_csv(args.csv, include_timings=args.timings)
    if args.summary:
        print(report.summary_table())
    return 0


def _cmd_bootstrap(args) -> int:
    data = load_csv(args.input, header=not args.no_header, variables_as_rows=args.variables_as_rows)
    doc = ModelDocument.from_dict(_read_json(args.model))
    if doc.labels != data.labels:
        raise DimensionMismatch(
            f"model labels {list(doc.labels)} do not match dataset labels {list(data.labels)}"
        )
    report = bootstrap_cis(
        data,
        CausalOrder(doc.order),
        np.random.default_rng(args.seed),
        level=args.level,
        resamples=args.resamples,
    )
    payload = {
        "schema": _schema("lingamkit-edges"),
        "version": __version__,
        "estimator": doc.estimator,
        "level": report.level,
        "resamples": report.resamples,
        "singular_redraws": report.singular_redraws,
        "seed": args.seed,
        "edges": [_field_dict(e) for e in report.edges],
    }
    _write_json(args.out, payload)
    for edge in report.edges:
        print(edge.as_text(data.labels))
    return 0


def _add_csv_options(parser) -> None:
    parser.add_argument("--no-header", action="store_true", help="CSV has no header row")
    parser.add_argument(
        "--variables-as-rows",
        action="store_true",
        help="CSV rows are variables instead of observations",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lingamkit",
        description="Causal discovery in linear non-Gaussian acyclic models.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_fit = sub.add_parser("fit", help="estimate a causal order and strengths from a CSV")
    p_fit.add_argument("--input", required=True)
    p_fit.add_argument("--method", choices=METHODS, default="direct")
    p_fit.add_argument("--seed", type=int, default=0)
    p_fit.add_argument("--output", required=True)
    _add_csv_options(p_fit)
    p_fit.set_defaults(handler=_cmd_fit)

    p_sim = sub.add_parser("simulate", help="generate a synthetic dataset and its ground truth")
    p_sim.add_argument("--p", type=int, required=True)
    p_sim.add_argument("--n", type=int, required=True)
    p_sim.add_argument("--network", choices=("dense", "sparse", "random"), default="random")
    p_sim.add_argument("--seed", type=int, default=0)
    p_sim.add_argument("--out-data", required=True)
    p_sim.add_argument("--out-truth", required=True)
    p_sim.set_defaults(handler=_cmd_simulate)

    p_bench = sub.add_parser("benchmark", help="run a benchmark sweep from a grid file")
    p_bench.add_argument("--grid", required=True)
    p_bench.add_argument("--out", required=True)
    p_bench.add_argument("--csv", default=None)
    p_bench.add_argument("--summary", action="store_true", help="print a median table")
    p_bench.add_argument("--threads", type=int, default=1, help="run trials on N forked processes")
    p_bench.add_argument(
        "--timings",
        action="store_true",
        help="include wall times in artifacts (breaks byte-for-byte reproducibility)",
    )
    p_bench.set_defaults(handler=_cmd_benchmark)

    p_boot = sub.add_parser("bootstrap", help="bootstrap confidence intervals for a fitted order")
    p_boot.add_argument("--input", required=True)
    p_boot.add_argument("--model", required=True)
    p_boot.add_argument("--level", type=float, default=0.99)
    p_boot.add_argument("--resamples", type=int, default=2000)
    p_boot.add_argument("--seed", type=int, default=0)
    p_boot.add_argument("--out", required=True)
    _add_csv_options(p_boot)
    p_boot.set_defaults(handler=_cmd_bootstrap)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if "seed" in vars(args):
            _at_least("--seed", args.seed, 0)
        return args.handler(args)
    except (LingamError, OSError, ValueError, KeyError) as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
