"""lingamkit benchmark: one closed-loop client driving the CLI in-process.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload fit --seed 1 --seconds 30 --trace 0

Set-up (input generation, reference answers, warm-up) runs several
times and ``setup_s`` is its median. Then operations run back to back
until ``--seconds`` have passed (the last one is not started if it
would most likely end after that); each output is checked, and ``op_s`` is
the median wall time. With ``--trace 1`` traced and untraced operations
alternate, and the per-layer metrics come from the spans of the traced
ones (see spans.py) plus those of input generation. The last line of
standard output is the JSON result; the lines before it print every
metric with its unit and the environment. Spans and the result are
also written to ``.perfbench_work/`` in the checkout.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import traceback
from collections import Counter, defaultdict
from contextlib import redirect_stdout
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 3
MIN_OPS = 3  # untraced operations per run, however short --seconds is
MIN_TRACED_PAIRS = 2

SPEC_FILE = ROOT / "BENCHMARK.json"


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("fit", "bootstrap", "sweep"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="input sizes; 'tiny' is for the self-test only")
    return parser.parse_args(argv)


def import_program():
    """Import lingamkit from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "lingamkit" / "__init__.py").is_file():
        sys.exit(f"perfbench: no lingamkit sources under {src}")
    sys.path.insert(0, str(src))
    import lingamkit

    if Path(lingamkit.__file__).resolve().parent != (src / "lingamkit").resolve():
        sys.exit(f"perfbench: imported lingamkit from {lingamkit.__file__}, not {src}")
    return lingamkit


def blas_threads() -> str:
    """OpenBLAS thread count from the library numpy loaded, if it can be asked."""
    import numpy as np

    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*"))
    for lib in libs:
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                return str(fn())
    env = [f"{k}={os.environ[k]}" for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
           if k in os.environ]
    return ",".join(env) or "library default"


def git_commit() -> str:
    """Commit of the checkout, read from .git without running git; 'unknown' outside git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def environment(seed: int) -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "cpu_count": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "machine": platform.machine(),
        "git_commit": git_commit(),
        "seed": seed,
    }


def layer_metrics(spans, counts) -> dict[str, float]:
    """Per-layer numbers for one traced unit of work (an operation or a set-up)."""
    from spans import self_times

    own = self_times(spans)
    by_id = {s.id: s for s in spans}
    self_s, calls, busy = defaultdict(float), Counter(), defaultdict(float)
    for s in spans:
        self_s[s.name] += own[s.id]
        calls[s.name] += 1
        parent = by_id.get(s.parent)
        if parent is not None and parent.name == "evaluation.run_benchmark":
            busy[s.name] += s.seconds
    out = {f"{name}_s": seconds for name, seconds in self_s.items()}
    out.update({f"{name}_calls": float(n) for name, n in calls.items()})
    out.update({name: float(n) for name, n in counts.items()})
    out["cli.self_s"] = self_s["cli.main"]
    starts = sorted(s.start_ns for s in spans if s.name == "bootstrap.center")
    gaps = [(b - a) / 1e9 for a, b in zip(starts, starts[1:])]
    out["bootstrap.resample_s"] = statistics.median(gaps) if gaps else 0.0
    out["bootstrap.redraws"] = float(sum(
        1 for s in spans
        if s.error and s.parent in by_id and by_id[s.parent].name == "bootstrap.bootstrap_cis"
    ))
    out["evaluation.direct_fit_s"] = busy["direct.estimate_order"] + busy["direct.estimate_strengths"]
    out["evaluation.ica_fit_s"] = busy["ica.ica_lingam_fit"]
    out["_self_sum_s"] = sum(own.values())
    roots = [s for s in spans if s.parent is None]
    out["_root_s"] = sum(s.seconds for s in roots)
    return out


class Run:
    def __init__(self, args, program):
        from workloads import WORKLOADS

        self.args = args
        self.program = program
        self.workdir = ROOT / ".perfbench_work" / f"{args.workload}-seed{args.seed}-{os.getpid()}"
        shutil.rmtree(self.workdir, ignore_errors=True)
        self.workdir.mkdir(parents=True)
        self.workload = WORKLOADS[args.workload](self.workdir, args.seed, args.scale)
        self.tracer = None
        if args.trace:
            from spans import Tracer

            self.tracer = Tracer()
        self.attempted = self.failed = 0

    def setup(self) -> list[float]:
        times = []
        for k in range(SETUP_REPEATS):
            start = perf_counter()
            with redirect_stdout(io.StringIO()):
                if self.tracer:
                    with self.tracer.install():
                        self.workload.generate_inputs()
                else:
                    self.workload.generate_inputs()
                self.workload.prepare_reference()
                self.workload.warm_up()
            times.append(perf_counter() - start)
            if self.tracer:
                self.setup_units.append(layer_metrics(*self.tracer.take(f"setup{k}")))
        return times

    def operation(self, traced: bool) -> float:
        self.workload.output.unlink(missing_ok=True)
        buf = io.StringIO()
        start = perf_counter()
        try:
            if traced:
                with self.tracer.install(), redirect_stdout(buf):
                    start = perf_counter()
                    rc = self.program.cli.main(self.workload.argv())
                    elapsed = perf_counter() - start
            else:
                with redirect_stdout(buf):
                    start = perf_counter()
                    rc = self.program.cli.main(self.workload.argv())
                    elapsed = perf_counter() - start
            problem = f"exit code {rc}" if rc != 0 else self.workload.check(buf.getvalue())
        except Exception:
            elapsed = perf_counter() - start
            problem = traceback.format_exc()
        self.attempted += 1
        if problem:
            self.failed += 1
            print(f"perfbench: operation {self.attempted} failed: {problem}", file=sys.stderr)
        return elapsed

    def measure(self):
        self.setup_units: list[dict] = []
        self.setup_times = self.setup()
        self.untraced: list[float] = []
        self.traced: list[float] = []
        self.op_units: list[dict] = []
        deadline = perf_counter() + self.args.seconds
        while True:
            traced = bool(self.tracer) and len(self.untraced) > len(self.traced)
            elapsed = self.operation(traced)
            if traced:
                self.traced.append(elapsed)
                self.op_units.append(layer_metrics(*self.tracer.take(f"op{len(self.traced)}")))
            else:
                self.untraced.append(elapsed)
            enough = (
                len(self.traced) >= MIN_TRACED_PAIRS and len(self.untraced) == len(self.traced)
                if self.tracer else len(self.untraced) >= MIN_OPS
            )
            # Stop when the next operation would most likely end past the deadline.
            if enough and perf_counter() + statistics.median(self.untraced) > deadline:
                break
        self.accuracy = self.workload.accuracy() if not self.failed else {}

    def trace_consistent(self) -> bool:
        """Self times of every traced unit add up to its root spans' wall time."""
        ok = True
        for unit in self.setup_units + self.op_units:
            if abs(unit["_self_sum_s"] - unit["_root_s"]) > 1e-6 * max(1.0, unit["_root_s"]):
                print(f"perfbench: self times sum to {unit['_self_sum_s']}s, "
                      f"root spans to {unit['_root_s']}s", file=sys.stderr)
                ok = False
        return ok

    def per_layer(self, names) -> dict[str, float]:
        def med(units, key):
            return statistics.median(u.get(key, 0.0) for u in units) if units else 0.0

        values = {
            m: med(self.op_units, m) + med(self.setup_units, m)
            for m in list(names) + ["independence.pair_obs"]
        }
        values["bootstrap.resample_s"] = med(self.op_units, "bootstrap.resample_s")
        pair_obs = values.pop("independence.pair_obs")
        t_profile = values["independence.t_profile_s"]
        values["independence.pair_obs_per_s"] = pair_obs / t_profile if t_profile else 0.0
        serial = self.workload.reference_seconds
        values["evaluation.parallel_speedup"] = (
            statistics.median(serial) / statistics.median(self.untraced) if serial else 0.0
        )
        values["trace.overhead_ratio"] = (
            statistics.median(self.traced) / statistics.median(self.untraced)
        )
        return values

    def end_to_end(self) -> dict[str, float]:
        return {
            "setup_s": statistics.median(self.setup_times),
            "op_s": statistics.median(self.untraced),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }


def main(argv=None) -> int:
    args = parse_args(argv)
    # One BLAS thread unless the caller chose otherwise: on a small shared
    # machine, a second BLAS thread made the same bootstrap operation take
    # anywhere from 2.0 to 3.4 s, against 2.8 to 3.2 s with one.
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    if args.seconds <= 0:
        sys.exit("perfbench: --seconds must be positive")
    program = import_program()
    import lingamkit.cli  # noqa: F401  (the entry point every operation calls)

    with open(SPEC_FILE, encoding="utf-8") as fh:
        spec = json.load(fh)
    run = Run(args, program)
    env = environment(args.seed)
    run.measure()
    consistent = run.trace_consistent()

    print(f"perfbench workload={args.workload} seed={args.seed} trace={args.trace} "
          f"scale={args.scale} seconds={args.seconds}")
    print("env " + json.dumps(env, sort_keys=True))
    if args.trace:
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        metrics = run.per_layer(units)
        print(f"traced operations: {len(run.traced)}, untraced: {len(run.untraced)}, "
              f"traced set-ups: {len(run.setup_units)}")
    else:
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        metrics = run.end_to_end()
        print(f"op_s is the median of {len(run.untraced)} operations; "
              f"setup_s the median of {len(run.setup_times)} set-ups")
        extra = {"failed_share": (run.failed / run.attempted, "1"), **run.accuracy}
        for name, (value, unit) in extra.items():
            print(f"metric {name} = {value!r} {unit}")
    for name, unit in units.items():
        print(f"metric {name} = {metrics[name]!r} {unit}")

    result = {
        "correct": run.failed == 0 and consistent,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    if run.tracer:
        run.tracer.write(run.workdir.parent / f"trace-{args.workload}-seed{args.seed}.json",
                         {"env": env, "argv": sys.argv[1:], "result": result})
    shutil.rmtree(run.workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
