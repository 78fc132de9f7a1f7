"""Self-test of the benchmark: every workload at a tiny size, both modes.

Run from the root of a checkout:

    python3 perfbench/selftest.py          # or: python3 -m pytest perfbench/selftest.py

Checks that each run exits 0, that its last line is a result with
exactly the contract's keys, that every metric BENCHMARK.json declares
is reported and printed with its unit, that every output check passed,
and that the benchmark refuses to run without the program's sources.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
TIMEOUT = 180

# Named on the human-readable lines of a --trace 0 run, besides the declared ones.
PRINTED_ONLY = {
    "fit": ["failed_share", "direct_order_errors"],
    "bootstrap": ["failed_share", "ci_width_median"],
    "sweep": ["failed_share", "direct_order_errors", "ica_order_errors",
              "direct_frobenius_median", "trial_error_share"],
}


def run_bench(workload: str, trace: int, cwd: Path = ROOT, scale: str = "tiny"):
    cmd = [sys.executable, *SPEC["command"][1:], "--workload", workload, "--seed", "5",
           "--seconds", "0.5", "--trace", str(trace), "--scale", scale]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=TIMEOUT)


def check_run(workload: str, trace: int) -> None:
    proc = run_bench(workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result
    assert result["correct"] is True and result["failed"] == 0, proc.stderr
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    printed = {
        name: (value, unit)
        for name, value, unit in re.findall(r"^metric (\S+) = (\S+) (\S+)$", proc.stdout, re.M)
    }
    for m in declared:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"], (m, got)
        assert isinstance(got["value"], (int, float)), (m, got)
        assert printed[m["name"]][1] == m["unit"], m["name"]
    if not trace:
        for name in PRINTED_ONLY[workload]:
            assert name in printed, name
        assert float(printed["failed_share"][0]) == 0.0


def test_workloads_untraced():
    for w in SPEC["workloads"]:
        check_run(w["name"], 0)


def test_workloads_traced():
    for w in SPEC["workloads"]:
        check_run(w["name"], 1)


def test_tracer_is_thread_safe():
    """More pool threads than cores, a tiny switch interval: no span or count is lost."""
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    from spans import Tracer, self_times

    tracer = Tracer()
    leaf = tracer._count_wrapper("calls", None, tracer._span_wrapper("leaf", lambda: None))

    def work(_):
        for _ in range(2000):
            leaf()

    def fan_out():
        with tracer._pool_class()(max_workers=8) as pool:
            list(pool.map(work, range(8)))

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        tracer._span_wrapper("root", fan_out)()
    finally:
        sys.setswitchinterval(old)
    spans, counts = tracer.take("stress")
    assert counts["calls"] == 16000
    assert len({s.id for s in spans}) == len(spans) == 16001
    (root,) = [s for s in spans if s.name == "root"]
    assert all(s.parent == root.id for s in spans if s.name == "leaf")
    assert abs(sum(self_times(spans).values()) - root.seconds) < 1e-6


def test_refuses_without_program():
    bare = ROOT / ".perfbench_work" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in SPEC["paths"]:
            shutil.copytree(ROOT / path, bare / path,
                            ignore=shutil.ignore_patterns("__pycache__"))
        proc = run_bench(SPEC["workloads"][0]["name"], 0, cwd=bare, scale="full")
        assert proc.returncode != 0
        assert '"correct"' not in proc.stdout
    finally:
        shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    for test in (test_workloads_untraced, test_workloads_traced, test_tracer_is_thread_safe,
                 test_refuses_without_program):
        test()
        print(f"ok {test.__name__}")
