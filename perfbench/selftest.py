"""Self-test of the benchmark itself.

    python3 perfbench/selftest.py

1. A tiny run of every workload, untraced and traced, exits 0 and prints as
   its last line a result whose metrics are exactly the ones BENCHMARK.json
   names for that mode.
2. A copy of the program whose integer conversion corrupts one int6 value
   makes the gate count every instance as failed and the run exit 1.
3. A directory holding only BENCHMARK.json and the benchmark makes the run
   exit nonzero without printing a result.

Copies are made under perfbench/.work and removed afterwards.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / ".work"

# Appended to a copy of tutte.py: shift one non-loop int6 value by 6, which
# keeps it congruent to its Z6 value but breaks conservation at both ends.
CORRUPTION = '''

_exact_integer_flow = group_flow_to_integer_flow


def group_flow_to_integer_flow(g, phi, stats=None):
    f = _exact_integer_flow(g, phi, stats)
    e = min(e for e in f if g.endpoints(e)[0] != g.endpoints(e)[1])
    f[e] += -6 if f[e] > 0 else 6
    return f
'''


def run(root, workload, trace, seed=3):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", "0.5", "--trace", str(trace), "--tiny"]
    return subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=170)


def last_json(proc):
    return json.loads(proc.stdout.strip().splitlines()[-1])


def copy_checkout(dest, with_program=True):
    shutil.rmtree(dest, ignore_errors=True)
    shutil.copytree(HERE, dest / HERE.name, ignore=shutil.ignore_patterns(".work", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", dest)
    if with_program:
        shutil.copytree(ROOT / "src", dest / "src", ignore=shutil.ignore_patterns("__pycache__"))


def check_metrics_named():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
        names = {m["name"] for m in spec[kind]}
        for workload in (w["name"] for w in spec["workloads"]):
            proc = run(ROOT, workload, trace)
            assert proc.returncode == 0, (workload, trace, proc.stderr)
            result = last_json(proc)
            assert set(result) == {"correct", "attempted", "failed", "metrics"}, result
            assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
            assert set(result["metrics"]) == names, (workload, names ^ set(result["metrics"]))
            for name, metric in result["metrics"].items():
                assert isinstance(metric["value"], (int, float)), (workload, name)
            if trace:
                frac = result["metrics"]["trace.accounted_frac"]["value"]
                assert 0.95 < frac <= 1.0, (workload, "spans do not cover the wall time", frac)
            print(f"ok: {workload} --trace {trace} prints every {kind} metric")


def check_corruption_fails():
    dest = WORK / "selftest-corrupt"
    copy_checkout(dest)
    tutte = dest / "src" / "sixflow" / "tutte.py"
    tutte.write_text(tutte.read_text() + CORRUPTION)
    try:
        proc = run(dest, "dense", 0)
        result = last_json(proc)
        assert proc.returncode == 1, (proc.returncode, proc.stderr)
        assert not result["correct"] and result["failed"] == result["attempted"] >= 1, result
        assert "not a nowhere-zero 6-flow" in proc.stderr, proc.stderr
    finally:
        shutil.rmtree(dest)
    print("ok: a corrupted int6 value is counted as failed and fails the run")


def check_bare_directory_fails():
    dest = WORK / "selftest-bare"
    copy_checkout(dest, with_program=False)
    try:
        proc = run(dest, "batch", 0)
        assert proc.returncode != 0, proc.stdout
        assert not proc.stdout.strip(), proc.stdout
    finally:
        shutil.rmtree(dest)
    print("ok: without the program the run exits nonzero and prints no result")


if __name__ == "__main__":
    check_metrics_named()
    check_corruption_fails()
    check_bare_directory_fails()
