"""Benchmark entry point: runs one workload and prints one JSON result line.

    python3 perfbench/run.py --workload {dense,deep,batch,verify} --seed N \
        --seconds S --trace {0,1}

Run it from the repository root; it imports the program from ``src/``.
Setup generates the workload from the seed and writes it to text, several
times, and ``setup_s`` is the median. A fresh worker process then runs the
timed solve (or verify) path: with ``--trace 0`` it reports the end-to-end
metrics, with ``--trace 1`` a traced pass and a separate ``tracemalloc``
pass give the per-layer metrics. Metric names and units come from
``BENCHMARK.json``. Every output is checked; the exit code is 1 when any
output is wrong and 2 when the program is missing or a worker fails.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from refclock import ReferenceClock

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"
# Setup is repeated at least 5 and at most 200 times, until it has taken 2 s;
# setup_s is the median.
SETUP_MIN_REPEATS, SETUP_MAX_REPEATS, SETUP_SECONDS = 5, 200, 2.0
DEADLINE_S = 170.0  # the whole command must end within 180 s


class WorkerError(RuntimeError):
    pass


def _worker(inputs, mode, seconds, started, *extra):
    cmd = [sys.executable, str(HERE / "worker.py"), str(inputs), str(seconds), mode, *extra]
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    budget = DEADLINE_S - (time.perf_counter() - started)
    try:
        proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True,
                              timeout=max(1.0, budget), check=False)
    except subprocess.TimeoutExpired:
        raise WorkerError(f"{mode} worker ran past the {DEADLINE_S:.0f} s deadline") from None
    if proc.returncode != 0:
        raise WorkerError(f"{mode} worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def measure(workload, seed, seconds, trace, tiny=False):
    """Set up, run the worker(s), and return (attempted, failed, values)."""
    from workloads import write_inputs  # needs the program on sys.path

    started = time.perf_counter()
    WORK.mkdir(exist_ok=True)
    inputs = WORK / f"{workload}-{os.getpid()}.json"
    try:
        clock = ReferenceClock()
        setup, setup_wall = [], 0.0
        while len(setup) < SETUP_MIN_REPEATS or (
                setup_wall < SETUP_SECONDS and len(setup) < SETUP_MAX_REPEATS):
            scale = clock.scale()
            t0 = time.perf_counter()
            write_inputs(workload, seed, inputs, tiny)
            elapsed = time.perf_counter() - t0
            setup_wall += elapsed
            setup.append(elapsed * scale)
        if trace:
            out = _worker(inputs, "trace", seconds, started,
                          str(WORK / f"spans-{workload}.jsonl"))
            values = out["metrics"]
            values.update(_worker(inputs, "memory", seconds, started))
        else:
            out = _worker(inputs, "time", seconds, started)
            values = dict(out, setup_s=statistics.median(setup))
    finally:
        inputs.unlink(missing_ok=True)
    return out["attempted"], out["failed"], values


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("dense", "deep", "batch", "verify"))
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="small inputs, for the benchmark's self-test")
    args = parser.parse_args(argv)

    spec_file = ROOT / "BENCHMARK.json"
    if not (SRC / "sixflow" / "__init__.py").is_file() or not spec_file.is_file():
        print(f"error: run from a checkout that has src/sixflow and {spec_file.name}",
              file=sys.stderr)
        return 2
    spec = json.loads(spec_file.read_text())
    sys.path.insert(0, str(SRC))
    try:
        attempted, failed, values = measure(
            args.workload, args.seed, args.seconds, args.trace, args.tiny)
    except WorkerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    kind = "per_layer" if args.trace else "end_to_end"
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec[kind]}
    for name, metric in metrics.items():
        print(f"{args.workload} {name} = {metric['value']:.6g} {metric['unit']}")
    if not args.trace:
        print(f"{args.workload} wall clock: {values['edges'] / values['wall_s']:.6g} edges/s, "
              f"reference loop {values['reference_loop_s'] * 1e3:.3g} ms "
              f"(times above are in reference seconds; see refclock.py)")
    print(f"{args.workload} failed_frac = {failed / attempted:.6g} ({failed} of {attempted})")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
