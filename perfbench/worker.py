"""Run one workload's instances in a fresh process and print the figures.

Usage: python3 worker.py <inputs.json> <seconds> {time,trace,memory} [<spans file>]

``time`` runs whole passes over the instances until ``seconds`` have
passed and reports throughput, latency and peak RSS. ``trace`` runs passes
untraced for half the time and then as many passes traced, and reports the
per-layer figures and the tracing overhead. ``memory`` runs one pass under
``tracemalloc``, in its own process so its slowdown and its bookkeeping stay
out of the other figures. Every output of the timed passes goes through the
correctness gate, outside the timed region. The result is one JSON object
on stdout.
"""

from __future__ import annotations

import json
import resource
import statistics
import sys
import traceback
import tracemalloc
from pathlib import Path
from time import perf_counter

from sixflow import construct, fileio, flows, tutte

from gate import check_solution
from refclock import ReferenceClock
from spans import Tracer, layer_metrics


def solve_path(inst):
    """What ``sixflow solve`` does, called in-process."""
    g = fileio.parse_graph(inst["graph_text"])
    flow, _ = construct.solve(g, inst["root"])
    z6 = tutte.group_flow_to_z6(flow)
    int6 = tutte.group_flow_to_integer_flow(g, z6)
    text = fileio.format_flow(fileio.build_flow_document(g, inst["root"], flow, int6))
    return g, flow, z6, int6, text


def check_solve(inst, out):
    g, flow, z6, int6, text = out
    if g.m != inst["m"]:
        return f"parsed graph has {g.m} edges, expected {inst['m']}"
    return check_solution(g, inst["root"], flow, z6, int6, text)


def verify_path(inst):
    """The read path of ``sixflow verify`` in its group, theorem2 and k6 modes.

    Returns None when every check passes, else the first failure.
    """
    g = fileio.parse_graph(inst["graph_text"])
    doc = fileio.parse_flow(inst["flow_text"])
    if not fileio.flow_matches_graph(doc, g):
        return "flow file does not match the graph"
    f = doc.group_flow()
    if not flows.verify_flow(g, f) or flows.zero_edge(f) is not None:
        return "group check failed"
    if flows.rooted_violation(g, doc.root, f) is not None:
        return "theorem2 check failed"
    if flows.k_flow_violation(g, doc.integer_flow(), 6) is not None:
        return "k6 check failed"
    return None


def check_verify(inst, verdict):
    # Every flow file was solved and gated during setup, so each must pass.
    return verdict


def direct(path, inst):
    return path(inst)


def run_passes(instances, path, check, call=direct, seconds=None, passes=None):
    """Whole passes over the instances, until ``passes`` or ``seconds`` is reached.

    Only the call is timed; the gate runs after the clock stops. An instance
    that raises or fails the gate counts as failed and adds no edges.
    Latencies are in reference seconds (see ``refclock``); ``wall_s`` and
    ``edges`` give the plain wall-clock throughput alongside.
    """
    clock = ReferenceClock()
    latencies = [[] for _ in instances]  # per instance, one entry per pass
    attempted = failed = done = edges = 0
    busy = ref_busy = 0.0
    start = perf_counter()
    while passes is None or done < passes:
        for inst, lat in zip(instances, latencies):
            attempted += 1
            scale = clock.scale()
            t0 = perf_counter()
            try:
                out = call(path, inst)
                problem = None
            except Exception:  # a crash is a failed instance; keep measuring
                problem = traceback.format_exc()
            dt = perf_counter() - t0
            busy += dt
            ref_busy += dt * scale
            if problem is None:
                problem = check(inst, out)
                del out
            if problem:
                failed += 1
                print(f"{inst['name']}: {problem}", file=sys.stderr)
            else:
                lat.append(dt * scale)
                edges += inst["m"]
        done += 1
        if seconds is not None and perf_counter() - start >= seconds:
            break
    return {"attempted": attempted, "failed": failed, "passes": done, "wall_s": busy,
            "edges": edges, "ref_busy_s": ref_busy, "latencies": latencies,
            "reference_loop_s": statistics.median(clock.samples)}


def throughput(instances, latencies):
    """Per-instance figures from each instance's median latency across passes.

    ``edges_per_s`` is the edges of the instances that passed the gate over
    the sum of their median latencies; p50 and p95 are taken over the
    instances. Medians keep a burst of load on a shared machine from
    setting a run's figures.
    """
    ok = [(inst["m"], statistics.median(lat))
          for inst, lat in zip(instances, latencies) if lat]
    if not ok:
        return {"edges_per_s": 0.0, "instance_s_p50": 0.0, "instance_s_p95": 0.0}
    times = [t for _, t in ok]
    if len(times) == 1:
        p50 = p95 = times[0]
    else:
        cuts = statistics.quantiles(times, n=20, method="inclusive")
        p50, p95 = cuts[9], cuts[18]
    return {"edges_per_s": sum(m for m, _ in ok) / sum(times),
            "instance_s_p50": p50, "instance_s_p95": p95}


def _mark():
    tracemalloc.reset_peak()
    return tracemalloc.get_traced_memory()[0]


def _peak_mb(mark):
    return (tracemalloc.get_traced_memory()[1] - mark) / 2**20


def memory_pass(instances):
    """Peak traced allocation inside solve and inside the integer conversion, in MiB."""
    peaks = {"construct.peak_mb": 0.0, "tutte.peak_mb": 0.0}
    if "flow_text" in instances[0]:
        return peaks  # the verify workload solves nothing in its timed path
    tracemalloc.start()
    try:
        for inst in instances:
            g = fileio.parse_graph(inst["graph_text"])
            mark = _mark()
            flow, _ = construct.solve(g, inst["root"])
            peaks["construct.peak_mb"] = max(peaks["construct.peak_mb"], _peak_mb(mark))
            mark = _mark()
            tutte.group_flow_to_integer_flow(g, tutte.group_flow_to_z6(flow))
            peaks["tutte.peak_mb"] = max(peaks["tutte.peak_mb"], _peak_mb(mark))
            del g, flow
    finally:
        tracemalloc.stop()
    return peaks


def main(argv):
    inputs, seconds, mode = Path(argv[0]), float(argv[1]), argv[2]
    manifest = json.loads(inputs.read_text())
    verify = "flow_text" in manifest[0]
    path, check = (verify_path, check_verify) if verify else (solve_path, check_solve)

    if mode == "memory":
        print(json.dumps(memory_pass(manifest)))
        return 0
    if mode == "time":
        run = run_passes(manifest, path, check, seconds=seconds)
        run.update(throughput(manifest, run.pop("latencies")))
        run["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        print(json.dumps(run))
        return 0

    # Half the time untraced, then as many passes traced, so a traced run
    # costs about as much as an untraced one.
    run = run_passes(manifest, path, check, seconds=seconds / 2)

    tracer = Tracer()

    def untraced_check(inst, out):
        # The gate shares functions with the verify path; keep it out of the spans.
        tracer.active = False
        try:
            return check(inst, out)
        finally:
            tracer.active = True

    tracer.install()
    try:
        traced = run_passes(
            manifest, path, untraced_check, passes=run["passes"],
            call=lambda p, inst: tracer.call("bench.instance", p, (inst,)),
        )
    finally:
        tracer.remove()
    if len(argv) > 3:
        tracer.write(argv[3])
    metrics = layer_metrics(tracer.spans, tracer.counts, traced["wall_s"])
    metrics["trace.overhead_frac"] = traced["ref_busy_s"] / run["ref_busy_s"] - 1
    metrics["trace.reference_loop_s"] = traced["reference_loop_s"]
    print(json.dumps({
        "attempted": run["attempted"] + traced["attempted"],
        "failed": run["failed"] + traced["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
