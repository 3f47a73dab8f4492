"""Seeded inputs for the benchmark workloads, written to text during setup.

Every workload is a pure function of (name, seed, tiny). The program under
test only ever sees the texts written here: a graph file per instance, plus,
for ``verify``, the flow files to check. ``sixflow.testkit`` builds
the random ear graphs; the other families are generated in this file so the
benchmark does not depend on test helpers the program may drop.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

from sixflow import construct, fileio, tutte
from sixflow.connectivity import is_2_edge_connected
from sixflow.multigraph import Multigraph
from sixflow.testkit import random_2ec_multigraph

from gate import check_solution

def _orient(arcs, rng):
    """Reverse each arc with probability 1/2; 2-edge-connectivity ignores orientation."""
    return [(h, t) if rng.random() < 0.5 else (t, h) for t, h in arcs]


def cycle(n, rng):
    return Multigraph.build(n, _orient([(i, (i + 1) % n) for i in range(n)], rng))


def circular_ladder(k, rng):
    outer = [(i, (i + 1) % k) for i in range(k)]
    inner = [(k + i, k + (i + 1) % k) for i in range(k)]
    rungs = [(i, k + i) for i in range(k)]
    return Multigraph.build(2 * k, _orient(outer + inner + rungs, rng))


def petersen(rng):
    outer = [(i, (i + 1) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return Multigraph.build(10, _orient(outer + spokes + inner, rng))


def loops_at_root(n, ears, loops, root, seed):
    """An ear graph with ``loops`` extra loops at ``root``."""
    g = random_2ec_multigraph(n, ears, seed)
    arcs = [(e.tail, e.head) for e in g.edges()] + [(root, root)] * loops
    return Multigraph.build(n, arcs)


def flower(petals, rng):
    """Cycles of 2 to 10 edges through vertex 0, so G - 0 has one component per petal."""
    arcs = []
    n = 1
    for _ in range(petals):
        length = rng.randint(2, 10)
        chain = [0] + list(range(n, n + length - 1)) + [0]
        n += length - 1
        arcs.extend(zip(chain, chain[1:]))
    return Multigraph.build(n, _orient(arcs, rng))


# The criterion-7 shape (n=60, m=100k) at a size where one instance takes
# a fraction of a second: few vertices keep every step bridgeless and the
# integer conversion a fifth or more of the wall time, as at full size.
DENSE_VERTICES = 14
DENSE_EDGES = 15_000


def dense_graph(n, m, seed):
    """The criterion-7 shape: a small ear graph topped up to m edges."""
    base = random_2ec_multigraph(n, 0, seed)
    return random_2ec_multigraph(n, m - base.m, seed)


def _batch(rng, tiny):
    """(name, graph, root) triples: mostly criterion-2 shapes, then each family.

    Sizes sweep each family's range as criterion 2 does, so the mix of sizes,
    which sets the latency percentiles, is the same for every seed; the seed
    picks the graphs, orientations and roots.
    """
    n_max, shapes, per_family = (30, 20, 2) if tiny else (100, 240, 12)
    out = []
    for i in range(shapes):
        n = i % n_max + 1
        ears = (i * 37) % ((3 * n_max - 2 * n) // 3 + 1)
        g = random_2ec_multigraph(n, ears, rng.randrange(2**31))
        out.append((f"ear{i}", g, rng.randrange(n)))
    for i in range(per_family):
        step = (i + 1) / per_family
        g = cycle(3 + int(step * (n_max - 3)), rng)
        out.append((f"cycle{i}", g, rng.randrange(g.n)))
        g = circular_ladder(3 + int(step * (n_max // 2 - 3)), rng)
        out.append((f"ladder{i}", g, rng.randrange(g.n)))
        out.append((f"petersen{i}", petersen(rng), rng.randrange(10)))
        n = 2 + int(step * (n_max // 2 - 2))
        root = rng.randrange(n)
        g = loops_at_root(n, n // 2, 1 + int(step * 49), root, rng.randrange(2**31))
        out.append((f"loops{i}", g, root))
        out.append((f"flower{i}", flower(2 + int(step * 18), rng), 0))
    return out


def generate(workload, seed, tiny=False):
    """The workload's (name, graph, root) instances, one pass of the timed loop.

    Each pass holds several graphs drawn from seeds derived from ``seed``, so
    one unusual graph does not set a run's figures, and is small enough that
    a run measures several passes.
    """
    rng = random.Random(seed)
    if workload == "dense":
        m = 300 if tiny else DENSE_EDGES
        return [(f"dense{i}", dense_graph(DENSE_VERTICES, m, rng.randrange(2**31)), 0)
                for i in range(8)]
    if workload == "deep":
        n, cyc = (60, 40) if tiny else (500, 500)
        out = [(f"ear{i}", random_2ec_multigraph(n, n // 2, rng.randrange(2**31)), 0)
               for i in range(6)]
        out.append(("cycle", Multigraph.build(cyc, [(i, (i + 1) % cyc) for i in range(cyc)]), 0))
        return out
    if workload == "batch":
        return _batch(rng, tiny)
    if workload == "verify":
        g = dense_graph(DENSE_VERTICES, 300 if tiny else 10_000, rng.randrange(2**31))
        return [("verify", g, rng.randrange(g.n))]
    raise ValueError(f"unknown workload {workload!r}")


def write_inputs(workload, seed, path: Path, tiny=False):
    """Generate the workload and write it to ``path`` as one JSON list.

    Each entry holds an instance's graph file text (and, for ``verify``, its
    flow file text), so setup writes one file however many instances there
    are. For ``verify`` the flows are solved here with the program's own
    pipeline, checked by the correctness gate, and written in both text and
    machine format; each format is one instance of the timed read path.
    """
    manifest = []
    for name, g, root in generate(workload, seed, tiny):
        if not is_2_edge_connected(g):
            raise RuntimeError(f"{workload} generated {name}, which is not 2-edge-connected")
        entry = {"name": name, "root": root, "m": g.m, "graph_text": fileio.format_graph(g)}
        if workload != "verify":
            manifest.append(entry)
            continue
        flow, _ = construct.solve(g, root)
        z6 = tutte.group_flow_to_z6(flow)
        int6 = tutte.group_flow_to_integer_flow(g, z6)
        doc = fileio.build_flow_document(g, root, flow, int6)
        for fmt in ("text", "machine"):
            text = fileio.format_flow(doc, fmt)
            problem = check_solution(g, root, flow, z6, int6, text)
            if problem:
                raise RuntimeError(f"verify setup produced a bad flow ({fmt}): {problem}")
            manifest.append({**entry, "name": f"{name}-{fmt}", "flow_text": text})
    path.write_text(json.dumps(manifest))
    return manifest
