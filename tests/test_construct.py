import importlib.util
import json
import os
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path
from unittest.mock import patch

import pytest
from hypothesis import example, given, settings, strategies as st

from sixflow import (
    InputError,
    InternalCheckError,
    Multigraph,
    StructuralError,
    extend_nonzero_parallel,
    solve,
    verify_flow,
    verify_k_flow,
    verify_nowhere_zero,
    verify_rooted,
)
from sixflow import connectivity, construct
from sixflow.tutte import group_flow_to_integer_flow, group_flow_to_z6
from sixflow.construct import (
    BaseStep, BridgelessStep, ConstructionTrace, CutStep, Reduction, _solve_task,
    _suppress_degree_two)
from sixflow.connectivity import (
    components, is_2_edge_connected, partition_at_bridge, require_2_edge_connected)
from sixflow.testkit import (
    circular_ladder,
    doubled_cycle,
    enumerate_nz_flows,
    enumerate_small_2ec_multigraphs,
    flower,
    grid,
    petersen,
    random_2ec_multigraph,
    with_root_loops,
)

from conftest import small_graphs
from test_tutte import parallel_classes


class TestSolveSmall:
    def test_single_vertex_two_loops(self):
        g = Multigraph.build(1, [(0, 0), (0, 0)])
        f, trace = solve(g, 0)
        assert f == {0: (0, 1), 1: (0, 1)}
        assert trace.steps == [BaseStep(depth=0, loop_edges=2)]

    def test_triangle(self, triangle):
        f, _ = solve(triangle, 0)
        assert verify_rooted(triangle, 0, f)
        assert all(a == 0 for a, _ in f.values())
        assert f in enumerate_nz_flows(triangle)

    def test_k4(self, k4):
        f, _ = solve(k4, 0)
        assert verify_rooted(k4, 0, f)
        # G-0 is a bridgeless triangle: the f2 support is its one part,
        # and the three root edges carry f2 = 0
        assert all(f[e][0] == 0 for e in (0, 1, 2))
        assert f in enumerate_nz_flows(k4)

    def test_bridge_is_rejected(self):
        g = Multigraph.build(2, [(0, 1)])
        with pytest.raises(StructuralError) as exc:
            solve(g, 0)
        assert exc.value.bridge == 0

    def test_disconnected_is_rejected(self):
        g = Multigraph.build(4, [(0, 1), (1, 0), (2, 3), (3, 2)])
        with pytest.raises(StructuralError):
            solve(g, 0)

    def test_cut_case_small(self):
        # u with double edges to a and b, single edge a-b: the single edge
        # separates G-u, exercising the cut case
        g = Multigraph.build(3, [(0, 1), (0, 1), (0, 2), (0, 2), (1, 2)])
        f, trace = solve(g, 0, debug=True)
        assert verify_rooted(g, 0, f)
        assert all(a == 0 for a, _ in f.values())
        assert f in enumerate_nz_flows(g)

    def test_empty_path_case(self):
        # u joined twice to an otherwise isolated vertex: two vertices are
        # the base case
        g = Multigraph.build(2, [(0, 1), (0, 1)])
        f, trace = solve(g, 0, debug=True)
        assert verify_rooted(g, 0, f)
        assert trace.steps == [BaseStep(depth=0, loop_edges=2)]
        assert all(f[e][0] == 0 and f[e][1] != 0 for e in (0, 1))

    def test_petersen_all_roots(self, petersen):
        for u in range(10):
            f, _ = solve(petersen, u, debug=True)
            assert verify_rooted(petersen, u, f)

    def test_deterministic(self, petersen):
        a = solve(petersen, 3)
        b = solve(petersen, 3)
        assert a[0] == b[0]
        assert a[1].steps == b[1].steps


class TestTraceShape:
    def test_depth_bounded_by_vertex_count(self):
        g = random_2ec_multigraph(20, 10, 5)
        _, trace = solve(g, 0)
        assert 0 < trace.depth <= g.n

    def test_deep_recursion_uses_no_call_stack(self, monkeypatch):
        # doubled cycle with every step contracting only the far end of its
        # first root edge: one vertex merged per step, depth beyond the
        # interpreter's default recursion limit
        monkeypatch.setattr(construct, "even_parts", lambda g, u, spokes: (
            [([(g.undirected_adj()[u][0][1], -1)], frozenset())], 0))
        g = doubled_cycle(1200)
        f, trace = solve(g, 0)
        assert trace.depth > 1000
        assert verify_rooted(g, 0, f)

    def test_doubled_cycle_is_one_part(self):
        g = doubled_cycle(2000)
        f, trace = solve(g, 0)
        assert trace.depth <= 2
        assert verify_rooted(g, 0, f)

    @pytest.mark.parametrize("u", [0, 1000])
    def test_cycle_is_one_base_step(self, u):
        # every vertex but u is suppressed into one chain, a loop at u, and
        # the base case solves u with its loop
        n = 2000
        g = Multigraph.build(n, [(i, (i + 1) % n) for i in range(n)])
        f, trace = solve(g, u)
        assert trace.reduction == Reduction(suppressed=n - 1, chains=1)
        assert trace.steps == [BaseStep(depth=0, loop_edges=1)]
        assert verify_rooted(g, u, f)


def suppressed_by_rule(g, u):
    """(n2, arcs, root, sorted chain edges) of G with every vertex but u of
    degree 2 and no loop suppressed, by the rule ``_suppress_degree_two``
    states: each maximal chain through such vertices becomes its smallest
    edge id, running from the chain's end at that edge's tail to the end at
    its head; every other edge stays. A kept vertex keeps its id below n2,
    and the kept vertices past it take the free ids below n2, both in order."""
    if g.n <= 2:
        return g.n, list(g.arcs()), u, []
    at = [[] for _ in g.vertices()]  # non-loop edge ids at each vertex
    looped = set()
    for eid, (t, h) in g.arcs():
        if t == h:
            looped.add(t)
        else:
            at[t].append(eid)
            at[h].append(eid)
    gone = [v != u and len(at[v]) == 2 and v not in looped for v in g.vertices()]
    n2 = gone.count(False)
    image = list(g.vertices())
    for v, w in zip([v for v in range(n2, g.n) if not gone[v]],
                    [w for w in range(n2) if gone[w]]):
        image[v] = w
    chain_ends = {}  # chain name -> its ends in the reduced graph
    chains = []  # (edge id, name, runs as the name does)
    used = set()
    for x in g.vertices():
        if gone[x]:
            continue
        for eid in at[x]:
            if eid in used:
                continue
            path, ids = [x], []  # the chain's vertices and edges, from x
            while True:
                t, h = g.endpoints(eid)
                used.add(eid)
                ids.append(eid)
                path.append(h if t == path[-1] else t)
                if not gone[path[-1]]:
                    break
                eid = next(e for e in at[path[-1]] if e != eid)
            if len(ids) == 1:  # an edge between two kept vertices
                continue
            name = min(ids)
            i = ids.index(name)
            if g.endpoints(name)[0] != path[i]:  # walk it from the other end
                path.reverse()
                ids.reverse()
            chain_ends[name] = (image[path[0]], image[path[-1]])
            chains += [(eid, name, g.endpoints(eid)[0] == path[j])
                       for j, eid in enumerate(ids)]
    chained = {eid for eid, _, _ in chains}
    arcs = [(eid, chain_ends.get(eid, (image[t], image[h])))
            for eid, (t, h) in g.arcs() if eid in chain_ends or eid not in chained]
    return n2, arcs, image[u], sorted(chains)


def k2(k):
    return Multigraph.build(k + 2, [(hub, 2 + i) for i in range(k) for hub in (0, 1)])


class TestSuppressDegreeTwo:
    @staticmethod
    def reduce(g, u):
        h, hu, chains = _suppress_degree_two(g, u, ConstructionTrace())
        chains = sorted(chains)
        names = {name for _, name, _ in chains}
        # an edge off the chains whose ends both keep their ids keeps its tuple
        assert all(ends is g.endpoints(eid) for eid, ends in h.arcs()
                   if eid not in names and max(g.endpoints(eid)) < h.n)
        return h.n, list(h.arcs()), hu, chains

    def test_loop_at_a_moved_vertex(self):
        # 1 and 2 are suppressed into the chain 0-1-2-3 at the root; 4 has
        # degree 2 but a loop, so it is kept, and with 3 it moves below n2
        g = Multigraph.build(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (4, 4), (0, 3)])
        assert self.reduce(g, 0) == suppressed_by_rule(g, 0) == (
            3, [(0, (0, 1)), (3, (1, 2)), (4, (2, 0)), (5, (2, 2)), (6, (0, 1))], 0,
            [(0, 0, True), (1, 0, True), (2, 0, True)])

    def test_name_against_the_walk(self):
        # the chain 0-1-2 is named by edge 0, which runs from 1 to 2, so its
        # edge runs from 0 to 2, and edge 1 runs against it
        g = Multigraph.build(4, [(1, 2), (1, 0), (2, 3), (3, 0), (0, 2)])
        assert self.reduce(g, 0) == suppressed_by_rule(g, 0) == (
            2, [(0, (0, 1)), (2, (1, 0)), (4, (0, 1))], 0,
            [(0, 0, True), (1, 0, False), (2, 2, True), (3, 2, True)])

    def test_families_every_root(self):
        graphs = [k2(5), flower([1, 3, 2, 4, 1]),
                  *(random_2ec_multigraph(30, 4, seed) for seed in range(3))]
        for g in graphs:
            for u in g.vertices():
                assert self.reduce(g, u) == suppressed_by_rule(g, u)

    def test_small_graphs_every_root(self):
        for g in enumerate_small_2ec_multigraphs(4, 6):
            for u in g.vertices():
                assert self.reduce(g, u) == suppressed_by_rule(g, u)


def without_the_pair_pass(g, u):
    """``solve`` with the parallel pair pass switched off."""
    with patch.object(construct, "_drop_parallel_pairs", lambda g, u: (g, ())):
        return solve(g, u)


class TestParallelPairs:
    """The pass that drops surplus parallel edges in cancelling pairs, on
    graphs of more than two vertices and m > 3n^2 edges."""

    @staticmethod
    def classes(g):
        """Ordered (tail, head) -> its edge ids, ascending."""
        classes = {}
        for eid, ends in g.arcs():
            classes.setdefault(ends, []).append(eid)
        return classes

    @settings(max_examples=60, deadline=None)
    @given(parallel_classes())
    # classes of 3, 25 and 4 and two root loops: only the last two are reduced
    @example((Multigraph.build(3, [(0, 1)] * 3 + [(1, 2)] * 25 + [(2, 0)] * 4 + [(0, 0)] * 2),
              0))
    def test_every_root(self, case):
        g, _ = case
        gated = g.n > 2 and g.m > 3 * g.n ** 2
        for u in g.vertices():
            flow, trace = solve(g, u)
            assert verify_rooted(g, u, flow)
            assert verify_k_flow(g, group_flow_to_integer_flow(g, group_flow_to_z6(flow)), 6)
            r, _ = construct._drop_parallel_pairs(g, u)
            if not gated:
                assert r is g
                head_flow, head_trace = without_the_pair_pass(g, u)
                assert list(flow.items()) == list(head_flow.items())
                assert repr(trace) == repr(head_trace)
                continue
            assert list(flow) == list(g.edge_ids)
            assert r.n == g.n and trace.reduction.dropped == g.m - r.m > 0
            assert max(map(len, self.classes(r).values())) <= 3
            kept = dict(r.arcs())
            for ends, ids in self.classes(g).items():
                keep = len(ids) if len(ids) < 4 else 2 + len(ids) % 2
                assert [eid for eid in ids if eid in kept] == ids[:keep]
                dropped = [flow[eid] for eid in ids[keep:]]
                assert sum(f2 for f2, _ in dropped) % 2 == sum(f3 for _, f3 in dropped) % 3 == 0
                if u in ends:
                    assert not any(f2 for f2, _ in dropped)
            assert all(g.endpoints(eid) == ends for eid, ends in kept.items())

    @pytest.mark.parametrize("arcs, message", [
        ([(0, 1)] * 30 + [(1, 2)] + [(3, 2)] * 30, "graph has a bridge: edge 30 (1, 2)"),
        # reduced, every vertex has degree 2: the root's side is suppressed
        # into a loop, and the other side is found as a separate cycle
        ([(0, 1)] * 30 + [(2, 3)] * 30,
         "graph is disconnected: vertices [0, 1] form a separate component"),
    ])
    def test_errors_name_the_input(self, arcs, message):
        g = Multigraph.build(4, arcs)
        for u in g.vertices():
            for run in (solve, without_the_pair_pass):
                with pytest.raises(StructuralError) as exc:
                    run(g, u)
                assert str(exc.value) == message


def bfs_tree(g, edges, start):
    """The BFS tree over ``edges`` from ``start``, neighbours by edge id, as
    (vertex, edge to its parent) in BFS order."""
    at = {}  # vertex -> (edge id, other end), by edge id
    for eid in sorted(edges):
        t, h = g.endpoints(eid)
        at.setdefault(t, []).append((eid, h))
        at.setdefault(h, []).append((eid, t))
    tree, seen = [(start, -1)], {start}
    for v, _ in tree:
        for eid, w in at.get(v, []):
            if w not in seen:
                seen.add(w)
                tree.append((w, eid))
    return tree


def check_parts(g, u):
    """Every part one bridgeless step at u would contract is even, connected
    in G - u, free of u, disjoint from the others, and reached by at least
    two root edges, and its tree is the BFS over its edges from its smallest
    vertex, neighbours by edge id; every component of G - u gets a part,
    the components in the order of their first root edge, and in a redone
    component the part that holds the far end x1 of its first root edge
    also holds x2, that of its second. Returns False, checking nothing,
    when G - u has a bridge or no vertex."""
    block, spokes, _ = partition_at_bridge(g, u)
    if block is not None or g.n == 1:
        return False
    component = {v: i for i, c in enumerate(components(g.delete_vertex(u))) for v in c}
    root_edges = [(eid, h if t == u else t) for eid, (t, h) in g.arcs()
                  if (t == u) != (h == u)]
    redos = []  # (x1, x2) of each redone component
    real = connectivity.two_edge_disjoint_paths

    def recording(g, x, y, skip=None):
        redos.append((x, y))
        return real(g, x, y, skip=skip)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(connectivity, "two_edge_disjoint_paths", recording)
        parts, redone = connectivity.even_parts(g, u, spokes)
    taken = set()
    for tree, edges in parts:
        verts = {v for v, _ in tree}
        deg = dict.fromkeys(verts, 0)
        for eid in edges:
            t, h = g.endpoints(eid)
            assert t != h and {t, h} <= verts
            deg[t] += 1
            deg[h] += 1
        assert all(d % 2 == 0 for d in deg.values())
        assert tree == bfs_tree(g, edges, min(verts))
        assert u not in verts and taken.isdisjoint(verts)
        taken |= verts
        assert sum(w in verts for _, w in root_edges) >= 2
    by_first_root_edge = list(dict.fromkeys(component[w] for _, w in root_edges))
    assert list(dict.fromkeys(component[tree[0][0]] for tree, _ in parts)) == by_first_root_edge
    assert len(redos) == redone
    for x1, x2 in redos:
        assert [w for _, w in root_edges if component[w] == component[x1]][:2] == [x1, x2]
        assert any({x1, x2} <= {v for v, _ in tree} for tree, _ in parts)
    return True


def solved_instances(g, u):
    """Every (instance, root) that a solve of g at u recurses into, the
    reduced graph first."""
    found = []
    real = construct._solve_task

    def recording(h, hu, *args):
        found.append((h, hu))
        return real(h, hu, *args)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(construct, "_solve_task", recording)
        solve(g, u)
    return found


class TestPartChooser:
    def test_small_graphs_every_root(self):
        for g in enumerate_small_2ec_multigraphs(4, 7):
            for u in g.vertices():
                check_parts(g, u)

    @settings(max_examples=80, deadline=None)
    @given(st.integers(2, 40), st.integers(0, 20), st.integers(0, 10 ** 6))
    def test_ear_graphs_every_root(self, n, ears, seed):
        g = random_2ec_multigraph(n, ears, seed)
        for u in g.vertices():
            check_parts(g, u)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(2, 9), st.integers(2, 9))
    def test_grids_every_root(self, rows, cols):
        g = grid(rows, cols)
        for u in g.vertices():
            check_parts(g, u)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(3, 30), st.randoms(use_true_random=False))
    def test_ladders_with_shuffled_ids_every_root(self, k, rng):
        # G - u of a ladder always has a bridge, so the parts are checked on
        # the bridgeless instances that its solves recurse into
        arcs = [ends for _, ends in grid(2, k).arcs()]
        rng.shuffle(arcs)
        g = Multigraph.build(2 * k, arcs)
        checked = sum(check_parts(h, hu) for u in g.vertices()
                      for h, hu in solved_instances(g, u))
        assert checked > 0


class TestRedoneComponents:
    """Components of G - root whose first T-join leaves no part."""

    def test_cube_at_root_0(self):
        # In G - 0 the pairing joins 2 and 6 and leaves 5 and 7 odd, and the
        # tree toggle then puts 1, 2 and 3 each in a piece of its own: the
        # four pieces of C - J have one root edge each
        g = circular_ladder(4)
        f, trace = solve(g, 0, debug=True)
        assert trace.steps == [
            BridgelessStep(depth=0, root_edges=(0, 3), contracted_sizes=(6, 3),
                           parts=1, fallbacks=1),
            BaseStep(depth=1, loop_edges=3)]
        assert verify_rooted(g, 0, f)
        assert check_parts(g, 0)

    def test_circular_ladders_in_debug_mode(self):
        graphs = [circular_ladder(k) for k in range(3, 13)]
        graphs.append(with_root_loops(circular_ladder(4), 0, 2))
        redone = 0
        for g in graphs:
            for u in g.vertices():
                f, trace = solve(g, u, debug=True)
                assert verify_rooted(g, u, f)
                assert verify_k_flow(g, group_flow_to_integer_flow(g, group_flow_to_z6(f)), 6)
                redone += any(getattr(step, "fallbacks", 0) for step in trace.steps)
        assert redone > 0


class TestScale:
    SRC = Path(__file__).resolve().parents[1] / "src"
    # Builds g and its root u from the graph expression, solves, and prints
    # the solve's seconds, the process's peak resident set (VmHWM) in MB,
    # the depth, and whether the flow is rooted.
    SCRIPT = (
        "import json, random, time\n"
        "from sixflow import (Multigraph, is_2_edge_connected, random_2ec_multigraph, solve,\n"
        "                     verify_rooted)\n"
        "from sixflow.testkit import flower, grid, with_root_loops\n"
        "def k2(k):\n"
        "    return Multigraph.build(k + 2, [(hub, 2 + i) for i in range(k) for hub in (0, 1)])\n"
        "def cubic(n):\n"
        "    # configuration model: pair 3n stubs at random, redrawn until the\n"
        "    # multigraph is loopless and 2-edge-connected\n"
        "    while True:\n"
        "        stubs = [v for v in range(n) for _ in range(3)]\n"
        "        rng.shuffle(stubs)\n"
        "        arcs = list(zip(stubs[::2], stubs[1::2]))\n"
        "        if all(t != h for t, h in arcs):\n"
        "            g = Multigraph.build(n, arcs)\n"
        "            if is_2_edge_connected(g):\n"
        "                return g\n"
        "rng = random.Random(1)\n"
        "g, u = {graph}, {root}\n"
        "t0 = time.perf_counter()\n"
        "flow, trace = solve(g, u)\n"
        "seconds = time.perf_counter() - t0\n"
        "with open('/proc/self/status') as status:\n"
        "    peak = next(int(line.split()[1]) for line in status if line.startswith('VmHWM:'))\n"
        "print(json.dumps([seconds, peak / 1024, trace.depth, verify_rooted(g, u, flow)]))\n"
    )

    def solve_alone(self, graph, root, max_seconds, max_mb):
        # a fresh process, so that its peak resident set is this solve's
        path = os.pathsep.join(filter(None, (str(self.SRC), os.environ.get("PYTHONPATH"))))
        script = self.SCRIPT.format(graph=graph, root=root)
        out = subprocess.run([sys.executable, "-c", script], capture_output=True,
                             text=True, check=True, env={**os.environ, "PYTHONPATH": path})
        seconds, peak_mb, depth, rooted = json.loads(out.stdout)
        assert rooted
        assert seconds < max_seconds, f"{seconds:.2f}s at depth {depth}"
        assert peak_mb < max_mb, f"{peak_mb:.0f} MB at depth {depth}"

    def test_ear_graph_of_20000_vertices(self):
        self.solve_alone("random_2ec_multigraph(20_000, 10_000, 1)", 0, 10, 300)

    # Adversarial shapes, each bounded at about three times its measured
    # solve time and peak resident set.
    @pytest.mark.parametrize("graph, root, max_seconds, max_mb", [
        pytest.param("k2(50_000)", 2, 1.5, 300, id="K2,50000-at-a-leaf"),
        pytest.param("k2(50_000)", 0, 3.5, 320, id="K2,50000-at-a-hub"),
        pytest.param("Multigraph.build(3, [(0, 1), (1, 2), (2, 0)] * 30_000)", 0, 1, 200,
                     id="three-parallel-classes-of-30000"),
        pytest.param("flower([rng.randint(2, 10) for _ in range(20_000)])", 0,
                     5.5, 430, id="flower-of-20000-petals"),
        pytest.param("with_root_loops(random_2ec_multigraph(20_000, 10_000, 1), 0, 5_000)", 0,
                     1, 160, id="ear-graph-with-5000-root-loops"),
        pytest.param("grid(300, 300)", 0, 5, 640, id="grid-300-by-300-at-a-corner"),
        # m > 3n^2: the pass leaves at most 3n^2 = 10,800 edges to solve
        pytest.param("random_2ec_multigraph(60, 300_000, 7)", 0, 0.36, 235,
                     id="dense-60-vertices-300000-ears"),
        pytest.param("cubic(100_000)", 0, 10, 500, id="random-cubic-of-100000-vertices"),
    ])
    def test_adversarial_family(self, graph, root, max_seconds, max_mb):
        self.solve_alone(graph, root, max_seconds, max_mb)

    def test_ear_graph_solve_peak_without_the_input_adjacency(self):
        # once suppression has reduced the graph, the input's adjacency is
        # released: 15.2 MiB traced at peak, against 21.5 MiB with it kept
        g = random_2ec_multigraph(20_000, 10_000, 1)
        tracemalloc.start()
        try:
            f, trace = solve(g, 0)
            peak = tracemalloc.get_traced_memory()[1] / 2**20
        finally:
            tracemalloc.stop()
        assert trace.reduction is not None
        assert peak < 18, f"{peak:.1f} MiB"
        assert verify_rooted(g, 0, f)

    def test_cycle_of_100000_vertices(self):
        # one chain of 99,999 suppressed vertices, a loop at the root: the
        # reduced graph is one base step
        n = 100_000
        g = Multigraph.build(n, [(i, (i + 1) % n) for i in range(n)])
        f, trace = solve(g, 0)
        assert trace.steps == [BaseStep(depth=0, loop_edges=1)]
        assert verify_rooted(g, 0, f)

    def test_grid_100_by_100(self):
        g = grid(100, 100)
        t0 = time.perf_counter()
        f, trace = solve(g, 0)
        seconds = time.perf_counter() - t0
        assert verify_rooted(g, 0, f)
        assert seconds < 5, f"{seconds:.2f}s at depth {trace.depth}"


INSTANCE_MESSAGE = ("a component of G - root, or a side of a bridge in it, "
                    "has too few edges to the root")


class TestRecursedInstanceCheck:
    """A recursed instance that is not 2-edge-connected is an internal
    fault, caught by its own step before it recurses; the same graph as
    input is a StructuralError that names what is wrong."""

    # G - 0 is the path 1-2-3 with the bridge 2 = (1, 2); the side {2, 3}
    # has no root edge
    CUT = [(0, 1), (0, 1), (1, 2), (2, 3), (3, 2)]

    def test_cut_instance_with_a_bare_side(self):
        g = Multigraph.build(4, self.CUT)
        trace = ConstructionTrace()
        with pytest.raises(InternalCheckError) as exc:
            next(_solve_task(g, 0, 1, trace, False))
        assert str(exc.value) == INSTANCE_MESSAGE
        assert trace.steps == []
        with pytest.raises(StructuralError) as exc:
            solve(g, 0)
        assert "bridge: edge 2" in str(exc.value)
        assert exc.value.bridge == 2

    @pytest.mark.parametrize("arcs", [[(0, 1)], [(1, 0), (0, 0), (1, 1)]])
    def test_two_vertices_one_link(self, arcs):
        g = Multigraph.build(2, arcs)
        with pytest.raises(InternalCheckError) as exc:
            next(_solve_task(g, 0, 1, ConstructionTrace(), False))
        assert str(exc.value) == INSTANCE_MESSAGE


class TestBridgelessChecksFire:
    """Each always-on check of the bridgeless step, reached on a bad input.

    The first two graphs are not 2-edge-connected, so ``solve`` would
    reject them as input; they are driven as recursed instances (depth 1).
    The step is driven directly, up to its first child, or past it with a
    bad child flow (``after_children``).
    """

    @staticmethod
    def first_step(g, u=0, depth=0):
        with pytest.raises(InternalCheckError) as exc:
            next(_solve_task(g, u, depth, ConstructionTrace(), False))
        return str(exc.value)

    def test_component_with_one_root_edge(self):
        g = Multigraph.build(3, [(0, 1), (1, 2), (1, 2)])
        assert self.first_step(g, depth=1) == INSTANCE_MESSAGE

    def test_component_with_no_root_edge(self):
        # {1} has both root edges, {2, 3} has none
        g = Multigraph.build(4, [(0, 1), (0, 1), (2, 3), (2, 3)])
        assert self.first_step(g, depth=1) == INSTANCE_MESSAGE

    def test_redo_without_a_second_root_edge(self):
        # past the instance check, {1, 2} gives no part and has no x2 to
        # redo with: an InternalCheckError, not a StopIteration or an
        # unpacking error from inside the step's generator
        g = Multigraph.build(3, [(0, 1), (1, 2), (1, 2)])
        with pytest.raises(InternalCheckError) as exc:
            connectivity.even_parts(g, 0, partition_at_bridge(g, 0)[1])
        assert str(exc.value) == "a component of G - root has one root edge"

    # On the cube at root 0, G - 0 is one component, its first T-join
    # leaves no part (``TestRedoneComponents``), and it is redone off the
    # edge set that two_edge_disjoint_paths gives.

    def test_forest_root_left_odd(self, monkeypatch):
        # the three edges at 5, odd in G - 0, leave 5 alone as its own tree
        monkeypatch.setattr(connectivity, "two_edge_disjoint_paths",
                            lambda g, x, y, skip: frozenset({4, 5, 9}))
        assert self.first_step(circular_ladder(4)) == "a forest root is left odd"

    def test_redone_component_without_a_part(self, monkeypatch):
        # no edge to keep J off, so the redo repeats the first pass
        monkeypatch.setattr(connectivity, "two_edge_disjoint_paths",
                            lambda g, x, y, skip: frozenset())
        assert self.first_step(circular_ladder(4)) == "a redone component gives no part"

    def test_part_with_one_spoke(self, k4, monkeypatch):
        # a walked one-vertex part with its one root edge
        monkeypatch.setattr(construct, "even_parts", lambda g, u, spokes: (
            [([(1, -1)], frozenset())], 0))
        assert self.first_step(k4) == "a part has fewer than two spokes"

    # G - 0 is a theta graph: 1 and 2, the odd vertices, are joined through
    # 3, 4 and 5. The T-join J is the tree path 1-3-2 (edges 3 and 4), so
    # the one part is the 4-cycle 1-4-2-5 (edges 5-8) with spokes 0 and 1,
    # and {3} is a component of C - J with one root edge, edge 2. The child
    # keeps edges 2-4, all between the merged root and 3.
    THETA = [(0, 1), (0, 2), (0, 3), (1, 3), (3, 2), (1, 4), (4, 2), (1, 5), (5, 2)]
    F2_MESSAGE = "f2 support touches the root or a part"

    def test_child_f2_on_a_root_edge(self):
        g = Multigraph.build(6, self.THETA)
        child = {2: (1, 1), 3: (0, 1), 4: (0, 2)}
        assert after_children(g, child) == self.F2_MESSAGE

    def test_child_f2_on_a_root_loop(self):
        g = Multigraph.build(6, self.THETA + [(0, 0)])
        child = {2: (0, 1), 3: (0, 1), 4: (0, 2), 9: (1, 1)}
        assert after_children(g, child) == self.F2_MESSAGE

    def test_child_f2_on_a_loop_at_h(self):
        g = Multigraph.build(6, self.THETA + [(1, 1)])
        child = {2: (0, 1), 3: (0, 1), 4: (0, 2), 9: (1, 1)}
        assert after_children(g, child) == self.F2_MESSAGE


class TestCutChecksFire:
    """The cut step's gluing checks, fed bad child flows on the triangle.

    G - 0 is the single edge 1 = (1, 2), a bridge, so both children keep it.
    """

    def test_child_f2_on_the_bridge(self, triangle):
        assert after_children(triangle, {1: (1, 1)}, {1: (0, 1)}) == (
            "cut edge carries nonzero f2 from a subflow")

    def test_zero_f3_on_the_bridge(self, triangle):
        assert after_children(triangle, {1: (0, 0)}, {1: (0, 0)}) == (
            "cut edge f3 values failed to align")


class TestCutGluing:
    """The cut step on three blocks, fed hand-made child flows.

    G - 0 is the path 1-2-3 with bridges 1 = (1, 2) and 2 = (2, 3), so
    each vertex is a block and the children come in the order 1, 2, 3.
    The third child disagrees with the second on bridge 2.
    """

    ARCS = [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)]
    CHILDREN = ({0: (0, 1), 1: (0, 1)},
                {1: (0, 1), 2: (0, 2), 4: (0, 1)},
                {2: (0, 1), 3: (0, 1)})

    def test_last_child_negated(self):
        g = Multigraph.build(4, self.ARCS)
        trace = ConstructionTrace()
        task = _solve_task(g, 0, 0, trace, False)
        next(task)
        with pytest.raises(StopIteration) as done:
            for child in self.CHILDREN:
                task.send(dict(child))
        flow = done.value.value
        assert trace.steps == [CutStep(depth=0, blocks=3, bridges=2)]
        assert flow == {0: (0, 1), 1: (0, 1), 2: (0, 2), 3: (0, 2), 4: (0, 1)}
        assert verify_rooted(g, 0, flow)


class TestBridgelessExtension:
    """The bridgeless step's extension over its part, fed a hand-made child flow.

    In G - 0, vertices 1 and 3 are odd, and the greedy pairing puts edge
    3 = (1, 3) in J. The one part is the 4-cycle 1-2-4-3 (edges 1, 4, 5
    and 6), with spokes 0 (enters 1) and 2 (leaves 2). The child is the
    merged root with one loop, edge 3, whose two ends at the part give
    excess -1 at 1 and +1 at 3. The BFS tree of the part from 1 is edges
    1, 4 and 5, so edge 6 is off it.
    """

    ARCS = [(0, 1), (1, 2), (2, 0), (1, 3), (3, 1), (2, 4), (4, 3)]
    CHILD = {3: (0, 1)}

    def test_flow_over_h(self):
        g = Multigraph.build(5, self.ARCS)
        trace = ConstructionTrace()
        task = _solve_task(g, 0, 0, trace, False)
        next(task)
        with pytest.raises(StopIteration) as done:
            task.send(dict(self.CHILD))
        flow = done.value.value
        assert trace.steps == [BridgelessStep(
            depth=0, root_edges=(0, 2), contracted_sizes=(4, 2), parts=1, fallbacks=0)]
        # total excess 0 gives spoke values 2 and 2, leaving +2 at 1 and
        # -2 at 2; the walk forces 5 = (2, 4) to 0, 4 = (3, 1) to 1 and
        # 1 = (1, 2) to 2
        assert flow == {0: (0, 2), 1: (1, 2), 2: (0, 2), 3: (0, 1),
                        4: (1, 1), 5: (1, 0), 6: (1, 0)}
        assert verify_flow(g, flow)
        assert verify_rooted(g, 0, flow)

    def test_spoke_values_off_the_excess(self, monkeypatch):
        real = extend_nonzero_parallel
        monkeypatch.setattr(construct, "extend_nonzero_parallel",
                            lambda d, signs: real((d + 1) % 3, signs))
        g = Multigraph.build(5, self.ARCS)
        assert after_children(g, dict(self.CHILD)) == (
            "contracted component has nonzero total excess")

    def test_zero_spoke_value(self, monkeypatch):
        # the right signed sum, carried by the last spoke alone
        monkeypatch.setattr(construct, "extend_nonzero_parallel",
                            lambda d, signs: [0] * (len(signs) - 1) + [d * signs[-1] % 3])
        g = Multigraph.build(5, self.ARCS)
        assert after_children(g, dict(self.CHILD)) == "a spoke edge lost its f3 value"


def after_children(g, *child_flows, u=0):
    """Send the step its children's flows in turn; return the check it fails."""
    task = _solve_task(g, u, 0, ConstructionTrace(), False)
    next(task)
    with pytest.raises(InternalCheckError) as exc:
        for flow in child_flows:
            task.send(flow)
    return str(exc.value)


def test_perfbench_patch_targets_exist():
    # perfbench/spans.py patches these names in place; construct keeps the
    # imports of bridges, components and two_edge_disjoint_paths only so
    # that the patches land
    path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = [
        (getattr(owner, "__name__", owner), attr)
        for owner, attr, *_ in spans.TARGETS
        if not hasattr(owner, attr)
    ]
    assert missing == []
    assert len(spans.TARGETS) > 0


class TestExtendNonzeroParallel:
    def test_two_same_sense_sum_zero(self):
        vals = extend_nonzero_parallel(0, [1, 1])
        assert all(v in (1, 2) for v in vals)
        assert sum(vals) % 3 == 0

    def test_two_same_sense_sum_two(self):
        assert extend_nonzero_parallel(2, [1, 1]) == [1, 1]

    def test_three_same_sense_sum_zero(self):
        assert extend_nonzero_parallel(0, [1, 1, 1]) == [1, 1, 1]

    def test_rejects_single_edge(self):
        with pytest.raises(InputError):
            extend_nonzero_parallel(1, [1])

    @given(st.integers(0, 2), st.integers(2, 8), st.data())
    def test_signed_sum_and_nonzero(self, d, k, data):
        signs = data.draw(st.lists(st.sampled_from([1, -1]), min_size=k, max_size=k))
        vals = extend_nonzero_parallel(d, signs)
        assert all(v in (1, 2) for v in vals)
        assert sum(s * v for s, v in zip(signs, vals)) % 3 == d


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 20), st.integers(0, 15), st.integers(0, 1000), st.data())
def test_solve_random_graphs_debug_checked(n, ears, seed, data):
    g = random_2ec_multigraph(n, ears, seed)
    u = data.draw(st.integers(0, g.n - 1))
    f, trace = solve(g, u, debug=True)
    assert verify_rooted(g, u, f)
    assert verify_nowhere_zero(g, f)
    assert trace.depth <= g.n


class TestInputCheck:
    """``solve`` reads 2-edge-connectivity off the root step's one DFS, and
    rejects exactly what ``require_2_edge_connected`` rejects, with its error."""

    @staticmethod
    def check(g, u):
        try:
            require_2_edge_connected(g)
        except StructuralError as exc:
            expected = exc
        else:
            expected = None
        assert (expected is None) == is_2_edge_connected(g)
        if expected is None:
            f, _ = solve(g, u)
            assert verify_rooted(g, u, f)
            return
        with pytest.raises(StructuralError) as got:
            solve(g, u)
        assert str(got.value) == str(expected)
        assert got.value.bridge == expected.bridge
        assert got.value.component == expected.component

    def test_small_graphs_every_root(self):
        rejected = 0
        for g in small_graphs(4, 5):
            for u in g.vertices():
                self.check(g, u)
            rejected += not is_2_edge_connected(g)
        assert rejected > 1000

    def test_bridges_only_on_a_suppressed_chain(self):
        # two triangles joined by the path 2-3-4-5, whose three edges are the
        # bridges: 3 and 4 are suppressed, so the reduced graph has one
        # bridge, the chain's edge 3, and the error names G's edge 3
        g = Multigraph.build(8, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 5),
                                 (5, 6), (6, 7), (7, 5)])
        for u in g.vertices():
            self.check(g, u)
        with pytest.raises(StructuralError, match=r"^graph has a bridge: edge 3 \(2, 3\)$"):
            solve(g, 0)

    def test_separate_cycle_of_degree_two_vertices(self):
        # K4 on 0-3 and the cycle 4-5-6: every vertex of the cycle is
        # suppressed, and the chain walked from 4 comes back to 4
        g = Multigraph.build(7, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3),
                                 (4, 5), (5, 6), (6, 4)])
        for u in g.vertices():
            self.check(g, u)
        with pytest.raises(StructuralError, match=r"vertices \[0, 1, 2, 3\] form a separate"):
            solve(g, 0)

    @settings(max_examples=80, deadline=None)
    @given(st.integers(2, 30), st.integers(0, 15), st.integers(0, 10 ** 6), st.data())
    def test_ear_graphs_less_one_edge(self, n, ears, seed, data):
        g = random_2ec_multigraph(n, ears, seed)
        gone = data.draw(st.sampled_from(sorted(g.edge_ids)))
        g = Multigraph(g.n, {eid: ends for eid, ends in g.arcs() if eid != gone})
        for u in g.vertices():
            self.check(g, u)


class TestOneSearchPerStep:
    """A valid solve, in debug mode too, runs one lowpoint DFS per instance,
    the root's and those of two vertices or fewer included, and never copies
    G - u. That DFS is also each instance's 2-edge-connectivity check."""

    @pytest.fixture
    def searches(self, monkeypatch):
        calls = []
        real = connectivity._lowpoint_dfs

        def counting(g, skip=None):
            calls.append(skip)
            return real(g, skip)

        def no_copy(g, u):
            raise AssertionError("G - u was copied")

        monkeypatch.setattr(connectivity, "_lowpoint_dfs", counting)
        monkeypatch.setattr(Multigraph, "delete_vertex", no_copy)
        return calls

    @staticmethod
    def steps(g, u, calls, debug=False):
        calls.clear()
        f, trace = solve(g, u, debug=debug)
        assert verify_rooted(g, u, f)
        assert None not in calls  # every search skips its instance's root
        return len(trace.steps)

    # A 40-cycle with the chords (0, 20) and (10, 30): the suppression pass
    # leaves K4 on 0, 10, 20, 30 (and a root of degree 2 with it), which
    # still takes a search per step, and the pass itself takes none.
    CHORDED = [(i, (i + 1) % 40) for i in range(40)] + [(0, 20), (10, 30)]

    def families(self):
        return [Multigraph.build(40, self.CHORDED), doubled_cycle(30), grid(7, 7),
                petersen(), random_2ec_multigraph(400, 200, 5)]

    def test_every_family(self, searches):
        graphs = self.families() + [random_2ec_multigraph(60, 500, 9)]
        for g in graphs:
            for u in (0, 5, g.n // 2):
                assert self.steps(g, u, searches) == len(searches) > 0

    def test_debug_mode_adds_no_search(self, searches):
        for g in self.families():
            for u in (0, 5, g.n // 2):
                assert self.steps(g, u, searches, debug=True) == len(searches) > 0

    def test_suppression_adds_no_search(self, searches):
        # at root 5 the root's segment of the cycle is two chains
        g = Multigraph.build(40, self.CHORDED)
        for u, reduction in ((0, Reduction(36, 4)), (5, Reduction(35, 5))):
            for debug in (False, True):
                searches.clear()
                f, trace = solve(g, u, debug=debug)
                assert verify_rooted(g, u, f)
                assert trace.reduction == reduction
                assert len(searches) == len(trace.steps) > 0

    def test_path_union_fallback(self, searches):
        # the cube's one component at root 0 is redone, with no search beyond
        # the step's own and that of its two-vertex child
        g = circular_ladder(4)
        assert self.steps(g, 0, searches) == len(searches) == 2
        _, trace = solve(g, 0)
        assert trace.steps[0].fallbacks == 1
