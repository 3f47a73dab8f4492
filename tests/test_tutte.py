import heapq
import itertools
from collections import deque

import pytest
from hypothesis import example, given, settings, strategies as st

from sixflow import (
    InputError,
    Multigraph,
    group_flow_to_integer_flow,
    group_flow_to_z6,
    pair_to_z6,
    solve,
    verify_k_flow,
    z6_to_pair,
)
from sixflow import construct
from sixflow.construct import BridgelessStep, CutStep
from sixflow.fileio import build_flow_document
from sixflow.flows import pair_add
from sixflow.testkit import cycle, flower, grid, random_2ec_multigraph

from conftest import balanced_lift


# Pair entries: mostly near Z2 x Z3, so that the table's own pairs are drawn
# often, and any int besides.
INTS = st.integers(-2, 4) | st.integers()


class TestIsomorphism:
    def test_fixed_values(self):
        assert pair_to_z6((0, 0)) == 0
        assert pair_to_z6((1, 0)) == 3
        assert pair_to_z6((0, 1)) == 4
        assert pair_to_z6((1, 2)) == 5
        assert z6_to_pair(5) == (1, 2)

    def test_mutually_inverse(self):
        for a in range(2):
            for b in range(3):
                assert z6_to_pair(pair_to_z6((a, b))) == (a, b)
        for c in range(6):
            assert pair_to_z6(z6_to_pair(c)) == c

    def test_additive_over_all_36_pairs(self):
        pairs = list(itertools.product(range(2), range(3)))
        for p, q in itertools.product(pairs, pairs):
            assert pair_to_z6(pair_add(p, q)) == (pair_to_z6(p) + pair_to_z6(q)) % 6

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(INTS, INTS), max_size=20),
           st.lists(st.integers(0, 40), unique=True, min_size=20, max_size=20))
    def test_z6_table_agrees_with_pair_to_z6(self, pairs, ids):
        # the map and the document look pairs up in a table of the six
        # pairs of Z2 x Z3; any other pair must get what pair_to_z6 gives
        f = dict(zip(ids, pairs))
        assert list(group_flow_to_z6(f).items()) == [(e, pair_to_z6(p)) for e, p in f.items()]
        g = Multigraph.build(1, [(0, 0)] * len(pairs))
        doc = build_flow_document(g, 0, dict(enumerate(pairs)), dict.fromkeys(g.edge_ids, 1))
        assert doc.z6 == tuple(map(pair_to_z6, pairs))


def brute_force_integer_flows(g, phi):
    """All residue-compatible nowhere-zero integer assignments in (-6, 6)
    that conserve at every vertex; the independent oracle for conversion."""
    ids = sorted(g.edge_ids)
    options = []
    for eid in ids:
        r = phi[eid] % 6
        options.append([v for v in range(-5, 6) if v != 0 and v % 6 == r])
    out = []
    for combo in itertools.product(*options):
        f = dict(zip(ids, combo))
        if verify_k_flow(g, f, 6):
            out.append(f)
    return out


class TestIntegerConversion:
    def test_directed_cycle_no_shifts(self):
        g = Multigraph.build(5, [(i, (i + 1) % 5) for i in range(5)])
        phi = {e: 1 for e in g.edge_ids}
        assert group_flow_to_integer_flow(g, phi) == phi

    def test_digon_opposing(self):
        # edge 0 lifts to -2, as 4 would leave vertex 1 at 4 against vertex
        # 0 at -4; edge 1 then lifts to -2 as well, which balances both ends
        g = Multigraph.build(2, [(0, 1), (1, 0)])
        phi = {0: 4, 1: 4}
        stats = {}
        assert group_flow_to_integer_flow(g, phi, stats) == {0: -2, 1: -2}
        assert stats["augmentation_rounds"] == 0

    def test_triangle_balanced_lift(self):
        # edges 0 and 1 lift to -2 (excesses 2, -2, 0, then 2, 0, -2) and
        # edge 2, from 0 at 2 to 2 at -2, keeps 2: no vertex is left over
        g = Multigraph.build(3, [(0, 1), (1, 2), (0, 2)])
        phi = {0: 4, 1: 4, 2: 2}
        stats = {}
        f = group_flow_to_integer_flow(g, phi, stats)
        assert f == {0: -2, 1: -2, 2: 2}
        assert f in brute_force_integer_flows(g, phi)
        assert stats["augmentation_rounds"] == 0
        assert verify_k_flow(g, f, 6)

    def test_loops_lift_unshifted(self):
        g = Multigraph.build(1, [(0, 0), (0, 0)])
        assert group_flow_to_integer_flow(g, {0: 4, 1: 5}) == {0: 4, 1: 5}

    def test_holds_exactly_the_graphs_edges(self, digon):
        assert group_flow_to_integer_flow(digon, {0: 2, 1: 2, 99: 3}) == {0: 2, 1: 2}

    @pytest.mark.parametrize("arcs, phi, message", [
        ([(0, 1), (1, 0)], {0: 1}, "flow is missing a value for edge 1"),
        ([(0, 1), (1, 0)], {0: 6, 1: 0}, "edge 0: value 6 is not a nonzero Z6 element"),
        ([(0, 1), (1, 0)], {0: 1, 1: 2},
         "input is not a Z6-flow: conservation fails at vertex 0"),
        # the first failing edge by id is named, whichever check it fails
        ([(0, 1), (1, 2), (2, 0), (0, 2)], {0: 1, 2: 0, 3: 1},
         "flow is missing a value for edge 1"),
        ([(0, 1), (1, 2), (2, 0), (0, 2)], {0: 7, 1: 1, 2: 1},
         "edge 0: value 7 is not a nonzero Z6 element"),
        # edge values are checked before conservation, which names the
        # smallest failing vertex
        ([(2, 1), (1, 2), (0, 0), (1, 0), (0, 1)], {0: 2, 1: 1, 2: 6, 3: 1, 4: 1},
         "edge 2: value 6 is not a nonzero Z6 element"),
        ([(2, 1), (1, 2), (0, 0), (1, 0), (0, 1)], {0: 2, 1: 1, 2: 5, 3: 1, 4: 1},
         "input is not a Z6-flow: conservation fails at vertex 1"),
    ])
    def test_input_check_order_and_words(self, arcs, phi, message):
        g = Multigraph.build(3, arcs)
        with pytest.raises(InputError) as err:
            group_flow_to_integer_flow(g, phi)
        assert str(err.value) == message

    def test_rejects_non_flow(self):
        g = Multigraph.build(2, [(0, 1), (1, 0)])
        with pytest.raises(InputError):
            group_flow_to_integer_flow(g, {0: 1, 1: 2})

    def test_rejects_zero_value(self, triangle):
        with pytest.raises(InputError):
            group_flow_to_integer_flow(triangle, {0: 0, 1: 0, 2: 0})

    def test_roundtrip_identity(self):
        g = Multigraph.build(3, [(0, 1), (1, 2), (0, 2)])
        phi = {0: 4, 1: 4, 2: 2}
        f = group_flow_to_integer_flow(g, phi)
        assert {e: f[e] % 6 for e in g.edge_ids} == phi

    def test_residue_and_small_oracle(self):
        g = Multigraph.build(2, [(0, 1), (0, 1), (0, 1)])
        phi = {0: 1, 1: 2, 2: 3}
        f = group_flow_to_integer_flow(g, phi)
        assert f in brute_force_integer_flows(g, phi)


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 30), st.integers(0, 30), st.integers(0, 2000))
def test_end_to_end_random(n, ears, seed):
    g = random_2ec_multigraph(n, ears, seed)
    flow, _ = solve(g, 0)
    phi = group_flow_to_z6(flow)
    f = group_flow_to_integer_flow(g, phi)
    assert verify_k_flow(g, f, 6)
    assert all(f[e] % 6 == phi[e] for e in g.edge_ids)


def reference_integer_flow(g, phi):
    """The conversion as a search that scans every edge at a vertex by id.

    Returns (f, rounds). It takes the same lift, and every conversion shifts
    from the smallest positive vertex until none is left, so the one under
    test must take the same number of rounds, though it may enter a
    neighbour through another edge and so return another flow.
    """
    f, exc = balanced_lift(g, phi)
    adj = [[] for _ in range(g.n)]
    for eid, (t, h) in sorted(g.arcs()):
        if t != h:
            adj[t].append((eid, h, True))
            adj[h].append((eid, t, False))
    heap = [v for v in range(g.n) if exc[v] > 0]
    rounds = 0
    while heap:
        start = heapq.heappop(heap)
        if exc[start] <= 0:
            continue
        prev = {start: None}
        queue = deque([start])
        target = -1
        while queue and target < 0:
            v = queue.popleft()
            for eid, w, outward in adj[v]:
                if w in prev:
                    continue
                if outward and f[eid] < 0:
                    prev[w] = (v, eid, +6)
                elif not outward and f[eid] > 0:
                    prev[w] = (v, eid, -6)
                else:
                    continue
                if exc[w] < 0:
                    target = w
                    break
                queue.append(w)
        assert target >= 0
        w = target
        while w != start:
            v, eid, delta = prev[w]
            f[eid] += delta
            w = v
        exc[start] -= 6
        exc[target] += 6
        rounds += 1
        if exc[start] > 0:
            heapq.heappush(heap, start)
    return f, rounds


def assert_matches_reference(g, phi):
    stats = {}
    f = group_flow_to_integer_flow(g, phi, stats)
    ref, rounds = reference_integer_flow(g, phi)
    assert stats["augmentation_rounds"] == rounds
    for flow in (f, ref):
        assert verify_k_flow(g, flow, 6)
        assert all(flow[e] % 6 == phi[e] for e in g.edge_ids)
    return stats


@st.composite
def closed_walk_flows(draw):
    """A multigraph of closed walks, each carrying its own Z6 value, and that flow.

    Repeated walks make large parallel classes, walks of length one loops and
    of length two digons; each walk's edges are flipped at random (a flipped
    edge carries the negated value) and the edge ids are shuffled.
    """
    n = draw(st.integers(1, 8))
    arcs, values = [], []
    for _ in range(draw(st.integers(1, 8))):
        walk = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=6))
        value = draw(st.integers(1, 5))
        flips = draw(st.lists(st.booleans(), min_size=len(walk), max_size=len(walk)))
        for _ in range(draw(st.sampled_from([1, 2, 7, 60]))):
            for a, b, flip in zip(walk, walk[1:] + walk[:1], flips):
                arcs.append((b, a) if flip else (a, b))
                values.append(6 - value if flip else value)
    order = draw(st.permutations(range(len(arcs))))
    g = Multigraph.build(n, [arcs[i] for i in order])
    return g, {eid: values[i] for eid, i in enumerate(order)}


class TestSameRoundsAsEdgeScan:
    @settings(max_examples=150, deadline=None)
    @given(closed_walk_flows())
    def test_multigraphs(self, case):
        assert_matches_reference(*case)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 60), st.integers(0, 60), st.integers(0, 10**6))
    def test_ear_graphs(self, n, ears, seed):
        g = random_2ec_multigraph(n, ears, seed)
        flow, _ = solve(g, seed % n)
        assert_matches_reference(g, group_flow_to_z6(flow))

    def test_edge_shifted_below_the_smallest_of_its_pair(self):
        # A 3 x 4 grid with four edges doubled; edges 12, 18 and 19 join 7
        # and 11. The lift leaves 6 at 3 and 11, -6 at 4 and 10. Round 1
        # (3-7-11-10) shifts edge 12 from 7 to 11, where it joins 18 and 19,
        # shiftable from 11 to 7, behind them though its id is smaller.
        # Round 2 (source 11) crosses to 7 through edge 18 on its way to 4.
        g = Multigraph.build(12, [
            (9, 10), (1, 5), (8, 9), (1, 2), (0, 4), (0, 1), (6, 5), (2, 6), (10, 9), (5, 9),
            (6, 10), (3, 7), (11, 7), (4, 5), (10, 11), (5, 6), (2, 3), (6, 7), (7, 11),
            (7, 11), (4, 8)])
        phi = dict(enumerate([4, 1, 1, 1, 4, 2, 4, 3, 2, 1, 2, 4, 4, 3, 4, 1, 4, 4, 3, 3, 1]))
        stats = assert_matches_reference(g, phi)
        assert stats["augmentation_rounds"] == 2

    @pytest.mark.parametrize("seed", [7, 11])
    def test_dense_shape(self, seed):
        # few vertices, thousands of parallel edges: the solver drops all but
        # a few hundred in cancelling pairs, and at one root the rest may
        # convert in no round, so every root is compared and most take rounds
        base = random_2ec_multigraph(14, 0, seed)
        g = random_2ec_multigraph(14, 6000 - base.m, seed)
        with_rounds = 0
        for u in g.vertices():
            flow, _ = solve(g, u)
            stats = assert_matches_reference(g, group_flow_to_z6(flow))
            with_rounds += stats["augmentation_rounds"] > 0
        assert 2 * with_rounds >= g.n


@st.composite
def parallel_classes(draw):
    """An ear graph with some edges repeated into large parallel classes,
    each copy reversed at random, loops at a root, ids shuffled, and the root."""
    n = draw(st.integers(2, 10))
    g = random_2ec_multigraph(n, draw(st.integers(0, 10)), draw(st.integers(0, 10**6)))
    rng = draw(st.randoms(use_true_random=False))
    arcs = [ends for _, ends in g.arcs()]
    for _ in range(draw(st.integers(1, 3))):
        t, h = rng.choice(arcs)
        arcs += [(h, t) if rng.random() < 0.5 else (t, h)
                 for _ in range(draw(st.sampled_from([6, 40, 300])))]
    root = draw(st.integers(0, n - 1))
    arcs += [(root, root)] * draw(st.integers(0, 5))
    rng.shuffle(arcs)
    return Multigraph.build(n, arcs), root


@settings(max_examples=60, deadline=None)
@given(parallel_classes())
# 0 = 1 = 2 with 1,200 parallel edges a side: lifting its flow at root 0
# into 1..5 left 800 rounds, and the balanced lift leaves none
@example((Multigraph.build(3, [(0, 1)] * 1200 + [(1, 2)] * 1200), 0))
def test_solved_flows_on_parallel_classes(case):
    g, root = case
    flow, _ = solve(g, root)
    phi = group_flow_to_z6(flow)
    stats = {}
    f = group_flow_to_integer_flow(g, phi, stats)
    assert verify_k_flow(g, f, 6)
    assert all(f[e] % 6 == phi[e] for e in g.edge_ids)
    rounds = stats["augmentation_rounds"]
    _, exc = balanced_lift(g, phi)
    assert rounds * 6 == sum(x for x in exc if x > 0)
    # a round reads each shiftable edge at most once
    assert stats["edges_scanned"] <= rounds * sum(t != h for _, (t, h) in g.arcs())


def test_every_graph_lists_edges_by_ascending_id(monkeypatch):
    # Connectivity breaks its ties by smallest edge id, reading the edges in
    # the order the graph lists them, so every way of making a graph must
    # keep ids ascending: build, contract, the degree-2 suppression, and
    # both kinds of child the solver makes.
    instances = []
    real = construct._solve_task

    def recording(g, *args):
        instances.append(g)
        return real(g, *args)

    monkeypatch.setattr(construct, "_solve_task", recording)
    kinds = set()
    for g in (cycle(30), grid(6, 6), grid(2, 60), flower([3, 1, 4, 1, 5]),
              random_2ec_multigraph(300, 150, 3), random_2ec_multigraph(200, 0, 4)):
        first = len(instances)
        _, trace = solve(g, 0)
        kinds |= {type(step) for step in trace.steps}
        # each graph has a vertex to suppress, so its reduced graph is recorded first
        assert trace.reduction is not None
        assert instances[first].n == g.n - trace.reduction.suppressed
        instances.append(g.contract([eid for eid, (t, h) in g.arcs() if (t + h) % 3 == 0])[0])
    assert {CutStep, BridgelessStep} <= kinds
    children = [g for g in instances if g.m > 0]
    assert len(children) > 40
    for g in children:
        ids = list(g.edge_ids)
        assert ids == sorted(ids)
