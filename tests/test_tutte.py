import heapq
import itertools
from collections import deque

import pytest
from hypothesis import given, settings, strategies as st

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
from sixflow.flows import pair_add
from sixflow.testkit import random_2ec_multigraph


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
        g = Multigraph.build(2, [(0, 1), (1, 0)])
        phi = {0: 4, 1: 4}
        assert group_flow_to_integer_flow(g, phi) == {0: 4, 1: 4}

    def test_triangle_one_push(self):
        g = Multigraph.build(3, [(0, 1), (1, 2), (0, 2)])
        phi = {0: 4, 1: 4, 2: 2}
        stats = {}
        f = group_flow_to_integer_flow(g, phi, stats)
        valid = brute_force_integer_flows(g, phi)
        assert f in valid
        assert {0: -2, 1: -2, 2: 2} in valid
        assert stats["augmentation_rounds"] == 1
        assert verify_k_flow(g, f, 6)

    def test_loops_lift_unshifted(self):
        g = Multigraph.build(1, [(0, 0), (0, 0)])
        assert group_flow_to_integer_flow(g, {0: 4, 1: 5}) == {0: 4, 1: 5}

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

    Returns (f, rounds). The conversion under test must take the same paths,
    so it must return the same flow after the same number of rounds.
    """
    f = dict(phi)
    exc = [0] * g.n
    adj = [[] for _ in range(g.n)]
    for eid, (t, h) in sorted(g.arcs()):
        if t == h:
            continue
        exc[h] += f[eid]
        exc[t] -= f[eid]
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
    assert (f, stats["augmentation_rounds"]) == reference_integer_flow(g, phi)
    assert verify_k_flow(g, f, 6)
    assert all(f[e] % 6 == phi[e] for e in g.edge_ids)
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
        # Round 1 shifts edge 0 from 0 to 2, so edges 0 and 3 are both
        # shiftable from 2 to 0. Round 2 (source 1) enters 0 from 2 through
        # edge 0, the smaller of the two, on its way to the deficit at 3.
        g = Multigraph.build(4, [(2, 0), (2, 1), (3, 0), (0, 2), (2, 1), (3, 0)])
        phi = {0: 3, 1: 4, 2: 3, 3: 3, 4: 2, 5: 3}
        stats = assert_matches_reference(g, phi)
        assert group_flow_to_integer_flow(g, phi) == {0: 3, 1: -2, 2: -3, 3: 3, 4: 2, 5: 3}
        assert stats["augmentation_rounds"] == 2

    @pytest.mark.parametrize("seed", [7, 11])
    def test_dense_shape(self, seed):
        # few vertices, thousands of parallel edges: every step bridgeless
        base = random_2ec_multigraph(14, 0, seed)
        g = random_2ec_multigraph(14, 6000 - base.m, seed)
        flow, _ = solve(g, 0)
        stats = assert_matches_reference(g, group_flow_to_z6(flow))
        assert stats["augmentation_rounds"] > 100


def test_rounds_read_neighbours_not_parallel_edges():
    # 0 = 1 = 2: k parallel edges 0 -> 1 and k parallel edges 1 -> 2, all
    # carrying 5. Vertex 2 has the excess, vertex 0 the deficit, so every
    # round shifts one edge of each class along 2 -> 1 -> 0. A scan over
    # every edge at the vertices it reaches reads all k edges at vertex 2
    # in every round.
    k = 1200
    g = Multigraph.build(3, [(0, 1)] * k + [(1, 2)] * k)
    phi = {e: 5 for e in g.edge_ids}
    stats = assert_matches_reference(g, phi)
    rounds = stats["augmentation_rounds"]
    assert rounds == 5 * k // 6
    assert stats["edges_scanned"] <= 2 * (g.m + rounds * g.n)
