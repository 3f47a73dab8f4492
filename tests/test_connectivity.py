from itertools import permutations

import pytest
from hypothesis import given, settings, strategies as st

from sixflow import (
    InternalCheckError,
    Multigraph,
    StructuralError,
    bridges,
    components,
    is_2_edge_connected,
    solve,
    two_edge_disjoint_paths,
    verify_rooted,
)
from sixflow.connectivity import partition_at_bridge, walk_part
from sixflow.testkit import random_2ec_multigraph

from conftest import brute_force_bridges, small_graphs


class TestComponents:
    def test_triangle(self, triangle):
        assert components(triangle) == [frozenset({0, 1, 2})]

    def test_two_digons(self):
        g = Multigraph.build(4, [(0, 1), (1, 0), (2, 3), (3, 2)])
        assert components(g) == [frozenset({0, 1}), frozenset({2, 3})]

    def test_edgeless(self):
        g = Multigraph.build(3, [])
        assert components(g) == [frozenset({0}), frozenset({1}), frozenset({2})]


class TestBridges:
    def test_path(self):
        g = Multigraph.build(3, [(0, 1), (1, 2)])
        assert bridges(g) == {0, 1}

    def test_cycles(self):
        for k in (2, 3, 4, 5, 6):
            g = Multigraph.build(k, [(i, (i + 1) % k) for i in range(k)])
            assert bridges(g) == frozenset()

    def test_digon_plus_pendant(self):
        g = Multigraph.build(3, [(0, 1), (1, 0), (1, 2)])
        assert bridges(g) == brute_force_bridges(g) == {2}

    def test_matches_brute_force_on_small_graphs(self):
        checked = 0
        for g in small_graphs(4, 4):
            assert bridges(g) == brute_force_bridges(g), g
            checked += 1
        assert checked > 1000

    def test_loops_never_bridges(self):
        g = Multigraph.build(2, [(0, 0), (0, 1), (1, 1)])
        assert bridges(g) == {1}


class TestIs2EdgeConnected:
    def test_single_vertex(self):
        assert is_2_edge_connected(Multigraph.build(1, []))
        assert is_2_edge_connected(Multigraph.build(1, [(0, 0)]))

    def test_digon_vs_single_edge(self, digon):
        assert is_2_edge_connected(digon)
        assert not is_2_edge_connected(Multigraph.build(2, [(0, 1)]))

    def test_disconnected(self):
        assert not is_2_edge_connected(Multigraph.build(2, []))

    def test_k4_minus_edge(self, k4):
        g = Multigraph(4, {k: v for k, v in k4.arcs() if k != 5})
        assert brute_force_bridges(g) == frozenset()
        assert is_2_edge_connected(g)


class TestBridgePartition:
    def test_single_separating_edge(self):
        # u=0, a=1, b=2: edges ua x2, ub x2, ab; a and b are blocks 1 and 2
        g = Multigraph.build(3, [(0, 1), (0, 1), (0, 2), (0, 2), (1, 2)])
        assert partition_at_bridge(g, 0) == ([0, 1, 2], [0, 1, 1], True)

    def test_stray_component_is_one_block(self):
        # u=0, a=1, b=2, c=3: edges ua, ub, ab, uc, uc
        g = Multigraph.build(4, [(0, 1), (0, 2), (1, 2), (0, 3), (0, 3)])
        assert partition_at_bridge(g, 0) == ([0, 1, 2, 3], [0, 1, 1, 3], True)

    def test_cycle_splits_at_every_bridge(self):
        # G - 0 is the path 1-2-...-8: every vertex is a block, and each
        # block's parent is the one before it
        n = 9
        g = Multigraph.build(n, [(i, (i + 1) % n) for i in range(n)])
        assert partition_at_bridge(g, 0) == (list(range(n)), [0] + [1] * (n - 1), True)

    def test_k4_is_bridgeless_minus_any_vertex(self, k4):
        for u in range(4):
            assert bridges(k4.delete_vertex(u)) == frozenset()
            assert partition_at_bridge(k4, u)[0] is None


def _groups(labels):
    """The vertices grouped by label, as a sorted list of sets."""
    groups = {}
    for v, label in enumerate(labels):
        groups.setdefault(label, set()).add(v)
    return sorted(map(frozenset, groups.values()), key=min)


def _check_partition(g, u):
    gu = g.delete_vertex(u)
    block, comp, whole = partition_at_bridge(g, u)
    assert whole == is_2_edge_connected(g)
    # the labels group V(G - u) exactly as components() does, by smallest vertex
    assert _groups(comp) == components(gu)
    assert all(comp[v] == min(c) for c in components(gu) for v in c)
    cut = brute_force_bridges(gu)
    assert (block is None) == (not cut)
    if block is None:
        return
    # the blocks are the components of G - u minus its bridges
    pruned = Multigraph(g.n, {k: v for k, v in gu.arcs() if k not in cut})
    assert _groups(block) == components(pruned)
    # every block but the first of its component has exactly one bridge to
    # a block with a smaller label
    first = {}  # component label -> smallest block label in it
    for v in range(g.n):
        first[comp[v]] = min(first.get(comp[v], block[v]), block[v])
    down = {}  # block label -> bridges to smaller labels
    for eid in cut:
        t, h = gu.endpoints(eid)
        assert block[t] != block[h]
        high = max(block[t], block[h])
        down[high] = down.get(high, 0) + 1
    for v in range(g.n):
        assert down.get(block[v], 0) == (0 if block[v] == first[comp[v]] else 1)


class TestPartitionProperties:
    def test_small_graphs_every_root(self):
        checked = 0
        for g in small_graphs(4, 4):
            for u in range(g.n):
                _check_partition(g, u)
                checked += 1
        assert checked > 3000

    @settings(deadline=None)
    @given(st.integers(2, 30), st.integers(0, 15), st.integers(0, 500))
    def test_ear_graphs_every_root(self, n, ears, seed):
        g = random_2ec_multigraph(n, ears, seed)
        for u in range(g.n):
            _check_partition(g, u)


def _check_even_connected(g, h, x, y):
    """H gives every vertex even degree, touches x and y, and forms a
    single non-trivial component."""
    deg = {}
    for eid in h:
        for v in g.endpoints(eid):
            deg[v] = deg.get(v, 0) + 1
    assert all(d % 2 == 0 for d in deg.values())
    assert x in deg and y in deg
    sub = Multigraph(g.n, {eid: g.endpoints(eid) for eid in h})
    assert [c for c in components(sub) if len(c) > 1] == [frozenset(deg)]


class TestTwoEdgeDisjointPaths:
    def test_same_endpoints(self, triangle):
        assert two_edge_disjoint_paths(triangle, 1, 1) == frozenset()

    def test_three_parallel(self):
        g = Multigraph.build(2, [(0, 1), (0, 1), (0, 1)])
        assert two_edge_disjoint_paths(g, 0, 1) == {0, 1}

    def test_cycle(self, triangle):
        # a=0, b=1, c=2; x=a, x'=b
        assert two_edge_disjoint_paths(triangle, 0, 1) == {0, 1, 2}

    # The two augmentations from 0 to 6 leave a 2-unit flow whose support
    # also holds the cycle 2-3-4-7 (edges 2-5), which 0 does not reach in
    # the support; contracting it with the paths would leave two vertices.
    DETACHED = [(0, 1), (1, 2), (2, 3), (4, 7), (3, 4), (7, 2), (4, 5),
                (5, 6), (0, 8), (8, 9), (9, 10), (10, 11), (11, 12), (12, 5),
                (1, 13), (13, 14), (14, 15), (15, 16), (16, 17), (17, 6)]

    def test_detached_cycle_left_out(self):
        g = Multigraph.build(18, self.DETACHED)
        h = two_edge_disjoint_paths(g, 0, 6)
        assert h == {0, *range(7, 20)}
        _check_even_connected(g, h, 0, 6)

    def test_detached_cycle_solves(self):
        g = Multigraph.build(19, self.DETACHED + [(18, 0), (18, 6)])
        flow, _ = solve(g, 18)
        assert verify_rooted(g, 18, flow)

    def test_no_two_paths(self):
        g = Multigraph.build(2, [(0, 1)])
        with pytest.raises(StructuralError):
            two_edge_disjoint_paths(g, 0, 1)

    def test_small_graphs_against_bridge_oracle(self):
        # x and y have two edge-disjoint paths exactly when they share a
        # component of G minus its bridges (a bridge on an x-y path lies on
        # every x-y path)
        checked = 0
        for g in small_graphs(4, 6):
            cut = brute_force_bridges(g)
            pruned = Multigraph(g.n, {k: v for k, v in g.arcs() if k not in cut})
            label = {v: i for i, c in enumerate(components(pruned)) for v in c}
            for x, y in permutations(range(g.n), 2):
                if label[x] != label[y]:
                    with pytest.raises(StructuralError):
                        two_edge_disjoint_paths(g, x, y)
                else:
                    _check_even_connected(g, two_edge_disjoint_paths(g, x, y), x, y)
                    checked += 1
        assert checked > 10000

    @given(st.integers(2, 25), st.integers(0, 15), st.integers(0, 500))
    def test_properties(self, n, ears, seed):
        g = random_2ec_multigraph(n, ears, seed)
        _check_even_connected(g, two_edge_disjoint_paths(g, 0, n - 1), 0, n - 1)


class TestWalkPart:
    # K4: edges 0 = (0, 1), 1 = (0, 2), 2 = (0, 3), 3 = (1, 2), 4 = (1, 3),
    # 5 = (2, 3)

    def test_tree_in_edge_id_order(self, k4):
        # off edges 2 and 3, K4 is the 4-cycle 0-1-3-2
        placed = [False] * 4
        tree, edges = walk_part(k4.undirected_adj(), 1, {2, 3}, placed)
        assert tree == [(1, -1), (0, 0), (3, 4), (2, 1)]
        assert edges == {0, 1, 4, 5}
        assert placed == [True] * 4

    def test_enters_no_placed_vertex(self, k4):
        adj = k4.undirected_adj()
        assert walk_part(adj, 0, set(), [True, False, False, False]) == ([], frozenset())
        # off the edges at 3, K4 is the triangle 0, 1, 2
        tree, edges = walk_part(adj, 2, {2, 4, 5}, [False, False, False, True])
        assert tree == [(2, -1), (0, 1), (1, 3)]
        assert edges == {0, 1, 3}
        # off edges 1, 3 and 5, K4 is the triangle 0, 1, 3 with 3 placed:
        # edges 2 and 4 are followed from 0 and 1, and 3 is never entered
        tree, edges = walk_part(adj, 0, {1, 3, 5}, [False, False, False, True])
        assert tree == [(0, -1), (1, 0)]
        assert edges == {0, 2, 4}

    def test_odd_vertex(self, k4):
        # off edges 0, 1, 2 and 5, edges 3 and 4 leave 2 and 3 with odd degree
        with pytest.raises(InternalCheckError) as exc:
            walk_part(k4.undirected_adj(), 1, {0, 1, 2, 5}, [False] * 4)
        assert str(exc.value) == "path union has a vertex of odd degree"
