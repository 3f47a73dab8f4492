import pytest
from hypothesis import given, settings, strategies as st

from sixflow import (
    Multigraph,
    StructuralError,
    bridges,
    components,
    is_2_edge_connected,
    two_edge_disjoint_paths,
)
from sixflow.connectivity import _split_unit_flow, partition_at_bridge
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


def partition(g, u):
    return partition_at_bridge(g.delete_vertex(u), u)[0]


def brute_force_partition_sizes(g, u):
    """max(|V1|, |V2|) at each bridge of G - u: delete it and recount."""
    gu = g.delete_vertex(u)
    out = {}
    for eid in brute_force_bridges(gu):
        head = gu.endpoints(eid)[1]
        pruned = Multigraph(gu.n, {k: v for k, v in gu.arcs() if k != eid})
        k = len(next(c for c in components(pruned) if head in c))
        out[eid] = max(k, gu.n - 1 - k)  # |V1| counts V - u, not u itself
    return out


class TestBridgePartition:
    def test_single_separating_edge(self):
        # u=0, a=1, b=2: edges ua x2, ub x2, ab
        g = Multigraph.build(3, [(0, 1), (0, 1), (0, 2), (0, 2), (1, 2)])
        assert partition(g, 0) == (4, frozenset({1}), frozenset({2}))

    def test_stray_component_joins_tail_side(self):
        # u=0, a=1, b=2, c=3: edges ua, ub, ab, uc, uc
        g = Multigraph.build(4, [(0, 1), (0, 2), (1, 2), (0, 3), (0, 3)])
        eid, v1, v2 = partition(g, 0)
        assert eid == 2
        assert v1 == frozenset({1, 3}) and v2 == frozenset({2})
        # the only G-u edge between the sides is the bridge
        crossing = {
            e.id
            for e in g.edges()
            if 0 not in (e.tail, e.head)
            and (e.tail in v1) != (e.head in v1)
        }
        assert crossing == {eid}

    def test_cycle_splits_in_the_middle(self):
        # G - 0 is the path 1-2-...-8; its middle edge (4, 5) is edge 4
        n = 9
        g = Multigraph.build(n, [(i, (i + 1) % n) for i in range(n)])
        assert partition(g, 0) == (4, frozenset({1, 2, 3, 4}), frozenset({5, 6, 7, 8}))

    def test_k4_is_bridgeless_minus_any_vertex(self, k4):
        for u in range(4):
            assert bridges(k4.delete_vertex(u)) == frozenset()


def _check_partition(g, u):
    gu = g.delete_vertex(u)
    cut, comp = partition_at_bridge(gu, u)
    # the labels group V(G - u) exactly as components() does, by smallest vertex
    groups = {}
    for v in range(g.n):
        groups.setdefault(comp[v], set()).add(v)
    assert [frozenset(c) for _, c in sorted(groups.items())] == components(gu)
    assert all(min(c) == label for label, c in groups.items())
    found = bridges(gu)
    assert (cut is None) == (not found)
    if cut is None:
        return
    eid, v1, v2 = cut
    assert eid in found
    assert not v1 & v2 and v1 | v2 == set(range(g.n)) - {u}
    assert g.endpoints(eid)[1] in v2
    crossing = {
        k for k, (t, h) in g.arcs() if u not in (t, h) and (t in v1) != (h in v1)
    }
    assert crossing == {eid}
    sizes = brute_force_partition_sizes(g, u)
    best = min(sizes.values())
    assert max(len(v1), len(v2)) == sizes[eid] == best
    assert eid == min(k for k, s in sizes.items() if s == best)


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


class TestTwoEdgeDisjointPaths:
    def test_same_endpoints(self, triangle):
        assert two_edge_disjoint_paths(triangle, 1, 1) == ([], [])

    def test_three_parallel(self):
        g = Multigraph.build(2, [(0, 1), (0, 1), (0, 1)])
        p1, p2 = two_edge_disjoint_paths(g, 0, 1)
        assert [e for e, _ in p1] == [0]
        assert [e for e, _ in p2] == [1]

    def test_cycle(self, triangle):
        # a=0, b=1, c=2; x=a, x'=b
        p1, p2 = two_edge_disjoint_paths(triangle, 0, 1)
        assert [e for e, _ in p1] == [0]
        assert [e for e, _ in p2] == [2, 1]

    def test_split_cuts_out_a_revisited_cycle(self):
        # The first walk goes 0 -> 1 -> 2 -> 3 and back to 1; the cycle
        # 1 -> 2 -> 3 -> 1 is cut out and the walk leaves 1 by edge 4.
        # Edges 2 and 5 carry flow against their orientation.
        g = Multigraph.build(5, [(0, 1), (1, 2), (3, 2), (3, 1), (1, 4), (4, 0)])
        used = {0: +1, 1: +1, 2: -1, 3: +1, 4: +1, 5: -1}
        p1, p2 = _split_unit_flow(g, 0, 4, used)
        assert p1 == [(0, +1), (4, +1)]
        assert p2 == [(5, -1)]
        assert self._walk(g, p1, 0) == [0, 1, 4]
        assert self._walk(g, p2, 0) == [0, 4]

    def test_no_two_paths(self):
        g = Multigraph.build(2, [(0, 1)])
        with pytest.raises(StructuralError):
            two_edge_disjoint_paths(g, 0, 1)

    @given(st.integers(2, 25), st.integers(0, 15), st.integers(0, 500))
    def test_properties(self, n, ears, seed):
        g = random_2ec_multigraph(n, ears, seed)
        p1, p2 = two_edge_disjoint_paths(g, 0, n - 1)
        e1 = [e for e, _ in p1]
        e2 = [e for e, _ in p2]
        assert not set(e1) & set(e2)
        for steps in (p1, p2):
            verts = self._walk(g, steps, 0)
            assert verts[-1] == n - 1
            assert len(set(verts)) == len(verts)  # simple path
        # union is an even-degree subgraph
        deg = {}
        for eid in e1 + e2:
            t, h = g.endpoints(eid)
            deg[t] = deg.get(t, 0) + 1
            deg[h] = deg.get(h, 0) + 1
        assert all(d % 2 == 0 for d in deg.values())

    @staticmethod
    def _walk(g, steps, start):
        verts = [start]
        for eid, d in steps:
            t, h = g.endpoints(eid)
            a, b = (t, h) if d == +1 else (h, t)
            assert a == verts[-1]
            verts.append(b)
        return verts
