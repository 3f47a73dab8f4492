import itertools
import random
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from sixflow import InputError, Multigraph, components
from sixflow.testkit import random_2ec_multigraph

from conftest import small_graphs


class TestBuild:
    def test_empty(self):
        g = Multigraph.build(1, [])
        assert g.n == 1 and g.m == 0

    def test_single_loop(self):
        g = Multigraph.build(1, [(0, 0)])
        assert g.endpoints(0) == (0, 0)
        assert list(g.arcs()) == [(0, (0, 0))]

    def test_triangle_incidence(self, triangle):
        assert sorted(e.id for e in triangle.edges() if 1 in (e.tail, e.head)) == [0, 1]
        assert [e.id for e in triangle.edges()] == [0, 1, 2]
        assert list(triangle.arcs()) == [(e.id, (e.tail, e.head)) for e in triangle.edges()]

    def test_endpoint_out_of_range(self):
        with pytest.raises(InputError):
            Multigraph.build(2, [(0, 2)])

    def test_unknown_edge_id(self, triangle):
        with pytest.raises(InputError) as exc:
            triangle.endpoints(5)
        assert str(exc.value) == "unknown edge id 5"

    def test_negative_vertex_count(self):
        # format_graph would write it as a header that parse_graph rejects
        with pytest.raises(InputError) as exc:
            Multigraph.build(-2, [])
        assert str(exc.value) == "vertex count -2 is negative"
        assert Multigraph.build(0, []).n == 0


def brute_force_image(g, s):
    """Components of the spanning subgraph (V, S), numbered by smallest member."""
    spanning = Multigraph(g.n, {eid: g.endpoints(eid) for eid in sorted(s)})
    image = [0] * g.n
    for i, comp in enumerate(components(spanning)):  # ordered by smallest vertex
        for v in comp:
            image[v] = i
    return image


class TestContract:
    def test_triangle_one_edge(self, triangle):
        h, img = triangle.contract({0})
        assert h.n == 2 and sorted(h.edge_ids) == [1, 2]
        # surviving digon: endpoints remapped through the vertex image
        assert img[0] == img[1] != img[2]
        assert h.endpoints(1) == (img[1], img[2])
        assert h.endpoints(2) == (img[2], img[0])

    def test_digon_to_loop(self, digon):
        h, _ = digon.contract({0})
        assert h.n == 1
        assert h.endpoints(1) == (0, 0)

    def test_k4_triangle_contraction(self, k4):
        # contract the triangle avoiding vertex 0: edges 3, 4, 5
        h, img = k4.contract({3, 4, 5})
        assert h.n == 2
        assert img[1] == img[2] == img[3] != img[0]
        # three parallel edges from 0's image to the blob
        for eid in (0, 1, 2):
            assert h.endpoints(eid) == (img[0], img[1])

    def test_unknown_edge(self, triangle):
        with pytest.raises(InputError):
            triangle.contract({9})

    def test_empty_contraction_is_identity(self, k4):
        h, img = k4.contract(frozenset())
        assert h == k4
        assert img == list(range(4))

    def test_edge_count_invariant(self):
        for g in small_graphs(3, 4):
            ids = sorted(g.edge_ids)
            for r in range(len(ids) + 1):
                for s in itertools.combinations(ids, r):
                    h, img = g.contract(s)
                    assert img == brute_force_image(g, s)
                    assert h.m == g.m - len(s)
                    for eid in h.edge_ids:
                        t, hd = g.endpoints(eid)
                        assert h.endpoints(eid) == (img[t], img[hd])

    def test_edge_cuts_preserved(self):
        # every edge cut of G/S is an edge cut of G: check via pullback of
        # vertex bipartitions on all small graphs with one contracted edge
        for g in small_graphs(4, 4):
            for s_eid in g.edge_ids:
                h, img = g.contract({s_eid})
                for bits in range(1, 2 ** h.n - 1):
                    side = {v for v in range(h.n) if bits >> v & 1}
                    cut_h = {
                        e.id for e in h.edges()
                        if (e.tail in side) != (e.head in side)
                    }
                    pre = {v for v in range(g.n) if img[v] in side}
                    cut_g = {
                        e.id for e in g.edges()
                        if (e.tail in pre) != (e.head in pre)
                    }
                    assert cut_h == cut_g

    def test_contract_union_equals_contract_in_turn(self):
        # contracting A and B at once gives the same graph as contracting A
        # and then B: same numbering, endpoints, edge order and vertex image
        for seed in range(60):
            rng = random.Random(seed)
            g = random_2ec_multigraph(rng.randint(1, 25), rng.randint(0, 15), seed)
            ids = sorted(g.edge_ids)
            a = {e for e in ids if rng.random() < 0.3}
            b = {e for e in ids if e not in a and rng.random() < 0.3}
            once, image_once = g.contract(a | b)
            first, image_a = g.contract(a)
            twice, image_b = first.contract(b)
            assert once.n == twice.n
            assert list(once.edges()) == list(twice.edges())
            assert image_once == [image_b[i] for i in image_a]
            assert image_once == brute_force_image(g, a | b)


class TestDeleteVertex:
    # G - u keeps every vertex id; u stays behind isolated
    def test_triangle(self, triangle):
        g = triangle.delete_vertex(0)
        assert g.n == 3 and sorted(g.edge_ids) == [1]
        assert g.endpoints(1) == (1, 2)

    def test_k4(self, k4):
        g = k4.delete_vertex(0)
        assert g.n == 4 and g.m == 3
        assert len(components(g)) == 2

    def test_star(self):
        star = Multigraph.build(4, [(0, 1), (0, 2), (0, 3)])
        g = star.delete_vertex(0)
        assert g.n == 4 and g.m == 0

    def test_unknown_vertex(self, triangle):
        with pytest.raises(InputError):
            triangle.delete_vertex(7)


@given(st.integers(1, 30), st.integers(0, 20), st.integers(0, 1000))
def test_contract_all_gives_single_vertex(n, ears, seed):
    g = random_2ec_multigraph(n, ears, seed)
    h, img = g.contract(set(g.edge_ids))
    assert h.n == 1 and h.m == 0
    assert img == [0] * g.n


def test_only_multigraph_reads_the_edge_table():
    # The storage of edges is multigraph.py's own decision; everything else
    # reads through arcs(), endpoints() and undirected_adj().
    package = Path(__file__).resolve().parents[1] / "src" / "sixflow"
    readers = sorted(
        p.name for p in package.glob("*.py")
        if p.name != "multigraph.py" and "._edges" in p.read_text()
    )
    assert readers == []
