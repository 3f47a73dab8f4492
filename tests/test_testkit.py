import itertools

import pytest
from hypothesis import given, settings, strategies as st

from sixflow import (
    GuardError,
    InputError,
    Multigraph,
    is_2_edge_connected,
    solve,
    verify_nowhere_zero,
)
from sixflow.testkit import (
    enumerate_nz_flows,
    enumerate_small_2ec_multigraphs,
    random_2ec_multigraph,
    rooted_flows,
)


class TestEnumerateFlows:
    def test_digon_pair_count(self, digon):
        flows = enumerate_nz_flows(digon, "z2xz3")
        assert len(flows) == 5
        for f in flows:
            assert verify_nowhere_zero(digon, f)

    def test_triangle_z6_count(self, triangle):
        assert len(enumerate_nz_flows(triangle, "z6")) == 5

    def test_cycle_flow_count_is_group_size_minus_one(self):
        for k, group in ((4, "z6"), (3, "z2xz3"), (5, "z2xz3")):
            g = Multigraph.build(k, [(i, (i + 1) % k) for i in range(k)])
            assert len(enumerate_nz_flows(g, group)) == 5

    def test_unknown_group(self, triangle):
        with pytest.raises(InputError):
            enumerate_nz_flows(triangle, "z3")

    def test_single_edge_has_no_flow(self):
        g = Multigraph.build(2, [(0, 1)])
        assert enumerate_nz_flows(g, "z2xz3") == []

    def test_guard(self, triangle):
        g = Multigraph.build(2, [(0, 1), (1, 0)] * 6)
        with pytest.raises(GuardError):
            enumerate_nz_flows(g, "z2xz3")
        # the override moves the guard in either direction
        with pytest.raises(GuardError):
            enumerate_nz_flows(triangle, "z2xz3", guard_edges=2)
        assert enumerate_nz_flows(triangle, "z2xz3", guard_edges=3)

    def test_deterministic_order(self, triangle):
        a = enumerate_nz_flows(triangle)
        b = enumerate_nz_flows(triangle)
        assert a == b
        keys = [tuple(f[e] for e in sorted(f)) for f in a]
        assert keys == sorted(keys)

    def test_matches_naive_product_enumeration(self, k4):
        from sixflow import verify_flow
        from sixflow.flows import NONZERO_PAIRS

        ids = sorted(k4.edge_ids)
        naive = []
        for combo in itertools.product(NONZERO_PAIRS, repeat=len(ids)):
            f = dict(zip(ids, combo))
            if verify_flow(k4, f):
                naive.append(f)
        assert enumerate_nz_flows(k4) == naive


class TestExhaustiveOracle:
    """At every root, the solver's flow is one of the enumerated rooted flows."""

    @staticmethod
    def check(g):
        flows = enumerate_nz_flows(g)
        for u in g.vertices():
            assert solve(g, u)[0] in rooted_flows(g, u, flows)

    def test_triangle(self, triangle):
        self.check(triangle)

    def test_digon(self, digon):
        self.check(digon)

    def test_theta_graph(self):
        self.check(Multigraph.build(2, [(0, 1), (0, 1), (0, 1)]))


class TestEnumerateSmallGraphs:
    def test_one_vertex(self):
        graphs = list(enumerate_small_2ec_multigraphs(1, 1))
        assert len(graphs) == 2  # edgeless vertex, single loop

    def test_digon_in_excludes_single_edge(self):
        graphs = list(enumerate_small_2ec_multigraphs(2, 2))
        shapes = [sorted((e.tail, e.head) for e in g.edges()) for g in graphs if g.n == 2]
        assert [(0, 1), (0, 1)] in shapes
        assert [(0, 1)] not in shapes

    def test_count_matches_independent_recount(self):
        # independent recount for n <= 2, m <= 3: enumerate by multiplicity
        # of the three possible arcs (loop0, edge01, loop1) plus n = 1 cases
        count_n1 = sum(
            1 for m in range(4)  # loops on one vertex: always 2ec
        )
        count_n2 = 0
        for l0 in range(4):
            for e01 in range(4):
                for l1 in range(4):
                    if l0 + e01 + l1 > 3:
                        continue
                    if e01 >= 2:  # connected and bridgeless iff >= 2 parallels
                        count_n2 += 1
        got = list(enumerate_small_2ec_multigraphs(2, 3))
        assert len(got) == count_n1 + count_n2
        assert len({(g.n, tuple(sorted((e.tail, e.head) for e in g.edges()))) for g in got}) == len(got)

    def test_all_yielded_graphs_are_2ec(self):
        for g in enumerate_small_2ec_multigraphs(3, 4):
            assert is_2_edge_connected(g)

    def test_guard(self):
        with pytest.raises(GuardError):
            list(enumerate_small_2ec_multigraphs(5, 7))


class TestRandomGenerator:
    def test_single_vertex(self):
        g = random_2ec_multigraph(1, 0, 7)
        assert g.n == 1 and g.m == 0

    def test_target_vertex_count(self):
        for n in (1, 2, 3, 7, 40):
            assert random_2ec_multigraph(n, 5, 1).n == n

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 60), st.integers(0, 40), st.integers(0, 10 ** 6))
    def test_always_2ec(self, n, ears, seed):
        assert is_2_edge_connected(random_2ec_multigraph(n, ears, seed))

    def test_same_seed_identical(self):
        a = random_2ec_multigraph(25, 10, 42)
        b = random_2ec_multigraph(25, 10, 42)
        assert a == b

    def test_seed_sensitivity(self):
        assert random_2ec_multigraph(25, 10, 1) != random_2ec_multigraph(25, 10, 2)
