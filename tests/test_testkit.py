import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from sixflow import (
    GuardError,
    InputError,
    Multigraph,
    group_flow_to_integer_flow,
    group_flow_to_z6,
    is_2_edge_connected,
    solve,
    verify_k_flow,
    verify_nowhere_zero,
    verify_rooted,
)
from sixflow.testkit import (
    circular_ladder,
    cycle,
    doubled_cycle,
    enumerate_nz_flows,
    enumerate_small_2ec_multigraphs,
    flower,
    grid,
    petersen,
    random_2ec_multigraph,
    rooted_flows,
    with_root_loops,
)

from conftest import balanced_lift


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
        # both groups share the default guard of 10 edges
        for group in ("z2xz3", "z6"):
            with pytest.raises(GuardError, match=f"^12 edges exceeds the enumeration "
                                                 f"guard of 10 for {group}$"):
                enumerate_nz_flows(g, group)
        # the override moves the guard in either direction
        with pytest.raises(GuardError):
            enumerate_nz_flows(triangle, "z2xz3", guard_edges=2)
        assert enumerate_nz_flows(triangle, "z2xz3", guard_edges=3)
        # a negative guard is bad input, even on an edgeless graph
        with pytest.raises(InputError, match="^enumeration guard must be non-negative$"):
            enumerate_nz_flows(Multigraph.build(1, []), "z2xz3", guard_edges=-1)

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

    def test_root_must_be_a_vertex(self, triangle):
        # a bad root would keep every flow, and a cross-check pass vacuously
        flows = enumerate_nz_flows(triangle)
        assert (len(flows), len(rooted_flows(triangle, 0, flows))) == (5, 2)
        for u in (7, -1):
            with pytest.raises(InputError, match=f"^unknown vertex id {u} \\(n=3\\)$"):
                rooted_flows(triangle, u, flows)


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

    def test_zero_vertices(self):
        with pytest.raises(InputError) as exc:
            random_2ec_multigraph(0, 0, 0)
        assert str(exc.value) == "vertex count must be positive"

    def test_negative_extra_ears(self):
        with pytest.raises(InputError, match="extra ear count must be non-negative"):
            random_2ec_multigraph(5, -3, 0)

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

    @staticmethod
    def randrange_reference(n, extra_ears, seed):
        """The generator as it was when it drew through ``randrange``."""
        rng = random.Random(seed)
        arcs = []
        if n == 1:
            vcount = 1
        else:
            c = min(n, 3)
            arcs.extend((i, (i + 1) % c) for i in range(c))
            vcount = c
        while vcount < n:
            a = rng.randrange(vcount)
            b = rng.randrange(vcount)
            length = min(1 + rng.randrange(3), n - vcount)
            inner = list(range(vcount, vcount + length))
            vcount += length
            chain = [a] + inner + [b]
            arcs.extend(zip(chain, chain[1:]))
        for _ in range(extra_ears):
            a = rng.randrange(vcount)
            b = rng.randrange(vcount)
            arcs.append((a, b))
        return Multigraph.build(vcount, arcs)

    def test_equals_randrange_draw(self):
        for n in (1, 2, 3, 4, 5, 8, 9, 17, 100, 257, 1000):
            for ears in (0, 1, 7, 300):
                for seed in range(5):
                    g = random_2ec_multigraph(n, ears, seed)
                    assert g == self.randrange_reference(n, ears, seed), (n, ears, seed)

    @pytest.mark.parametrize("n, ears, seed", [(40, 20, 2 ** 32 + 17), (14, 15_000, 7)])
    def test_equals_randrange_draw_at_scale(self, n, ears, seed):
        assert random_2ec_multigraph(n, ears, seed) == self.randrange_reference(n, ears, seed)


@st.composite
def family_graphs(draw):
    """A graph of at most 12 vertices from one of the families, each edge
    reversed at random and the edge ids shuffled."""
    loops_base = st.integers(1, 12).map(cycle)
    g = draw(st.one_of(
        st.integers(1, 12).map(cycle),
        st.integers(1, 12).map(doubled_cycle),
        st.integers(2, 6).map(circular_ladder),
        st.sampled_from([(2, 2), (2, 3), (2, 4), (2, 5), (2, 6), (3, 3), (3, 4)]).map(
            lambda size: grid(*size)),
        st.builds(petersen),
        loops_base.flatmap(lambda base: st.builds(
            with_root_loops, st.just(base), st.integers(0, base.n - 1), st.integers(1, 30))),
        st.lists(st.integers(1, 4), min_size=1, max_size=5).filter(
            lambda petals: sum(petals) - len(petals) < 12).map(flower),
    ))
    flips = draw(st.lists(st.booleans(), min_size=g.m, max_size=g.m))
    arcs = [(h, t) if flip else (t, h) for flip, (_, (t, h)) in zip(flips, g.arcs())]
    return Multigraph.build(g.n, [arcs[i] for i in draw(st.permutations(range(g.m)))])


class TestFamilies:
    def test_sizes(self):
        shapes = [
            (cycle(7), 7, 7),
            (doubled_cycle(5), 5, 10),
            (circular_ladder(4), 8, 12),
            (grid(3, 4), 12, 17),
            (petersen(), 10, 15),
            (with_root_loops(cycle(3), 2, 4), 3, 7),
            (flower([1, 2, 4]), 5, 7),
        ]
        for g, n, m in shapes:
            assert (g.n, g.m) == (n, m)
        assert list(with_root_loops(cycle(3), 2, 2).arcs())[3:] == [(3, (2, 2)), (4, (2, 2))]

    @settings(max_examples=200, deadline=None)
    @given(family_graphs())
    def test_solve_at_every_root_is_rooted_and_repeatable(self, g):
        assert is_2_edge_connected(g)
        for u in g.vertices():
            flow, trace = solve(g, u)
            assert verify_rooted(g, u, flow)
            assert solve(g, u) == (flow, trace)
            phi = group_flow_to_z6(flow)
            stats = {}
            f = group_flow_to_integer_flow(g, phi, stats)
            assert verify_k_flow(g, f, 6)
            assert all(f[e] % 6 == phi[e] for e in g.edge_ids)
            assert group_flow_to_integer_flow(g, phi) == f
            # each round cancels six units of the lift's positive excess
            _, exc = balanced_lift(g, phi)
            assert stats["augmentation_rounds"] * 6 == sum(x for x in exc if x > 0)
