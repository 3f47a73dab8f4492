import pytest
from hypothesis import given, strategies as st

from sixflow import (
    InputError,
    Multigraph,
    negate_f3,
    verify_flow,
    verify_k_flow,
    verify_nowhere_zero,
    verify_rooted,
)
from sixflow.flows import (
    NONZERO_PAIRS,
    _pair_excesses,
    flow_violation,
    pair_neg,
    rooted_violation,
    zero_edge,
)
from sixflow.testkit import random_2ec_multigraph


class TestExcess:
    """The per-vertex excesses that every group verifier reads."""

    def test_loop_contributes_nothing(self):
        g = Multigraph.build(1, [(0, 0)])
        assert _pair_excesses(g, {0: (1, 2)}) == ([0], [0])
        assert verify_flow(g, {0: (1, 2)})

    def test_digon(self):
        g = Multigraph.build(2, [(0, 1), (1, 0)])
        f = {0: (0, 1), 1: (0, 1)}
        assert _pair_excesses(g, f) == ([0, 0], [0, 0])
        assert flow_violation(g, f) is None

    def test_single_edge(self):
        g = Multigraph.build(2, [(0, 1)])
        f = {0: (0, 1)}
        assert _pair_excesses(g, f) == ([0, 0], [-1, 1])
        assert flow_violation(g, f) == ("vertex", 0)

    def test_missing_value(self):
        g = Multigraph.build(2, [(0, 1), (1, 0)])
        with pytest.raises(InputError, match="missing a value for edge 1"):
            verify_flow(g, {0: (0, 1)})
        with pytest.raises(InputError, match="missing a value for edge 1"):
            verify_k_flow(g, {0: 1}, 6)

    @given(st.integers(1, 15), st.integers(0, 10), st.integers(0, 200),
           st.integers(0, 10 ** 9))
    def test_excesses_always_sum_to_zero(self, n, ears, seed, vseed):
        # holds for any assignment, flow or not
        import random

        g = random_2ec_multigraph(n, ears, seed)
        rng = random.Random(vseed)
        f = {e: (rng.randrange(2), rng.randrange(3)) for e in g.edge_ids}
        e2, e3 = _pair_excesses(g, f)
        assert sum(e2) == 0 and sum(e3) == 0


class TestVerifiers:
    def test_triangle_circulation(self, triangle):
        f = {0: (0, 1), 1: (0, 1), 2: (0, 1)}
        assert verify_flow(triangle, f)
        assert verify_nowhere_zero(triangle, f)

    def test_zero_edge_breaks_conservation(self, triangle):
        f = {0: (0, 0), 1: (0, 1), 2: (0, 1)}
        assert not verify_flow(triangle, f)

    def test_digon_f2_only(self, digon):
        f = {0: (1, 0), 1: (1, 0)}
        assert verify_flow(digon, f)
        assert verify_nowhere_zero(digon, f)

    def test_rooted_base_case(self):
        g = Multigraph.build(1, [(0, 0), (0, 0)])
        assert verify_rooted(g, 0, {0: (0, 1), 1: (0, 1)})

    def test_rooted_triangle(self, triangle):
        assert verify_rooted(triangle, 0, {e: (0, 1) for e in range(3)})

    def test_rooted_rejects_f2_at_root(self, k4):
        f = {e: (0, 1) for e in k4.edge_ids}
        f[0] = (1, 1)  # edge at the root
        assert not verify_rooted(k4, 0, f)

    def test_k_flow_directed_cycle(self):
        g = Multigraph.build(4, [(i, (i + 1) % 4) for i in range(4)])
        assert verify_k_flow(g, {e: 1 for e in g.edge_ids}, 6)

    def test_k_flow_digon(self, digon):
        assert verify_k_flow(digon, {0: 4, 1: 4}, 6)
        assert not verify_k_flow(digon, {0: 4, 1: -4}, 6)

    def test_zero_witness_is_the_smallest_id(self):
        # four parallel edges; 3 and 2 carry zero, listed larger id first
        g = Multigraph.build(2, [(0, 1)] * 4)
        f = {3: (0, 0), 2: (0, 0), 1: (0, 2), 0: (0, 1)}
        assert verify_flow(g, f)
        assert zero_edge(f) == 2
        assert rooted_violation(g, 0, f) == ("edge", 2)

    def test_k_flow_range(self):
        g = Multigraph.build(1, [(0, 0)])
        assert not verify_k_flow(g, {0: 6}, 6)
        assert not verify_k_flow(g, {0: 0}, 6)
        assert verify_k_flow(g, {0: -5}, 6)


class TestNegate:
    def test_values(self):
        assert negate_f3({0: (1, 1), 1: (0, 0), 2: (1, 2)}) == {
            0: (1, 2), 1: (0, 0), 2: (1, 1)
        }

    def test_involution(self):
        f = {e: p for e, p in enumerate(NONZERO_PAIRS)}
        assert negate_f3(negate_f3(f)) == f

    def test_preserves_flow_and_supports(self, k4):
        from sixflow import solve

        f, _ = solve(k4, 0)
        nf = negate_f3(f)
        assert verify_flow(k4, nf)
        assert verify_nowhere_zero(k4, nf)
        assert verify_rooted(k4, 0, nf)
        assert all(nf[e][0] == f[e][0] and (nf[e][1] == 0) == (f[e][1] == 0) for e in f)


@given(st.integers(1, 12), st.integers(0, 8), st.integers(0, 100),
       st.data())
def test_reversal_negation_equivalence(n, ears, seed, data):
    """Reversing an edge while negating its value changes no verifier verdict."""
    import random

    from sixflow import solve
    from sixflow.flows import GroupFlow

    g = random_2ec_multigraph(n, ears, seed)
    if g.m == 0:
        return
    f, _ = solve(g, 0)
    # also try broken assignments, not just valid flows
    if data.draw(st.booleans()):
        victim = data.draw(st.sampled_from(sorted(f)))
        f[victim] = data.draw(st.sampled_from([(0, 0), (1, 0), (0, 2)]))
    eid = data.draw(st.sampled_from(sorted(g.edge_ids)))
    rg = Multigraph.build(g.n, [(h, t) if e == eid else (t, h) for e, (t, h) in g.arcs()])
    rf: GroupFlow = dict(f)
    rf[eid] = pair_neg(rf[eid])
    for u in g.vertices():
        assert verify_rooted(g, u, f) == verify_rooted(rg, u, rf)
    assert verify_flow(g, f) == verify_flow(rg, rf)
    assert verify_nowhere_zero(g, f) == verify_nowhere_zero(rg, rf)
