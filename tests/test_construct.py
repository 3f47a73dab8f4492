import pytest
from hypothesis import given, settings, strategies as st

from sixflow import (
    InputError,
    Multigraph,
    StructuralError,
    extend_flow_over_contraction,
    extend_nonzero_parallel,
    solve,
    support,
    verify_flow,
    verify_nowhere_zero,
    verify_rooted,
)
from sixflow.construct import BaseStep, BridgelessStep
from sixflow.testkit import enumerate_nz_flows, random_2ec_multigraph


class TestSolveSmall:
    def test_single_vertex_two_loops(self):
        g = Multigraph.build(1, [(0, 0), (0, 0)])
        f, trace = solve(g, 0)
        assert f == {0: (0, 1), 1: (0, 1)}
        assert trace.steps == [BaseStep(depth=0, loop_edges=2)]

    def test_triangle(self, triangle):
        f, _ = solve(triangle, 0)
        assert verify_rooted(triangle, 0, f)
        assert support(f, "f2") == frozenset()
        assert f in enumerate_nz_flows(triangle)

    def test_k4(self, k4):
        f, _ = solve(k4, 0)
        assert verify_rooted(k4, 0, f)
        # G-0 is a bridgeless triangle: the f2 support is the path union,
        # and the three root edges carry f2 = 0
        assert support(f, "f2").isdisjoint({0, 1, 2})
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
        assert support(f, "f2") == frozenset()
        assert f in enumerate_nz_flows(g)

    def test_empty_path_case(self):
        # u joined twice to an otherwise isolated vertex: x == x'
        g = Multigraph.build(2, [(0, 1), (0, 1)])
        f, trace = solve(g, 0, debug=True)
        assert verify_rooted(g, 0, f)
        step = trace.steps[0]
        assert isinstance(step, BridgelessStep)
        assert step.path_edges == frozenset()
        assert step.spoke_edges == {0, 1}
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

    def test_deep_recursion_uses_no_call_stack(self):
        # doubled cycle: one vertex merged per step, depth beyond the
        # interpreter's default recursion limit
        n = 1200
        arcs = []
        for i in range(n):
            arcs.append((i, (i + 1) % n))
            arcs.append((i, (i + 1) % n))
        g = Multigraph.build(n, arcs)
        f, trace = solve(g, 0)
        assert trace.depth > 1000
        assert verify_rooted(g, 0, f)


class TestExtendNonzeroParallel:
    def test_two_same_sense_sum_zero(self):
        vals = extend_nonzero_parallel(0, 2, [1, 1])
        assert all(v in (1, 2) for v in vals)
        assert sum(vals) % 3 == 0

    def test_two_same_sense_sum_two(self):
        assert extend_nonzero_parallel(2, 2, [1, 1]) == [1, 1]

    def test_three_same_sense_sum_zero(self):
        assert extend_nonzero_parallel(0, 3, [1, 1, 1]) == [1, 1, 1]

    def test_rejects_single_edge(self):
        with pytest.raises(InputError):
            extend_nonzero_parallel(1, 1, [1])

    @given(st.integers(0, 2), st.integers(2, 8), st.data())
    def test_signed_sum_and_nonzero(self, d, k, data):
        signs = data.draw(st.lists(st.sampled_from([1, -1]), min_size=k, max_size=k))
        vals = extend_nonzero_parallel(d, k, signs)
        assert all(v in (1, 2) for v in vals)
        assert sum(s * v for s, v in zip(signs, vals)) % 3 == d


class TestExtendOverContraction:
    def test_single_contracted_edge(self, triangle):
        # contract edge 0; remaining digon carries f3 = 1 around
        known = {1: 1, 2: 1}
        full = extend_flow_over_contraction(triangle, {0}, known, modulus=3)
        assert full[0] == 1
        assert verify_flow(triangle, {e: (0, v) for e, v in full.items()})

    def test_star_tree_leaves_forced(self):
        # spokes of a wheel contracted: each leaf has a single unknown
        g = Multigraph.build(4, [(0, 1), (0, 2), (0, 3), (1, 2), (2, 3), (3, 1)])
        known = {3: 1, 4: 1, 5: 1}
        full = extend_flow_over_contraction(g, {0, 1, 2}, known, modulus=3)
        f = {e: (0, v) for e, v in full.items()}
        assert verify_flow(g, f)

    def test_zero_extends_to_zero(self, k4):
        known = {3: 0, 4: 0, 5: 0}
        full = extend_flow_over_contraction(k4, {0, 1, 2}, known, modulus=3)
        assert all(full[e] == 0 for e in (0, 1, 2))


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 20), st.integers(0, 15), st.integers(0, 1000), st.data())
def test_solve_random_graphs_debug_checked(n, ears, seed, data):
    g = random_2ec_multigraph(n, ears, seed)
    u = data.draw(st.integers(0, g.n - 1))
    f, trace = solve(g, u, debug=True)
    assert verify_rooted(g, u, f)
    assert verify_nowhere_zero(g, f)
    assert trace.depth <= g.n
