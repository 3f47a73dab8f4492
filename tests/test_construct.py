import importlib.util
import math
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from sixflow import (
    InputError,
    InternalCheckError,
    Multigraph,
    StructuralError,
    extend_flow_over_contraction,
    extend_nonzero_parallel,
    solve,
    verify_flow,
    verify_nowhere_zero,
    verify_rooted,
)
from sixflow import construct
from sixflow.construct import BaseStep, BridgelessStep, ConstructionTrace, _solve_task
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
        assert all(a == 0 for a, _ in f.values())
        assert f in enumerate_nz_flows(triangle)

    def test_k4(self, k4):
        f, _ = solve(k4, 0)
        assert verify_rooted(k4, 0, f)
        # G-0 is a bridgeless triangle: the f2 support is the path union,
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
        # u joined twice to an otherwise isolated vertex: x == x'
        g = Multigraph.build(2, [(0, 1), (0, 1)])
        f, trace = solve(g, 0, debug=True)
        assert verify_rooted(g, 0, f)
        step = trace.steps[0]
        assert isinstance(step, BridgelessStep)
        assert step.contracted_sizes == (0, 2)
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

    @pytest.mark.parametrize("u", [0, 1000])
    def test_cycle_depth_is_logarithmic(self, u):
        # G - u is a path: every step is a cut step at its middle bridge
        n = 2000
        g = Multigraph.build(n, [(i, (i + 1) % n) for i in range(n)])
        f, trace = solve(g, u)
        assert trace.depth <= 2 * math.ceil(math.log2(n))
        assert verify_rooted(g, u, f)


class TestBridgelessChecksFire:
    """Each always-on check of the bridgeless step, reached on a bad input.

    The first two graphs are not 2-edge-connected, so ``solve`` would
    reject them; the step is driven directly, up to its first child, or
    past it with a bad child flow (``after_children``).
    """

    @staticmethod
    def first_step(g, u=0):
        with pytest.raises(InternalCheckError) as exc:
            next(_solve_task(g, u, 0, ConstructionTrace(), False))
        return str(exc.value)

    def test_component_with_one_root_edge(self):
        g = Multigraph.build(3, [(0, 1), (1, 2), (1, 2)])
        assert self.first_step(g) == (
            "a component of G - root has fewer than two edges to the root")

    def test_component_with_no_root_edge(self):
        # {1} has both root edges, {2, 3} has none
        g = Multigraph.build(4, [(0, 1), (0, 1), (2, 3), (2, 3)])
        assert self.first_step(g) == (
            "a component of G - root has fewer than two edges to the root")

    def test_odd_path_union(self, k4, monkeypatch):
        # G - 0 is the triangle 1, 2, 3; x = 1, x2 = 2. Edges 3 = (1, 2) and
        # 4 = (1, 3) leave 2 and 3 with odd degree.
        monkeypatch.setattr(construct, "two_edge_disjoint_paths",
                            lambda gu, x, y: ([(3, 1)], [(4, 1)]))
        assert self.first_step(k4) == "path union has a vertex of odd degree"

    def test_disconnected_path_union(self, k4, monkeypatch):
        # an empty (so even) path union with x != x2 leaves H in two pieces
        monkeypatch.setattr(construct, "two_edge_disjoint_paths",
                            lambda gu, x, y: ([], []))
        assert self.first_step(k4) == "path union did not contract to a single vertex"

    # x = x2 = 1, so H = {1}, the spokes are edges 0 and 1, and the child
    # keeps edges 2-5; edge 4 is a root edge outside the spokes
    PARALLEL = [(0, 1), (0, 1), (1, 2), (1, 2), (0, 2), (0, 2)]
    F2_MESSAGE = "f2 support touches the root or the contracted path vertex"

    def test_child_f2_on_a_root_edge(self):
        g = Multigraph.build(3, self.PARALLEL)
        child = {2: (0, 1), 3: (0, 1), 4: (1, 1), 5: (0, 1)}
        assert after_children(g, child) == self.F2_MESSAGE

    def test_child_f2_on_a_root_loop(self):
        g = Multigraph.build(3, self.PARALLEL + [(0, 0)])
        child = {2: (0, 1), 3: (0, 1), 4: (0, 1), 5: (0, 1), 6: (1, 1)}
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
    # imports of bridges and components only so that the patches land
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
        full = extend_flow_over_contraction(triangle, {0}, known)
        assert full[0] == 1
        assert verify_flow(triangle, {e: (0, v) for e, v in full.items()})

    def test_star_tree_leaves_forced(self):
        # spokes of a wheel contracted: each leaf has a single unknown
        g = Multigraph.build(4, [(0, 1), (0, 2), (0, 3), (1, 2), (2, 3), (3, 1)])
        known = {3: 1, 4: 1, 5: 1}
        full = extend_flow_over_contraction(g, {0, 1, 2}, known)
        f = {e: (0, v) for e, v in full.items()}
        assert verify_flow(g, f)

    def test_zero_extends_to_zero(self, k4):
        known = {3: 0, 4: 0, 5: 0}
        full = extend_flow_over_contraction(k4, {0, 1, 2}, known)
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
