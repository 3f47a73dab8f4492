"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines as they complete.
"""

import gc
import random
import time

import pytest

from sixflow import (
    Multigraph,
    enumerate_nz_flows,
    enumerate_small_2ec_multigraphs,
    group_flow_to_integer_flow,
    group_flow_to_z6,
    random_2ec_multigraph,
    solve,
    verify_flow,
    verify_k_flow,
    verify_nowhere_zero,
    verify_rooted,
)
from sixflow.flows import pair_neg
from sixflow.testkit import rooted_flows

from conftest import petersen


def _report(criterion: int, message: str) -> None:
    print(f"ACCEPTANCE criterion {criterion}: PASS ({message})")


def _random_suite():
    """The 1,000-instance random suite: up to 200 vertices, 600 edges."""
    for i in range(1000):
        n = (i % 200) + 1
        ears = (i * 37) % ((600 - 2 * n) // 3 + 1) if n < 280 else 0
        g = random_2ec_multigraph(n, ears, seed=i)
        assert g.n <= 200 and g.m <= 600
        yield g


def test_criterion_1_exhaustive_small_graphs():
    t0 = time.perf_counter()
    graphs = checked = 0
    for g in enumerate_small_2ec_multigraphs(4, 7):
        graphs += 1
        flows = enumerate_nz_flows(g, "z2xz3")
        for u in g.vertices():
            valid = rooted_flows(g, u, flows)
            assert valid, f"no valid rooted flow exists for {g} root {u}"
            built, _ = solve(g, u)
            assert verify_rooted(g, u, built)
            assert built in valid, f"solver output not in oracle set for {g} root {u}"
            checked += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 300
    _report(1, f"{graphs} graphs, {checked} (graph, root) pairs, {elapsed:.1f}s")


def test_criterion_2_thousand_random_end_to_end():
    t0 = time.perf_counter()
    count = 0
    for g in _random_suite():
        flow, _ = solve(g, 0)
        phi = group_flow_to_z6(flow)
        f = group_flow_to_integer_flow(g, phi)
        assert verify_k_flow(g, f, 6)
        assert all(f[e] % 6 == phi[e] for e in g.edge_ids)
        count += 1
    elapsed = time.perf_counter() - t0
    assert count == 1000
    assert elapsed < 60
    _report(2, f"1000 instances, {elapsed:.1f}s")


def test_criterion_3_proof_step_invariants_in_debug_mode():
    # rerun both suites with every intermediate assertion armed; any
    # violation raises InternalCheckError and fails the test
    for g in enumerate_small_2ec_multigraphs(4, 7):
        for u in g.vertices():
            f, trace = solve(g, u, debug=True)
            assert all(s.depth <= g.n for s in trace.steps)
    count = 0
    for g in _random_suite():
        solve(g, 0, debug=True)
        count += 1
    _report(3, f"debug-verified exhaustive suite plus {count} random instances")


def test_criterion_4_oracle_counts():
    digon = Multigraph.build(2, [(0, 1), (1, 0)])
    triangle = Multigraph.build(3, [(0, 1), (1, 2), (2, 0)])
    n_digon = len(enumerate_nz_flows(digon, "z2xz3"))
    n_triangle = len(enumerate_nz_flows(triangle, "z6"))
    assert n_digon == 5
    assert n_triangle == 5
    _report(4, f"digon Z2xZ3 count {n_digon}, triangle Z6 count {n_triangle}")


def test_criterion_5_reversal_negation_metamorphic():
    rng = random.Random(2026)
    checked = 0
    while checked < 200:
        n = rng.randint(1, 40)
        g = random_2ec_multigraph(n, rng.randint(0, 30), rng.randint(0, 10 ** 6))
        if g.m == 0:
            continue
        f, _ = solve(g, rng.randrange(g.n))
        eid = rng.choice(sorted(g.edge_ids))
        rg = Multigraph.build(g.n, [(h, t) if e == eid else (t, h) for e, (t, h) in g.arcs()])
        rf = dict(f)
        rf[eid] = pair_neg(rf[eid])
        assert verify_flow(rg, rf) == verify_flow(g, f)
        assert verify_nowhere_zero(rg, rf) == verify_nowhere_zero(g, f)
        for u in g.vertices():
            assert verify_rooted(rg, u, rf) == verify_rooted(g, u, f)
        checked += 1
    _report(5, "200 (graph, edge) reversal pairs, all verdicts unchanged")


def test_criterion_6_petersen_all_roots():
    g = petersen()
    for u in g.vertices():
        f, _ = solve(g, u, debug=True)
        assert verify_nowhere_zero(g, f)
        assert verify_rooted(g, u, f)
        phi = group_flow_to_z6(f)
        int6 = group_flow_to_integer_flow(g, phi)
        assert verify_k_flow(g, int6, 6)
    _report(6, "all 10 roots pass group, rooted, and 6-flow verification")


def test_criterion_7_hundred_thousand_edges_under_ten_seconds():
    base = random_2ec_multigraph(60, 0, 7)
    g = random_2ec_multigraph(60, 100_000 - base.m, 7)
    assert g.m >= 100_000
    gc.collect()  # so that earlier criteria's garbage is not collected inside the timing
    t0 = time.perf_counter()
    flow, trace = solve(g, 0)
    t1 = time.perf_counter()
    int6 = group_flow_to_integer_flow(g, group_flow_to_z6(flow))
    elapsed = time.perf_counter() - t0
    assert verify_k_flow(g, int6, 6)
    split = f"solve {t1 - t0:.2f}s, conversion {elapsed - (t1 - t0):.2f}s"
    assert elapsed < 10, f"{elapsed:.2f}s ({split}), depth {trace.depth}"
    _report(7, f"n={g.n} m={g.m} solved+converted in {elapsed:.1f}s ({split}), depth {trace.depth}")


def test_criterion_8_determinism():
    g = random_2ec_multigraph(80, 60, 123)
    f1, t1 = solve(g, 5)
    f2, t2 = solve(g, 5)
    assert f1 == f2 and t1.steps == t2.steps
    assert random_2ec_multigraph(80, 60, 123) == g
    int_a = group_flow_to_integer_flow(g, group_flow_to_z6(f1))
    int_b = group_flow_to_integer_flow(g, group_flow_to_z6(f2))
    assert int_a == int_b
    _report(8, "repeated runs byte-identical for solver, converter, generator")
