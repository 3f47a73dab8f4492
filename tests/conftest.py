import itertools

import pytest

from sixflow import Multigraph
from sixflow.testkit import petersen


def triangle() -> Multigraph:
    return Multigraph.build(3, [(0, 1), (1, 2), (2, 0)])


def digon() -> Multigraph:
    return Multigraph.build(2, [(0, 1), (1, 0)])


def k4() -> Multigraph:
    return Multigraph.build(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])


@pytest.fixture(name="triangle")
def triangle_fixture():
    return triangle()


@pytest.fixture(name="digon")
def digon_fixture():
    return digon()


@pytest.fixture(name="k4")
def k4_fixture():
    return k4()


@pytest.fixture(name="petersen")
def petersen_fixture():
    return petersen()


def brute_force_bridges(g: Multigraph) -> frozenset:
    """Independent bridge oracle: delete each edge and recount components."""
    from sixflow import components

    base = len(components(g))
    out = set()
    for eid in g.edge_ids:
        pruned = Multigraph(g.n, {k: v for k, v in g.arcs() if k != eid})
        if len(components(pruned)) > base:
            out.add(eid)
    return frozenset(out)


def balanced_lift(g: Multigraph, phi: dict) -> tuple[dict, list]:
    """The integer conversion's lift of a Z6 flow, and the excess it leaves:
    edges in id order, each non-loop value c lifted to c - 6 exactly when
    c would leave the head's excess more than 6 above the tail's."""
    f = dict(phi)
    exc = [0] * g.n
    for eid, (t, h) in sorted(g.arcs()):
        if t != h:
            if exc[h] - exc[t] + 2 * f[eid] > 6:
                f[eid] -= 6
            exc[h] += f[eid]
            exc[t] -= f[eid]
    return f, exc


def small_graphs(max_n=4, max_m=4):
    """Every labeled multigraph up to the given size, 2ec or not."""
    for n in range(1, max_n + 1):
        pool = [(i, j) for i in range(n) for j in range(i, n)]
        for m in range(max_m + 1):
            for combo in itertools.combinations_with_replacement(pool, m):
                yield Multigraph.build(n, combo)
