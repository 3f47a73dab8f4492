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


def small_graphs(max_n=4, max_m=4):
    """Every labeled multigraph up to the given size, 2ec or not."""
    for n in range(1, max_n + 1):
        pool = [(i, j) for i in range(n) for j in range(i, n)]
        for m in range(max_m + 1):
            for combo in itertools.combinations_with_replacement(pool, m):
                yield Multigraph.build(n, combo)
