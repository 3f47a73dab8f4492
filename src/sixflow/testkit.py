"""Brute-force oracles, exhaustive small-graph enumeration, seeded random
generation of 2-edge-connected multigraphs, and fixed graph families
(cycles, doubled cycles, circular ladders, grids, Petersen, loops at the
root, flowers) for tests.

The oracles are deliberately independent of the constructive solver: they
enumerate assignments and check conservation directly, and this module does
not import ``construct``, so they can vouch for the solver's output. The
cross-check itself, solver output inside ``rooted_flows`` at every root, is
made by the acceptance suite.
"""

from __future__ import annotations

import random
from itertools import combinations_with_replacement
from operator import itemgetter
from typing import Iterator

from .connectivity import is_2_edge_connected
from .errors import GuardError, InputError
from .flows import NONZERO_PAIRS, ZERO, pair_add, pair_neg
from .multigraph import Multigraph

# per group: nonzero elements in enumeration order, addition, negation, zero
_GROUPS = {
    "z2xz3": (NONZERO_PAIRS, pair_add, pair_neg, ZERO),
    "z6": (tuple(range(1, 6)), lambda a, b: (a + b) % 6, lambda c: (-c) % 6, 0),
}
_GUARD_EDGES = 10  # the default edge guard of every group


def enumerate_nz_flows(
    g: Multigraph, group: str = "z2xz3", guard_edges: int | None = None
) -> list[dict]:
    """All nowhere-zero flows on g over the named group, by backtracking.

    Deterministic order: lexicographic by edge id, then by value order of
    the group's nonzero elements. Guarded: refuses graphs with too many
    edges rather than silently taking exponential time.
    """
    if group not in _GROUPS:
        raise InputError(f"unknown group {group!r}")
    values, add, neg, zero = _GROUPS[group]
    limit = _GUARD_EDGES if guard_edges is None else guard_edges
    if limit < 0:
        raise InputError("enumeration guard must be non-negative")
    if g.m > limit:
        raise GuardError(
            f"{g.m} edges exceeds the enumeration guard of {limit} for {group}"
        )
    order = sorted(g.edge_ids)
    m = len(order)
    ends = [g.endpoints(eid) for eid in order]
    # index of the last non-loop edge touching each vertex: conservation can
    # be checked as soon as that edge is assigned
    last_touch: dict[int, int] = {}
    for i, (t, h) in enumerate(ends):
        if t != h:
            last_touch[t] = last_touch[h] = i
    finish_at: list[list[int]] = [[] for _ in range(m)]
    for v, i in last_touch.items():
        finish_at[i].append(v)

    results: list[dict] = []
    exc = [zero] * g.n
    assignment: list[object] = [None] * m

    def rec(i: int) -> None:
        if i == m:
            results.append(dict(zip(order, assignment)))
            return
        t, h = ends[i]
        finish = finish_at[i]
        for val in values:
            assignment[i] = val
            if t != h:
                old_h, old_t = exc[h], exc[t]
                exc[h] = add(old_h, val)
                exc[t] = add(old_t, neg(val))
            for v in finish:
                if exc[v] != zero:
                    break
            else:
                rec(i + 1)
            if t != h:
                exc[h], exc[t] = old_h, old_t
        assignment[i] = None

    rec(0)
    return results


def rooted_flows(g: Multigraph, u: int, flows: list[dict]) -> list[dict]:
    """The flows among ``flows`` with f2 = 0 on every edge at u, loops
    included. Raises InputError when u is not a vertex of g."""
    g._check_vertex(u)
    at_u = [eid for eid, (t, h) in g.arcs() if u in (t, h)]
    if not at_u:
        return list(flows)
    pick = itemgetter(*at_u, at_u[0])  # two keys at least, so always a tuple
    f2 = itemgetter(0)
    return [f for f in flows if not any(map(f2, pick(f)))]


def enumerate_small_2ec_multigraphs(
    n_max: int, m_max: int
) -> Iterator[Multigraph]:
    """All labeled 2-edge-connected multigraphs with <= n_max vertices and
    <= m_max edges, loops and parallels included, canonical orientation
    tail <= head. No isomorphism reduction; labeled identity only."""
    if n_max > 4 or m_max > 7:
        raise GuardError("exhaustive enumeration is guarded to n_max <= 4, m_max <= 7")
    for n in range(1, n_max + 1):
        pool = [(i, j) for i in range(n) for j in range(i, n)]
        for m in range(m_max + 1):
            for combo in combinations_with_replacement(pool, m):
                g = Multigraph.build(n, combo)
                if _degree_ok(g) and is_2_edge_connected(g):
                    yield g


def _degree_ok(g: Multigraph) -> bool:
    # cheap prefilter: with n >= 2 every vertex needs >= 2 non-loop ends
    if g.n == 1:
        return True
    deg = [0] * g.n
    for _, (t, h) in g.arcs():
        if t != h:
            deg[t] += 1
            deg[h] += 1
    return all(d >= 2 for d in deg)


def random_2ec_multigraph(n: int, extra_ears: int, seed: int) -> Multigraph:
    """Seeded random 2-edge-connected multigraph with exactly n vertices.

    Grown from a small cycle by attaching ears (paths between existing
    vertices) until n vertices exist, then ``extra_ears`` single-edge ears
    between random existing vertices (parallel edges and loops possible).
    Every intermediate graph is 2-edge-connected; output is a pure function
    of (n, extra_ears, seed).

    Each ear end is a vertex drawn below k, the vertex count so far, and
    each ear length is 1 plus a value drawn below 3. A value below k is
    ``getrandbits(k.bit_length())`` of ``random.Random(seed)``, drawn again
    while it is at least k. That is the draw CPython's ``Random`` makes for
    a range of k values, done inline to save two Python calls per draw. So
    the graphs equal those of earlier versions, which drew through that
    range method, for every (n, extra_ears, seed), and they depend only on
    ``getrandbits``, not on how the ``random`` module samples a range.
    """
    if n < 1:
        raise InputError("vertex count must be positive")
    if extra_ears < 0:
        raise InputError("extra ear count must be non-negative")
    bits = random.Random(seed).getrandbits
    arcs: list[tuple[int, int]] = []
    if n == 1:
        vcount = 1
    else:
        c = min(n, 3)
        arcs.extend((i, (i + 1) % c) for i in range(c))
        vcount = c
    while vcount < n:
        k = vcount.bit_length()
        a = bits(k)
        while a >= vcount:
            a = bits(k)
        b = bits(k)
        while b >= vcount:
            b = bits(k)
        length = bits(2)  # a value below 3; 3 has bit length 2
        while length >= 3:
            length = bits(2)
        length = min(1 + length, n - vcount)
        inner = list(range(vcount, vcount + length))
        vcount += length
        chain = [a] + inner + [b]
        arcs.extend(zip(chain, chain[1:]))
    k = vcount.bit_length()
    for _ in range(extra_ears):
        a = bits(k)
        while a >= vcount:
            a = bits(k)
        b = bits(k)
        while b >= vcount:
            b = bits(k)
        arcs.append((a, b))
    return Multigraph(vcount, dict(enumerate(arcs)))  # every end is below vcount


# -- graph families --------------------------------------------------------
# Shapes the ear generator rarely draws: long cycles, large parallel classes,
# grids, many loops at the root, and many components in G - u. Each graph is
# 2-edge-connected for the sizes its docstring names.


def cycle(n: int) -> Multigraph:
    """The directed cycle 0 -> 1 -> ... -> n-1 -> 0, n >= 1 (n = 1 is a loop)."""
    return Multigraph.build(n, [(i, (i + 1) % n) for i in range(n)])


def doubled_cycle(n: int) -> Multigraph:
    """``cycle(n)`` with every edge doubled, n >= 1."""
    return Multigraph.build(n, [(i, (i + 1) % n) for i in range(n) for _ in range(2)])


def circular_ladder(k: int) -> Multigraph:
    """Two k-cycles, 0..k-1 and k..2k-1, joined by the rungs (i, k + i), k >= 2."""
    outer = [(i, (i + 1) % k) for i in range(k)]
    inner = [(k + i, k + (i + 1) % k) for i in range(k)]
    rungs = [(i, k + i) for i in range(k)]
    return Multigraph.build(2 * k, outer + inner + rungs)


def grid(rows: int, cols: int) -> Multigraph:
    """The rows x cols grid, vertex r * cols + c, rows and cols >= 2."""
    right = [(r * cols + c, r * cols + c + 1) for r in range(rows) for c in range(cols - 1)]
    down = [(r * cols + c, (r + 1) * cols + c) for r in range(rows - 1) for c in range(cols)]
    return Multigraph.build(rows * cols, right + down)


def petersen() -> Multigraph:
    """The Petersen graph: outer 5-cycle 0..4, spokes (i, i + 5), inner pentagram."""
    outer = [(i, (i + 1) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return Multigraph.build(10, outer + spokes + inner)


def with_root_loops(g: Multigraph, root: int, loops: int) -> Multigraph:
    """g with ``loops`` more loops at ``root``, numbered after g's edges."""
    arcs = [ends for _, ends in g.arcs()] + [(root, root)] * loops
    return Multigraph.build(g.n, arcs)


def flower(petals: list[int]) -> Multigraph:
    """Cycles of the given lengths (each >= 1) through vertex 0.

    A petal of length 1 is a loop at 0; each longer petal adds its own path
    of new vertices, so G - 0 has one component per such petal.
    """
    arcs: list[tuple[int, int]] = []
    n = 1
    for length in petals:
        chain = [0, *range(n, n + length - 1), 0]
        n += length - 1
        arcs.extend(zip(chain, chain[1:]))
    return Multigraph.build(n, arcs)
