"""Brute-force oracles, exhaustive small-graph enumeration, and seeded
random generation of 2-edge-connected multigraphs.

The oracles are deliberately independent of the constructive solver: they
enumerate assignments and check conservation directly, and this module does
not import ``construct``, so they can vouch for the solver's output. The
cross-check itself, solver output inside ``rooted_flows`` at every root, is
made by the acceptance suite.
"""

from __future__ import annotations

import random
from itertools import combinations_with_replacement
from typing import Iterator

from .connectivity import is_2_edge_connected
from .errors import GuardError, InputError
from .flows import NONZERO_PAIRS, ZERO, pair_add, pair_neg
from .multigraph import Multigraph

# per group: nonzero elements in enumeration order, addition, negation,
# zero, and the default edge guard
_GROUPS = {
    "z2xz3": (NONZERO_PAIRS, pair_add, pair_neg, ZERO, 10),
    "z6": (tuple(range(1, 6)), lambda a, b: (a + b) % 6, lambda c: (-c) % 6, 0, 10),
}


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
    values, add, neg, zero, limit = _GROUPS[group]
    if guard_edges is not None:
        limit = guard_edges
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
            results.append({eid: assignment[j] for j, eid in enumerate(order)})
            return
        t, h = ends[i]
        for val in values:
            assignment[i] = val
            if t != h:
                old_h, old_t = exc[h], exc[t]
                exc[h] = add(old_h, val)
                exc[t] = add(old_t, neg(val))
            ok = all(exc[v] == zero for v in finish_at[i])
            if ok:
                rec(i + 1)
            if t != h:
                exc[h], exc[t] = old_h, old_t
        assignment[i] = None

    rec(0)
    return results


def rooted_flows(g: Multigraph, u: int, flows: list[dict]) -> list[dict]:
    """The flows among ``flows`` with f2 = 0 on every edge at u, loops included."""
    at_u = [eid for eid, (t, h) in g.arcs() if u in (t, h)]
    return [f for f in flows if all(f[eid][0] == 0 for eid in at_u)]


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
    """
    if n < 1:
        raise InputError("vertex count must be positive")
    rng = random.Random(seed)
    arcs: list[tuple[int, int]] = []
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
