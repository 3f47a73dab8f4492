"""Structural subroutines: components, bridges, 2-edge-connectivity,
the partition at a bridge, and two edge-disjoint paths.

Everything here ignores edge orientation and is deterministic: ties are
broken by smallest edge id, then smallest vertex id.
"""

from __future__ import annotations

from collections import deque

from .errors import StructuralError
from .multigraph import Multigraph


def components(g: Multigraph) -> list[frozenset[int]]:
    """Connected components (orientation ignored), ordered by smallest vertex."""
    adj = g.undirected_adj()
    seen = [False] * g.n
    out = []
    for s in range(g.n):
        if seen[s]:
            continue
        seen[s] = True
        comp = [s]
        queue = deque([s])
        while queue:
            v = queue.popleft()
            for _, w in adj[v]:
                if not seen[w]:
                    seen[w] = True
                    comp.append(w)
                    queue.append(w)
        out.append(frozenset(comp))
    return out


def bridges(g: Multigraph) -> frozenset[int]:
    """All cut-edges, via an iterative lowpoint DFS.

    Skipping only the single entering edge (by id, not by endpoint pair)
    makes parallel edges behave as back edges, so no parallel edge is ever
    reported. Loops are never bridges and are skipped outright.
    """
    adj = g.undirected_adj()
    n = g.n
    disc = [-1] * n
    low = [0] * n
    found: list[int] = []
    timer = 0
    for s in range(n):
        if disc[s] != -1:
            continue
        disc[s] = low[s] = timer
        timer += 1
        stack = [(s, -1, iter(adj[s]))]
        while stack:
            v, pe, it = stack[-1]
            advanced = False
            for eid, w in it:
                if eid == pe:
                    continue
                if disc[w] == -1:
                    disc[w] = low[w] = timer
                    timer += 1
                    stack.append((w, eid, iter(adj[w])))
                    advanced = True
                    break
                if disc[w] < low[v]:
                    low[v] = disc[w]
            if not advanced:
                stack.pop()
                if stack:
                    pv = stack[-1][0]
                    if low[v] < low[pv]:
                        low[pv] = low[v]
                    if low[v] > disc[pv]:
                        found.append(pe)
    return frozenset(found)


def is_2_edge_connected(g: Multigraph) -> bool:
    """Connected (a single vertex counts) with no bridge. Loops are irrelevant."""
    return len(components(g)) <= 1 and not bridges(g)


def require_2_edge_connected(g: Multigraph) -> None:
    """Raise StructuralError naming a disconnection or a bridge."""
    comps = components(g)
    if len(comps) > 1:
        small = min(comps, key=min)
        raise StructuralError(
            f"graph is disconnected: vertices {sorted(small)} form a separate component",
            component=small,
        )
    b = bridges(g)
    if b:
        eid = min(b)
        t, h = g.endpoints(eid)
        raise StructuralError(
            f"graph has a bridge: edge {eid} ({t}, {h})", bridge=eid
        )


def partition_at_bridge(
    g: Multigraph, u: int, gu: Multigraph, eid: int
) -> tuple[int, frozenset[int], frozenset[int]]:
    """Split V(G) minus u at the bridge ``eid`` of ``gu`` = G - u.

    Returns (eid, V1, V2): V2 is the side of e's head, V1 the rest, so e is
    the only G - u edge between the sides. Components of G - u containing
    neither endpoint of e land on the side of e's tail.
    """
    t, h = gu.endpoints(eid)
    # Components of G-u with e removed; the bridge's two sides plus strays.
    pruned = Multigraph(gu.n, {k: v for k, v in gu.arcs() if k != eid})
    comps = components(pruned)
    head_side = next(c for c in comps if h in c)
    side1: set[int] = set()
    for c in comps:
        if c is not head_side:
            side1.update(c)
    back = lambda v: v if v < u else v + 1  # undo delete_vertex relabelling
    v1 = frozenset(back(v) for v in side1)
    v2 = frozenset(back(v) for v in head_side)
    return eid, v1, v2


def two_edge_disjoint_paths(
    g: Multigraph, x: int, y: int
) -> tuple[list[tuple[int, int]], list[tuple[int, int]]]:
    """Two edge-disjoint simple paths from x to y, orientation ignored.

    Each path is a list of (edge id, direction) steps, direction +1 when the
    edge is traversed tail-to-head. If x == y both paths are empty. Raises
    StructuralError when no two edge-disjoint paths exist.

    Unit-capacity augmenting-path search: each edge is usable once in either
    direction, a used edge may be cancelled by the second search.
    """
    g._check_vertex(x)
    g._check_vertex(y)
    if x == y:
        return [], []
    adj = g.undirected_adj()
    used: dict[int, int] = {}  # eid -> +1 traversed tail->head, -1 reverse

    def augment() -> bool:
        prev: dict[int, tuple[int, int, int]] = {x: (-1, -1, 0)}
        queue = deque([x])
        while queue:
            v = queue.popleft()
            if v == y:
                break
            for eid, w in adj[v]:
                if w in prev:
                    continue
                t, _ = g.endpoints(eid)
                d = +1 if t == v else -1
                have = used.get(eid)
                if have is None or have == -d:
                    prev[w] = (v, eid, d)
                    queue.append(w)
        if y not in prev:
            return False
        v = y
        while v != x:
            pv, eid, d = prev[v]
            if used.get(eid) == -d:
                del used[eid]
            else:
                used[eid] = d
            v = pv
        return True

    for _ in range(2):
        if not augment():
            raise StructuralError(
                f"no two edge-disjoint paths between {x} and {y}"
            )

    # Decompose the 2-unit flow into two simple paths.
    outgoing: dict[int, list[tuple[int, int, int]]] = {}
    for eid, d in sorted(used.items()):
        t, h = g.endpoints(eid)
        a, b = (t, h) if d == +1 else (h, t)
        outgoing.setdefault(a, []).append((eid, b, d))

    def extract() -> list[tuple[int, int]]:
        verts = [x]
        steps: list[tuple[int, int]] = []
        v = x
        while v != y:
            eid, w, d = outgoing[v].pop(0)
            if w in verts:
                # drop the cycle portion; those edges stay consumed
                i = verts.index(w)
                verts = verts[: i + 1]
                steps = steps[:i]
            else:
                verts.append(w)
                steps.append((eid, d))
            v = w
        return steps

    return extract(), extract()
