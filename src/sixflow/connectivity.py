"""Structural subroutines: components, bridges, 2-edge-connectivity,
the partition at a bridge, and two edge-disjoint paths.

Everything here ignores edge orientation and is deterministic: ties are
broken by smallest edge id, then smallest vertex id.

Bridges, 2-edge-connectivity and the partition at a bridge come from one
iterative lowpoint DFS (Tarjan 1974) that also numbers the vertices in
preorder and counts subtree sizes. Every DFS subtree is then an interval of
the preorder, and a DFS root's interval is its whole component, so
connectivity, both sides of any bridge, and so the most balanced bridge,
are read off that one pass.
"""

from __future__ import annotations

from collections import deque
from typing import Optional

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


def _lowpoint_dfs(
    g: Multigraph,
) -> tuple[list[int], list[int], list[int], list[tuple[int, int, int]]]:
    """One iterative lowpoint DFS over g, orientation ignored.

    Returns (order, disc, size, cut). ``order`` lists the vertices in
    preorder and ``disc[v]`` is v's index in it. ``size[v]`` counts v's DFS
    subtree, which is the interval ``order[disc[v] : disc[v] + size[v]]``;
    a DFS root's interval is its whole component. ``cut`` holds one
    (edge id, child, root) triple per bridge: the bridge's endpoint farther
    from the root of its DFS tree, and that root.

    Skipping only the single entering edge (by id, not by endpoint pair)
    makes parallel edges behave as back edges, so no parallel edge is ever
    reported. Loops are never bridges and are skipped outright.
    """
    adj = g.undirected_adj()
    n = g.n
    disc = [-1] * n
    low = [0] * n
    size = [0] * n
    order: list[int] = []
    cut: list[tuple[int, int, int]] = []
    timer = 0
    for s in range(n):
        if disc[s] != -1:
            continue
        disc[s] = low[s] = timer
        timer += 1
        order.append(s)
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
                    order.append(w)
                    stack.append((w, eid, iter(adj[w])))
                    advanced = True
                    break
                if disc[w] < low[v]:
                    low[v] = disc[w]
            if not advanced:
                stack.pop()
                size[v] = timer - disc[v]
                if stack:
                    pv = stack[-1][0]
                    if low[v] < low[pv]:
                        low[pv] = low[v]
                    if low[v] > disc[pv]:
                        cut.append((pe, v, s))
    return order, disc, size, cut


def bridges(g: Multigraph) -> frozenset[int]:
    """All cut-edges, via the lowpoint DFS."""
    return frozenset(eid for eid, _, _ in _lowpoint_dfs(g)[3])


def is_2_edge_connected(g: Multigraph) -> bool:
    """Connected (a single vertex counts) with no bridge. Loops are irrelevant."""
    _, _, size, cut = _lowpoint_dfs(g)
    return not cut and (g.n == 0 or size[0] == g.n)


def require_2_edge_connected(g: Multigraph) -> None:
    """Raise StructuralError naming a disconnection or a bridge."""
    order, _, size, cut = _lowpoint_dfs(g)
    if g.n and size[0] < g.n:
        small = frozenset(order[:size[0]])  # vertex 0's component
        raise StructuralError(
            f"graph is disconnected: vertices {sorted(small)} form a separate component",
            component=small,
        )
    if cut:
        eid = min(eid for eid, _, _ in cut)
        t, h = g.endpoints(eid)
        raise StructuralError(
            f"graph has a bridge: edge {eid} ({t}, {h})", bridge=eid
        )


def partition_at_bridge(
    g: Multigraph, u: int, gu: Multigraph
) -> Optional[tuple[int, frozenset[int], frozenset[int]]]:
    """Split V(G) minus u at the most balanced bridge of ``gu`` = G - u.

    Returns None when gu has no bridge. Otherwise returns (eid, V1, V2): V2
    is the side of e's head within its component of G - u, V1 the rest of
    V(G) - u, so e is the only G - u edge between the sides. Components of
    G - u containing neither endpoint of e land in V1. The bridge minimises
    max(|V1|, |V2|), ties going to the smallest edge id.

    One lowpoint DFS gives both sides: the bridge's child side is the
    child's preorder interval, and its component is its DFS root's.
    """
    order, disc, size, cut = _lowpoint_dfs(gu)
    if not cut:
        return None
    n = gu.n

    def balance(bridge: tuple[int, int, int]) -> tuple[int, int]:
        eid, child, root = bridge
        k = size[child] if gu.endpoints(eid)[1] == child else size[root] - size[child]
        return max(k, n - k), eid  # k = |V2|

    eid, child, root = min(cut, key=balance)
    lo, hi = disc[child], disc[child] + size[child]
    if gu.endpoints(eid)[1] == child:
        head = order[lo:hi]
    else:
        head = order[disc[root]:lo] + order[hi:disc[root] + size[root]]
    v2 = frozenset([v + (v >= u) for v in head])  # undo delete_vertex relabelling
    v1 = frozenset(range(g.n)).difference(v2, (u,))
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

    # One cursor per vertex, shared by both walks: an edge is used once.
    cursor = {v: iter(out) for v, out in outgoing.items()}

    def extract() -> list[tuple[int, int]]:
        verts = [x]
        pos = {x: 0}  # vertex -> index in verts
        steps: list[tuple[int, int]] = []
        v = x
        while v != y:
            eid, w, d = next(cursor[v])
            i = pos.get(w)
            if i is not None:
                # drop the cycle portion; those edges stay consumed
                for z in verts[i + 1:]:
                    del pos[z]
                del verts[i + 1:]
                del steps[i:]
            else:
                pos[w] = len(verts)
                verts.append(w)
                steps.append((eid, d))
            v = w
        return steps

    return extract(), extract()
