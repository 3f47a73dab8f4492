"""Structural subroutines: components, bridges, 2-edge-connectivity,
the 2-edge-connected blocks of G - u, at least one even, connected part
per component of G - u, each with the BFS tree of the walk that finds it,
and the even edge set through two vertices that a redone component's
T-join avoids.

Everything here ignores edge orientation and is deterministic: ties are
broken by smallest edge id, then smallest vertex id.

Bridges, 2-edge-connectivity and the blocks come from one iterative
lowpoint DFS (Tarjan 1974) that also lists the vertices in preorder and
counts subtree sizes. Every DFS subtree is then an interval of the
preorder, and a DFS root's interval is its whole component, so
connectivity, the component of every vertex and the block of every vertex
are read off that one pass. The recursion runs it once per step, on G
itself with the root skipped: G - u is never copied, and every function
that works on G - u reads G's own adjacency and ignores the entries that
lead to u. ``components`` reads the DFS roots' intervals; the recursion
does not use it.
"""

from __future__ import annotations

from collections import deque
from itertools import accumulate
from typing import AbstractSet, Optional

from .errors import InternalCheckError, StructuralError
from .multigraph import Multigraph


def components(g: Multigraph) -> list[frozenset[int]]:
    """Connected components (orientation ignored), ordered by smallest vertex.

    Each is a DFS root's preorder interval, and the lowpoint DFS takes its
    roots in increasing vertex order.
    """
    order, size, _ = _lowpoint_dfs(g)
    out = []
    i = 0
    while i < g.n:
        end = i + size[order[i]]
        out.append(frozenset(order[i:end]))
        i = end
    return out


def _lowpoint_dfs(
    g: Multigraph, skip: Optional[int] = None
) -> tuple[list[int], list[int], list[tuple[int, int]]]:
    """One iterative lowpoint DFS over g, orientation ignored.

    Returns (order, size, cut). ``order`` lists the vertices in preorder.
    ``size[v]`` counts v's DFS subtree, which is the interval of ``order``
    of that length starting at v; a DFS root's interval is its whole
    component. ``cut`` holds one (edge id, child) pair per bridge, the child
    being the bridge's endpoint farther from the root of its DFS tree.

    With ``skip`` = u the DFS is one of G - u, read in place: u is its own
    one-vertex tree, taken in its turn, and every edge at u is ignored.
    G's adjacency lists are those of G - u with the entries at u mixed in,
    in the same id order, so the result is the DFS of a copy of G - u.

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
    cut: list[tuple[int, int]] = []
    if skip is not None:
        # Found, so never entered; above every preorder time, so never a
        # back edge that lowers a lowpoint.
        disc[skip] = n
    timer = 0
    for s in range(n):
        if disc[s] != -1:
            if s == skip:
                order.append(s)
                size[s] = 1
                timer += 1
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
                        cut.append((pe, v))
    return order, size, cut


def bridges(g: Multigraph) -> frozenset[int]:
    """All cut-edges, via the lowpoint DFS."""
    return frozenset(eid for eid, _ in _lowpoint_dfs(g)[2])


def is_2_edge_connected(g: Multigraph) -> bool:
    """Connected (a single vertex counts) with no bridge. Loops are irrelevant."""
    _, size, cut = _lowpoint_dfs(g)
    return not cut and (g.n == 0 or size[0] == g.n)


def require_2_edge_connected(g: Multigraph) -> None:
    """Raise StructuralError naming a disconnection or a bridge."""
    order, size, cut = _lowpoint_dfs(g)
    if g.n and size[0] < g.n:
        small = frozenset(order[:size[0]])  # vertex 0's component
        raise StructuralError(
            f"graph is disconnected: vertices {sorted(small)} form a separate component",
            component=small,
        )
    if cut:
        eid = min(eid for eid, _ in cut)
        t, h = g.endpoints(eid)
        raise StructuralError(
            f"graph has a bridge: edge {eid} ({t}, {h})", bridge=eid
        )


def partition_at_bridge(
    g: Multigraph, u: int
) -> tuple[Optional[list[int]], list[int], bool]:
    """Label the 2-edge-connected blocks and the components of G - u, and
    tell whether G itself is 2-edge-connected.

    G - u is read inside G, in G's vertex ids (``_lowpoint_dfs`` with
    ``skip=u``). Returns (block, comp, whole). ``comp[v]`` labels v's
    component of G - u by its smallest vertex; u is its own component.
    ``block`` is None when G - u has no bridge. Otherwise ``block[v]`` is
    the preorder position, in the lowpoint DFS, of the first vertex of v's
    block: the component of v in G - u minus its bridges. A block's parent
    block, across the bridge nearer the root of its DFS tree, has a smaller
    label.

    ``whole`` is True exactly when G is 2-edge-connected: every component
    of G - u has at least two root edges (the non-loop edges at u), and
    every bridge of G - u has root edges on both of its sides. Otherwise one
    edge, or none, cuts a component or one side of a bridge off from u.

    One pass over the preorder gives all three, with a stack of open subtree
    intervals: one opens at each DFS root and at each bridge's child, and a
    vertex takes its block from the innermost and its component from the
    outermost. The root edges into an interval are a difference of prefix
    sums over the preorder.
    """
    order, size, cut = _lowpoint_dfs(g, u)
    starts = [False] * g.n  # v is a bridge's child
    for _, child in cut:
        starts[child] = True
    spokes = [0] * g.n  # root edges per vertex
    for _, w in g.undirected_adj()[u]:
        spokes[w] += 1
    before = list(accumulate([spokes[v] for v in order], initial=0))  # at order[:i]
    whole = True
    comp = [0] * g.n
    block = [0] * g.n
    intervals = []  # (end, label) of the subtree intervals that hold position i
    for i, v in enumerate(order):
        while intervals and intervals[-1][0] <= i:
            intervals.pop()
        if not intervals or starts[v]:
            reach = before[i + size[v]] - before[i]
            if not intervals:  # a component of G - u, or u itself
                total = reach
                whole = whole and (reach >= 2 or v == u)
            else:  # a bridge's child side, within that component
                whole = whole and 0 < reach < total
            intervals.append((i + size[v], i))
        comp[v] = order[intervals[0][1]]  # DFS roots come in increasing vertex order
        block[v] = intervals[-1][1]
    return (block if cut else None), comp, whole


def even_parts(
    g: Multigraph, u: int, comp: list[int], root_edges: list[tuple[int, int]]
) -> tuple[list[tuple[list[tuple[int, int]], frozenset[int]]], int]:
    """Disjoint even, connected parts of G - u that two root edges reach,
    at least one per component, and how many components were redone.

    G - u is read inside G. ``comp`` labels its components (as
    ``partition_at_bridge`` returns them), and ``root_edges`` lists the
    (edge id, far endpoint) of every non-loop edge at u, ascending by id.
    A part is a connected component K of C - J, for some component C of
    G - u, that at least two root edges reach; it is returned as the
    ``walk_part`` (tree, edges) of K from its smallest vertex, the walk
    that finds K. Components come in the order of their first root edge,
    the parts of each by smallest vertex.

    J is a T-join of C's odd vertices (Edmonds-Johnson 1973), so C - J is
    even. It is built over a BFS forest of C from x1, the far end of C's
    first root edge, neighbours by edge id. Walking in BFS order, each odd
    vertex first takes the first edge, by id, to an odd neighbour into J.
    Each vertex still odd then toggles its parent tree edge in J,
    leaf-upward, which makes each tree's root even as well. Every pass is
    linear in C but the sort of its vertices.

    A component that gives no part is redone once with J kept off P, the
    union of two edge-disjoint paths from x1 to x2, the far end of C's
    second root edge: the forest and the pairing skip P's edges, and a new
    tree grows from each vertex the earlier trees missed, in the first
    pass's BFS order. P is even at every vertex, so every component of
    C - E(P) holds an even number of C's odd vertices, and every tree's root
    ends even. C - J then contains P, so the piece that holds x1 holds x2.
    """
    adj = g.undirected_adj()
    spokes = [0] * g.n  # root edges per vertex
    ends: dict[int, list[int]] = {}  # component label -> far ends of its root edges, by id
    for _, w in root_edges:
        spokes[w] += 1
        ends.setdefault(comp[w], []).append(w)
    odd = [False] * g.n  # in G - u, then in G - u - J
    up = [-1] * g.n  # BFS forest edge to the parent
    seen = [False] * g.n  # reached by the BFS
    placed = [False] * g.n  # walked into a part
    seen[u] = placed[u] = True  # so no walk enters u
    cut = {eid for eid, _ in root_edges}  # the edges no part walk follows: these and J
    parts = []
    redone = 0
    for x1, x2, *_ in ends.values():
        p = frozenset()  # the edges the forest and the pairing skip
        order = [x1]
        for again in (False, True):
            roots, order = order, []  # a redo's roots are the first pass's order
            for r in roots:
                if seen[r]:
                    continue
                seen[r] = True
                up[r] = -1
                tree = [r]
                for v in tree:
                    odd[v] = (len(adj[v]) - spokes[v]) % 2 == 1
                    for eid, w in adj[v]:
                        if not seen[w] and eid not in p:
                            seen[w] = True
                            up[w] = eid
                            tree.append(w)
                order += tree
            join = set()  # J
            for v in order:
                if odd[v]:
                    for eid, w in adj[v]:
                        if odd[w] and eid not in p:
                            join.add(eid)
                            odd[v] = odd[w] = False
                            break
            for v in reversed(order):
                if odd[v]:
                    eid = up[v]
                    if eid < 0:
                        raise InternalCheckError("a forest root is left odd")
                    join ^= {eid}
                    t, h = g.endpoints(eid)
                    odd[t] ^= True
                    odd[h] ^= True
            cut |= join
            found = len(parts)
            for r in sorted(order):
                if not placed[r]:
                    tree, edges = walk_part(adj, r, cut, placed)
                    if sum(spokes[v] for v, _ in tree) >= 2:
                        parts.append((tree, edges))
            if len(parts) > found:
                break
            if again:
                raise InternalCheckError("a redone component gives no part")
            redone += 1
            p = two_edge_disjoint_paths(g, x1, x2, skip=u)
            for v in order:
                seen[v] = placed[v] = False
            cut -= join
    return parts, redone


def walk_part(adj: list[list[tuple[int, int]]], start: int, cut: AbstractSet[int],
              placed: list[bool]) -> tuple[list[tuple[int, int]], frozenset[int]]:
    """One BFS from the unplaced ``start`` along every edge not in ``cut``,
    neighbours in edge-id order: (tree, edges), the tree as (vertex, edge
    to its parent) in BFS order from (start, -1), and the edges followed.
    It enters no ``placed`` vertex and places every vertex it enters.
    Raises InternalCheckError if a walked vertex has odd degree in them.
    """
    tree = [(start, -1)]  # read as it grows
    placed[start] = True
    edges = set()
    for v, _ in tree:
        odd = False
        for eid, w in adj[v]:
            if eid not in cut:
                odd = not odd
                edges.add(eid)
                if not placed[w]:
                    placed[w] = True
                    tree.append((w, eid))
        if odd:
            raise InternalCheckError("a part has a vertex of odd degree")
    return tree, frozenset(edges)


def two_edge_disjoint_paths(
    g: Multigraph, x: int, y: int, skip: Optional[int] = None
) -> frozenset[int]:
    """The edges of two edge-disjoint x-y paths, as one set of edge ids.

    Orientation is ignored. With ``skip`` = u the paths are those of G - u,
    read inside G: no search enters u. The set is connected, holds x and y,
    and gives every vertex even degree; it is empty when x == y. Raises
    StructuralError when no two edge-disjoint paths exist.

    Unit-capacity augmenting-path search: each edge is usable once in either
    direction, a used edge may be cancelled by the second search. The
    support of the resulting 2-unit flow can also carry a cycle that x does
    not reach, so only x's component of the support is returned.
    """
    g._check_vertex(x)
    g._check_vertex(y)
    if x == y:
        return frozenset()
    adj = g.undirected_adj()
    used: dict[int, int] = {}  # eid -> the vertex the flow leaves it from

    def augment() -> bool:
        prev: dict[int, tuple[int, int]] = {x: (-1, -1)}
        if skip is not None:
            prev[skip] = (-1, -1)  # seen already, so never entered
        queue = deque([x])
        while queue and y not in prev:
            v = queue.popleft()
            for eid, w in adj[v]:
                if w not in prev and used.get(eid, w) == w:
                    prev[w] = (v, eid)  # set once, so stopping here keeps the path
                    if w == y:
                        break
                    queue.append(w)
        if y not in prev:
            return False
        w = y
        while w != x:
            v, eid = prev[w]
            if used.get(eid) == w:
                del used[eid]
            else:
                used[eid] = v
            w = v
        return True

    for _ in range(2):
        if not augment():
            raise StructuralError(
                f"no two edge-disjoint paths between {x} and {y}"
            )

    at: dict[int, list[int]] = {}  # vertex -> its neighbours along used edges
    for eid in used:
        t, h = g.endpoints(eid)
        at.setdefault(t, []).append(h)
        at.setdefault(h, []).append(t)
    reached = {x}
    stack = [x]
    while stack:
        for w in at[stack.pop()]:
            if w not in reached:
                reached.add(w)
                stack.append(w)
    return frozenset(eid for eid, v in used.items() if v in reached)
