"""Recursive construction of a nowhere-zero Z2 x Z3 flow whose f2 component
vanishes on every edge at a chosen root vertex.

The recursion contracts pieces of the graph, solves the smaller instance,
then extends the flow back over the contracted edges. Two cases:

* cut case - the graph minus the root has a bridge; the most balanced one,
  e, splits the rest of the edges into two sides (the larger side as small
  as possible, so a cycle recurses only logarithmically deep). Each side is
  contracted away in turn, and the two sub-flows are glued along e
  (negating one f3 component if they disagree).
* bridgeless case - pick two root edges into the same component of G - root,
  join their far endpoints by two edge-disjoint paths, contract the path
  union H together with the root-to-H edges in one contraction, solve, and
  extend back in stages: nonzero f3 on the parallel root edges, f3 by
  conservation on the path union, then f2 = 1 on the whole path union
  (every path-union vertex has even degree, so mod-2 conservation
  survives). The extension and its checks read only the edges at the root
  and at H.

Each step reads G - root once: ``delete_vertex`` keeps G's vertex ids
(the root stays as an isolated vertex, so nothing is renumbered), and one
lowpoint DFS of it, ``partition_at_bridge``, picks the case. It gives the
most balanced bridge, or, when there is none, the component of each vertex,
over which the bridgeless case counts the root edges.

Recursion is driven by an explicit stack of generators, so depth is bounded
only by memory, never by the interpreter call stack.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain
from typing import Iterable, Optional, Sequence, Union

from .connectivity import (
    bridges,  # not called here; perfbench/spans.py patches it by this name
    components,  # not called here either; patched by name the same way
    is_2_edge_connected,
    partition_at_bridge,
    require_2_edge_connected,
    two_edge_disjoint_paths,
)
from .errors import InputError, InternalCheckError
from .flows import GroupFlow, negate_f3, verify_flow, verify_rooted
from .multigraph import Multigraph


@dataclass(frozen=True)
class BaseStep:
    depth: int
    loop_edges: int


@dataclass(frozen=True)
class CutStep:
    depth: int
    bridge: int
    side_sizes: tuple[int, int]
    contracted_sizes: tuple[int, int]


@dataclass(frozen=True)
class BridgelessStep:
    depth: int
    root_edges: tuple[int, int]
    contracted_sizes: tuple[int, int]


Step = Union[BaseStep, CutStep, BridgelessStep]


@dataclass
class ConstructionTrace:
    """Audit log of the recursion: one record per instance solved."""

    steps: list[Step] = field(default_factory=list)

    @property
    def depth(self) -> int:
        return max((s.depth for s in self.steps), default=0)


def _check(cond: bool, message: str) -> None:
    if not cond:
        raise InternalCheckError(message)


def solve(
    g: Multigraph, u: int, debug: bool = False
) -> tuple[GroupFlow, ConstructionTrace]:
    """Construct a nowhere-zero Z2 x Z3 flow on g with f2 = 0 across delta(u).

    Deterministic in (g, u). Raises StructuralError naming a bridge or a
    disconnection when g is not 2-edge-connected. With debug=True every
    intermediate flow is re-verified and every recursed instance is checked
    for 2-edge-connectivity.
    """
    g._check_vertex(u)
    require_2_edge_connected(g)
    trace = ConstructionTrace()

    # Trampoline: each task is a generator that yields subinstances and
    # receives their flows back, so recursion depth costs no call stack.
    stack = [_solve_task(g, u, 0, trace, debug)]
    result: Optional[GroupFlow] = None
    while stack:
        try:
            child = stack[-1].send(result)
        except StopIteration as done:
            stack.pop()
            result = done.value
        else:
            stack.append(child)
            result = None
    assert result is not None
    if debug:
        _check(verify_rooted(g, u, result), "final flow fails the rooted check")
    return result, trace


def _solve_task(g: Multigraph, u: int, depth: int, trace, debug: bool):
    if g.n == 1:
        # Base case: every edge is a loop; (0, 1) is nonzero with f2 = 0.
        trace.steps.append(BaseStep(depth=depth, loop_edges=g.m))
        return {eid: (0, 1) for eid in g.edge_ids}
    gu = g.delete_vertex(u)
    cut, comp = partition_at_bridge(gu, u)
    if cut is not None:
        flow = yield from _cut_case(g, u, cut, depth, trace, debug)
    else:
        flow = yield from _bridgeless_case(g, u, gu, comp, depth, trace, debug)
    if debug:
        _check(verify_rooted(g, u, flow), f"flow fails the rooted check at depth {depth}")
    return flow


def _cut_case(g, u, cut, depth, trace, debug):
    eid, side1, side2 = cut
    # Side label per vertex: 0 at the root, 1 or 2 on a side. An edge's
    # labels OR-ed give its bucket; 3 means it crosses the partition.
    side = [0] * g.n
    for v in side1:
        side[v] = 1
    for v in side2:
        side[v] = 2
    buckets: tuple[list[int], ...] = ([], [], [], [])
    for other, (t, h) in g.arcs():
        buckets[side[t] | side[h]].append(other)
    _check(buckets[3] == [eid], "cut-case edge crosses the partition")
    e1 = buckets[1] + buckets[0]  # loops at the root ride with side 1
    e2 = buckets[2]

    g1, image1 = g.contract(e1)
    g2, image2 = g.contract(e2)
    r1 = image1[u]
    r2 = image2[u]
    _check(g1.n == len(side2) + 1, "side 1 did not contract to a single vertex")
    _check(g2.n == len(side1) + 1, "side 2 did not contract to a single vertex")
    _check(g1.n < g.n and g2.n < g.n, "cut case failed to shrink the instance")
    if debug:
        _check(is_2_edge_connected(g1) and is_2_edge_connected(g2),
               "cut-case contraction broke 2-edge-connectivity")
    trace.steps.append(CutStep(
        depth=depth, bridge=eid, side_sizes=(len(side1), len(side2)),
        contracted_sizes=(len(e1), len(e2)),
    ))

    fa = yield _solve_task(g1, r1, depth + 1, trace, debug)  # covers e2 + {eid}
    fb = yield _solve_task(g2, r2, depth + 1, trace, debug)  # covers e1 + {eid}

    _check(fa[eid][0] == 0 == fb[eid][0],
           "cut edge carries nonzero f2 from a subflow")
    if fa[eid][1] != fb[eid][1]:
        fa = negate_f3(fa)
    _check(fa[eid][1] == fb[eid][1] != 0, "cut edge f3 values failed to align")
    flow = fb
    flow.update(fa)
    return flow


def _bridgeless_case(g, u, gu, comp, depth, trace, debug):
    """Contract H (the path union) and the spokes (the root edges into H)
    in one contraction, solve the smaller instance, then extend back.

    ``gu`` is G - u in G's vertex ids and ``comp`` labels its components,
    both from the step's one DFS. Besides the paths in G - u, one scan of
    G's edges finds the root edges and the loops, and one contraction
    builds the child instance. Every other pass reads only the edges at u
    and at H's vertices, since the extension changes no value elsewhere.
    The intermediate graph G/H is built only in debug mode, to re-verify it.
    """
    root_edges = []  # (edge id, far endpoint) for non-loop edges at u, ascending id
    root_loops = []
    other_loops = []  # (edge id, vertex) for loops away from u
    for eid, (t, h) in g.arcs():
        if t == h:
            if t == u:
                root_loops.append(eid)
            else:
                other_loops.append((eid, t))
        elif t == u or h == u:
            root_edges.append((eid, h if t == u else t))
    spokes_per_comp = [0] * g.n  # indexed by component label
    for eid, w in root_edges:
        spokes_per_comp[comp[w]] += 1
    _check(bool(root_edges) and all(
        spokes_per_comp[v] >= 2 for v in range(g.n) if comp[v] == v != u),
        "a component of G - root has fewer than two edges to the root")

    e_first, x = root_edges[0]
    target_comp = comp[x]
    e_second, x2 = next(
        ((eid, w) for eid, w in root_edges[1:] if comp[w] == target_comp),
        (-1, -1),
    )
    _check(e_second >= 0, "no second root edge into the chosen component")

    p1, p2 = two_edge_disjoint_paths(gu, x, x2)  # both empty when x == x2
    path_edges = frozenset(eid for eid, _ in p1 + p2)
    h_vertices = {x, x2}
    deg = {}
    for eid in path_edges:
        for v in g.endpoints(eid):
            h_vertices.add(v)
            deg[v] = deg.get(v, 0) + 1
    _check(all(d % 2 == 0 for d in deg.values()),
           "path union has a vertex of odd degree")
    _check(u not in h_vertices, "path union touches the root")

    spokes = frozenset(eid for eid, w in root_edges if w in h_vertices)
    _check(len(spokes) >= 2, "fewer than two root edges reach the path union")

    image = g.merge_image(path_edges)  # vertex images under G -> G/H
    hub = image[x]
    _check(all(image[v] == hub for v in h_vertices),
           "path union did not contract to a single vertex")
    u_in_1 = image[u]
    _check(u_in_1 != hub, "root merged into the path union")
    for eid in spokes:
        t, h = g.endpoints(eid)
        _check({image[t], image[h]} == {u_in_1, hub}, "spoke edges are not a parallel class")

    # G/H/spokes in one contraction: same vertex numbering and edge order as
    # contracting H first and the spokes second.
    g2, image2 = g.contract(path_edges | spokes)
    u2 = image2[u]
    _check(g2.n < g.n, "bridgeless case failed to shrink the instance")
    if debug:
        g1, _ = g.contract(path_edges)
        _check(is_2_edge_connected(g1) and is_2_edge_connected(g2),
               "bridgeless-case contraction broke 2-edge-connectivity")
    trace.steps.append(BridgelessStep(
        depth=depth, root_edges=(e_first, e_second),
        contracted_sizes=(len(path_edges), len(spokes)),
    ))

    # Edges of G at H other than the spokes: those leaving H (signed +1 into
    # H), and those inside H but off the paths (loops at H's image in G/H).
    adj = gu.undirected_adj()
    crossing: list[tuple[int, int]] = []
    inner: list[int] = []
    for v in h_vertices:
        for eid, w in adj[v]:
            if w not in h_vertices:
                crossing.append((eid, 1 if gu.endpoints(eid)[1] == v else -1))
            elif eid not in path_edges:
                inner.append(eid)
    inner.extend(eid for eid, v in other_loops if v in h_vertices)

    flow = yield _solve_task(g2, u2, depth + 1, trace, debug)

    # Stage 1: nonzero f3 across the parallel spoke class, f2 = 0 there.
    residual = sum(sign * flow[eid][1] for eid, sign in crossing)
    ordered = sorted(spokes)
    signs = [1 if g.endpoints(eid)[1] in h_vertices else -1 for eid in ordered]
    values = extend_nonzero_parallel((-residual) % 3, len(ordered), signs)
    for eid, val in zip(ordered, values):
        flow[eid] = (0, val)

    if debug:
        _check(verify_flow(g1, flow), "spoke extension broke conservation")
    at_h = [eid for eid, _ in crossing] + inner
    at_root = chain((eid for eid, _ in root_edges), root_loops)
    _check(all(flow[eid][0] == 0 for eid in chain(at_root, at_h)),
           "f2 support touches the root or the contracted path vertex")

    # Stage 2: f3 over the path union by conservation, then f2 = 1 on it.
    # Conservation at H's vertices involves only the edges at H.
    if path_edges:
        f3_known = {eid: flow[eid][1] for eid in chain(spokes, at_h)}
        h_graph = Multigraph(g.n, {
            eid: g.endpoints(eid) for eid in sorted(path_edges.union(f3_known))
        })
        f3_full = extend_flow_over_contraction(h_graph, path_edges, f3_known)
        for eid in path_edges:
            flow[eid] = (1, f3_full[eid])
    _check(all(flow[eid][1] != 0 for eid in spokes), "a spoke edge lost its f3 value")
    if debug:
        _check(verify_flow(g, flow), "path-union extension broke conservation")
    return flow


def extend_nonzero_parallel(
    d: int, k: int, orientations: Sequence[int]
) -> list[int]:
    """Nonzero mod-3 values for k >= 2 parallel edges with given signed sum.

    orientations holds +1/-1 per edge; the returned values v satisfy
    sum(sign * v) = d (mod 3) with every v in {1, 2}. Deterministic: in the
    sign-normalised view all values start at 1 and the first few flip to 2.
    """
    if k < 2:
        raise InputError("need at least two parallel edges to stay nonzero")
    if len(orientations) != k:
        raise InputError("orientation count does not match edge count")
    w = [1] * k
    delta = (d - k) % 3
    if delta == 1:
        w[0] = 2
    elif delta == 2:
        w[0] = 2
        w[1] = 2
    return [v if s > 0 else 3 - v for v, s in zip(w, orientations)]


def extend_flow_over_contraction(
    g: Multigraph,
    contracted: Iterable[int],
    known: dict[int, int],
) -> dict[int, int]:
    """Extend a mod-3 flow on G/S to all of G.

    ``known`` must cover every edge of g outside S, and no edge of S, and
    form a flow on G/S. The S-edges are fixed through a spanning forest of
    (V, S): every S-edge starts at 0, which loops and non-tree edges keep,
    and tree edges are forced leaf-upward by conservation. Assigned values
    may legitimately be zero. Only the excess at S's endpoints is read, so
    g may hold just the edges at those vertices; ``known`` then needs to
    conserve only at the vertices of G/S that S's components contract to.
    """
    contracted = frozenset(contracted)
    total = dict(known)

    exc = [0] * g.n
    for eid, (t, h) in g.arcs():
        if t == h or eid in contracted:
            continue
        val = total[eid]
        exc[h] += val
        exc[t] -= val

    adj: dict[int, list[tuple[int, int]]] = {}
    for eid in sorted(contracted):
        total[eid] = 0
        t, h = g.endpoints(eid)
        if t != h:
            adj.setdefault(t, []).append((eid, h))
            adj.setdefault(h, []).append((eid, t))
    # BFS from the smallest vertex of each part of (V, S), reading ``order``
    # as it grows; then force that part's tree edges leaf-upward, each entry
    # being (vertex, edge to its parent).
    seen: set[int] = set()
    for start in sorted(adj):
        if start in seen:
            continue
        seen.add(start)
        order = [(start, -1)]
        for v, _ in order:
            for eid, w in adj[v]:
                if w not in seen:
                    seen.add(w)
                    order.append((w, eid))
        for v, eid in reversed(order[1:]):
            t, h = g.endpoints(eid)
            sign = 1 if h == v else -1
            val = (-sign * exc[v]) % 3
            total[eid] = val
            exc[h] += val
            exc[t] -= val
        _check(exc[start] % 3 == 0,
               "contracted component has nonzero total excess")
    return total
