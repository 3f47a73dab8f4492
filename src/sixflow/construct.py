"""Recursive construction of a nowhere-zero Z2 x Z3 flow whose f2 component
vanishes on every edge at a chosen root vertex.

The recursion contracts pieces of the graph, solves the smaller instance,
then extends the flow back over the contracted edges. Two cases:

* cut case - the graph minus the root has a bridge; the most balanced one,
  e, splits the rest of the edges into two sides (the larger side as small
  as possible, so a cycle recurses only logarithmically deep). Each side is
  contracted away in turn, and the two sub-flows are glued along e
  (negating one f3 component if they disagree).
* bridgeless case - in every component C of G - root, take parts: the
  connected components of C - J, for J a T-join of C's odd vertices, that
  at least two root edges reach (``even_parts``). Each part is connected
  and even at every vertex; a component with no such part falls back to
  the union of two edge-disjoint paths between the far ends of its first
  two root edges. Contract every part together with its root edges (its
  spokes) in one contraction, solve, and extend back in two stages, part
  by part. One pass over the child's edges at the parts gives the f3
  excess at each part vertex, and each part's spokes get nonzero f3 that
  cancels the part's total. Then f3 on the part follows by conservation,
  forced leaf-upward over one BFS tree of it, and f2 = 1 on the whole part
  (every vertex has even degree in it, so mod-2 conservation survives).
  The extension and its checks read only the edges at the root and at the
  parts. On ear graphs, grids and doubled cycles a part swallows most of
  its component, so the recursion is a few levels deep.

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
from typing import Optional, Sequence, Union

from .connectivity import (
    bridges,  # not called here; perfbench/spans.py patches it by this name
    components,  # not called here either; patched by name the same way
    even_parts,
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
    root_edges: tuple[int, int]  # the first part's first two spokes
    contracted_sizes: tuple[int, int]  # (part edges, spokes), over every part
    parts: int
    fallbacks: int  # parts that are path unions


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


def _choose_parts(gu, comp, root_edges):
    """The parts one bridgeless step contracts, and how many are fallbacks.

    ``even_parts`` gives the even parts of each component of G - u. A
    component that gives none falls back to the union of two edge-disjoint
    paths between the far ends of its first two root edges, listed last.
    Every part is (vertices, edges); a fallback lists only those two ends
    and its edges.
    """
    parts = even_parts(gu, comp, root_edges)
    covered = {comp[verts[0]] for verts, _ in parts}
    pairs: dict[int, list[int]] = {}  # component label -> far ends of its root edges, by id
    for _, w in root_edges:
        if comp[w] not in covered:
            pairs.setdefault(comp[w], []).append(w)
    for x, x2, *_ in pairs.values():
        parts.append(([x, x2], two_edge_disjoint_paths(gu, x, x2)))
    return parts, len(pairs)


def _bridgeless_case(g, u, gu, comp, depth, trace, debug):
    """Contract every part (``_choose_parts``) together with its spokes, the
    root edges into it, in one contraction, solve the smaller instance, then
    extend back part by part.

    ``gu`` is G - u in G's vertex ids and ``comp`` labels its components,
    both from the step's one DFS. The parts are disjoint, connected, free of
    u, even at every vertex, and reached by at least two spokes each; the
    always-on checks below hold the chooser to that. Besides the chooser,
    one scan of G's edges finds the root edges and the loops, and one
    contraction builds the child instance, in which every part and u are
    one vertex, the child's root. Every other pass reads only the edges at u
    and at the parts' vertices, since the extension changes no value
    elsewhere: before the child is solved, the ends at the parts of the
    edges it keeps are listed once; after it, one pass over them gives each
    part vertex's f3 excess, which the spokes' values and then the tree walk
    over each part cancel.
    The intermediate graph G/parts is built only in debug mode, to re-verify it.
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

    parts, fallbacks = _choose_parts(gu, comp, root_edges)
    vertex_sets = []
    where = {}  # part vertex -> index of its part
    contracted = set()  # every part's edges
    for i, (verts, edges) in enumerate(parts):
        deg = {}
        for eid in edges:
            for v in g.endpoints(eid):
                deg[v] = deg.get(v, 0) + 1
        _check(all(d % 2 == 0 for d in deg.values()),
               "path union has a vertex of odd degree")
        vs = set(verts).union(deg)
        _check(u not in vs, "path union touches the root")
        vertex_sets.append(vs)
        where.update(dict.fromkeys(vs, i))
        contracted |= edges
    _check(len(where) == sum(map(len, vertex_sets)), "contracted parts overlap")

    # Each part's spokes' ends at it, ascending by id: (edge id, part
    # vertex, +1 if the spoke enters the part there).
    spoke_ends = [[] for _ in parts]
    for eid, w in root_edges:
        if w in where:
            spoke_ends[where[w]].append((eid, w, 1 if g.endpoints(eid)[1] == w else -1))
    _check(all(len(ends) >= 2 for ends in spoke_ends),
           "fewer than two root edges reach the path union")
    spokes = frozenset(eid for ends in spoke_ends for eid, _, _ in ends)

    image = g.merge_image(contracted)  # vertex images under G -> G/parts
    u_in_1 = image[u]
    for vs, ends in zip(vertex_sets, spoke_ends):
        hub = image[min(vs)]
        _check(all(image[v] == hub for v in vs),
               "path union did not contract to a single vertex")
        _check(u_in_1 != hub, "root merged into the path union")
        for eid, _, _ in ends:
            t, h = g.endpoints(eid)
            _check({image[t], image[h]} == {u_in_1, hub},
                   "spoke edges are not a parallel class")

    # G/parts/spokes in one contraction: same vertex numbering and edge order
    # as contracting the parts first and the spokes second.
    g2, image2 = g.contract(contracted | spokes)
    u2 = image2[u]
    _check(g2.n < g.n, "bridgeless case failed to shrink the instance")
    if debug:
        g1, _ = g.contract(contracted)
        _check(is_2_edge_connected(g1) and is_2_edge_connected(g2),
               "bridgeless-case contraction broke 2-edge-connectivity")
    trace.steps.append(BridgelessStep(
        depth=depth, root_edges=(spoke_ends[0][0][0], spoke_ends[0][1][0]),
        contracted_sizes=(len(contracted), len(spokes)),
        parts=len(parts), fallbacks=fallbacks,
    ))

    # The ends at the parts of the edges the child keeps, as (edge id, part
    # vertex, +1 if the edge enters the part there); an edge with both ends
    # at parts has both its ends here. Loops at the parts carry no excess,
    # only an f2 to check.
    adj = gu.undirected_adj()
    ends = [(eid, v, 1 if gu.endpoints(eid)[1] == v else -1)
            for v in where for eid, _ in adj[v] if eid not in contracted]
    part_loops = [eid for eid, v in other_loops if v in where]

    flow = yield _solve_task(g2, u2, depth + 1, trace, debug)

    # Stage 1: the f3 excess at each part vertex, then per part nonzero f3
    # with f2 = 0 across its parallel spoke class, cancelling the part's
    # total excess.
    exc = dict.fromkeys(where, 0)
    for eid, v, sign in ends:
        exc[v] += sign * flow[eid][1]
    for vs, part_spokes in zip(vertex_sets, spoke_ends):
        values = extend_nonzero_parallel(
            -sum(exc[v] for v in vs) % 3, len(part_spokes),
            [sign for _, _, sign in part_spokes])
        for (eid, v, sign), val in zip(part_spokes, values):
            flow[eid] = (0, val)
            exc[v] += sign * val

    if debug:
        _check(verify_flow(g1, flow), "spoke extension broke conservation")
    at_root = chain((eid for eid, _ in root_edges), root_loops)
    at_parts = chain((eid for eid, _, _ in ends), part_loops)
    _check(all(flow[eid][0] == 0 for eid in chain(at_root, at_parts)),
           "f2 support touches the root or the contracted path vertex")

    # Stage 2: f2 = 1 on every part, and f3 on it by conservation. One BFS
    # tree per part, from its smallest vertex with neighbours in ascending
    # edge id (the order of ``adj``), is forced leaf-upward; every other
    # part edge keeps f3 = 0.
    flow.update(dict.fromkeys(contracted, (1, 0)))
    for vs in vertex_sets:
        start = min(vs)
        seen = {start}
        order = [(start, -1)]  # (vertex, edge to its parent), read as it grows
        for v, _ in order:
            for eid, w in adj[v]:
                if eid in contracted and w not in seen:
                    seen.add(w)
                    order.append((w, eid))
        for v, eid in reversed(order[1:]):
            t, h = g.endpoints(eid)
            val = (exc[v] if t == v else -exc[v]) % 3
            flow[eid] = (1, val)
            exc[h] += val
            exc[t] -= val
        _check(exc[start] % 3 == 0, "contracted component has nonzero total excess")
    _check(all(flow[eid][1] != 0 for eid in spokes), "a spoke edge lost its f3 value")
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
