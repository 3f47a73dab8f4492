"""Recursive construction of a nowhere-zero Z2 x Z3 flow whose f2 component
vanishes on every edge at a chosen root vertex.

First, on a graph with more than two vertices and m > 3n^2 edges, one pass
drops surplus parallel edges: the digon reduction that flow proofs take for
granted. It groups the edges by ordered (tail, head), loops included, and
a class of k >= 4 edges keeps its 2 + (k mod 2) smallest ids and drops the
rest, an even number. There are at most n^2 classes, so the gate
guarantees work by pigeonhole and the reduced graph has at most 3n^2 edges;
a sparser graph skips the pass and pays nothing for it. The dropped edges
of a class run the same way, so they cancel in consecutive pairs: (0, 1)
and (0, 2) in a class at the root, where f2 must be 0, and (1, 0) and
(1, 0) elsewhere. Every value is nonzero and each pair sums to zero at both
ends. Every reduced class keeps at least two edges, so a cut of one edge
or none in either graph holds no edge of a reduced class: it is the same
cut in both, and the reduced graph has G's vertex ids, bridges and
components, so a search of it for an error names what a search of G
would. The returned flow lists G's edges in id order, the order every
later layer reads it in.

Then one pass suppresses every vertex other than the root that has
degree 2 and no loop, the usual first reduction of nowhere-zero-flow
proofs (Seymour's 1981 proof among them). Each maximal chain x - ... - y
through such vertices becomes one edge (x, y), named by the chain's
smallest edge id and running as that edge runs; x = y gives a loop. The
reduced graph is solved, then each chain edge's (f2, f3) is copied onto
the chain: (f2, f3) on an edge that runs as the named one does, (f2, -f3)
on one that runs against it. Every interior vertex then has one edge in
and one out along the chain, so it conserves; a chain at the root is an
edge at the root, so it carries f2 = 0; and a chain is a bridge exactly
when its edge is, so the reduced graph is 2-edge-connected exactly when G
is. A step never changes the degree of a vertex other than its root, so
no deeper instance has a vertex to suppress and one pass is enough. A
cycle or a flower reduces to its root with loops and solves in one step,
and K2,n at a hub to two vertices.

The recursion contracts pieces of the graph, solves the smaller instances,
then extends the flow back over the contracted edges. An instance of at
most two vertices is solved directly: f2 = 0 everywhere, f3 = 1 on loops,
and nonzero f3 summing to zero on the parallel class between the two
vertices. Otherwise two cases:

* cut case - the graph minus the root has bridges. Each 2-edge-connected
  block B of G - root (Tarjan 1974) gives one child: B with the rest of
  the graph contracted into the root, built straight from the block labels
  in one pass over the edges. Every bridge is a root edge in both of its
  children, so both give it f2 = 0. The children are solved one after
  another down the block tree, and each is glued to the flow so far along
  the bridge to its parent block, negating the child's f3 if the two
  disagree: the paper's cut case, applied at every bridge at once.
* bridgeless case - in every component C of G - root, take parts: the
  connected components of C - J, for J a T-join of C's odd vertices, that
  at least two root edges reach (``even_parts``). Each part is connected
  and even at every vertex; a component with no such part is redone once,
  with J kept off a union of two edge-disjoint paths, which makes one.
  Contract every part together with its root edges (its
  spokes), all at once, building the child straight from the parts in one
  pass over the edges; solve, and extend back one part at a time. The
  child's edges at the parts give the f3 excess at each part vertex. A
  part's spokes get nonzero f3 that cancels the part's total; then f3 on
  the part follows by conservation, forced leaf-upward over the BFS tree
  of the one walk that found the part, and f2 = 1 on the whole part (every
  vertex has even degree in it, so mod-2 conservation survives). The
  extension changes only the edges at the root and parts.
  Ear graphs, doubled cycles and grids of three rows or more solve a few
  levels deep; a 2 x k grid does not, since only the first 4-cycle of each
  ladder is a part: 2 x 1,000 takes 500 steps, 499 deep (ROADMAP item 1).

Each step reads G - root inside G, with no copy and no renumbering: one
lowpoint DFS of G that skips the root, ``partition_at_bridge``, picks the
case. It gives the block of each vertex when there are bridges, and the
component of each vertex. The same DFS checks the instance: G is
2-edge-connected exactly when every component of G - root has two root
edges and every bridge of G - root has root edges on both of its sides.
The recursion is valid only on 2-edge-connected instances, and a
contraction of one is again one, so this is the one always-on check of
it, made at every step; an instance of two vertices reads it off its
parallel class. At the root a failed check means bad input, and only
then is the input graph searched again, for the error to name a bridge or
a component of it, not of the reduced graph; below the root it is an
internal fault. The suppression pass searches nothing: it reads degrees
off the cached adjacency, and only a chain that closes on itself, a
separate cycle, sends it to the same search.

Recursion is driven by an explicit stack of generators, so depth is bounded
only by memory, never by the interpreter call stack.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field, replace
from itertools import compress, repeat
from operator import not_
from typing import Optional, Sequence, Union

from ._collector import paused
# bridges, components and two_edge_disjoint_paths are not called here:
# perfbench/spans.py patches each of them by this name
from .connectivity import (bridges, components, even_parts, partition_at_bridge,
                           require_2_edge_connected, two_edge_disjoint_paths)
from .errors import InputError, InternalCheckError
from .flows import GroupFlow, negate_f3, verify_rooted
from .multigraph import Multigraph


@dataclass(frozen=True)
class BaseStep:
    depth: int
    loop_edges: int  # every edge of the instance: loops, and one parallel class


@dataclass(frozen=True)
class CutStep:
    depth: int
    blocks: int
    bridges: int


@dataclass(frozen=True)
class BridgelessStep:
    depth: int
    # the first part's first two spokes; parts come by component, in the
    # order of their first root edge, then by smallest vertex
    root_edges: tuple[int, int]
    contracted_sizes: tuple[int, int]  # (part edges, spokes), over every part
    parts: int
    fallbacks: int  # components redone with their T-join kept off a path union


Step = Union[BaseStep, CutStep, BridgelessStep]


@dataclass(frozen=True)
class Reduction:
    suppressed: int  # vertices of degree 2 suppressed
    chains: int  # edges of the reduced graph that stand for chains
    dropped: int = 0  # parallel edges dropped in cancelling pairs

    def __repr__(self) -> str:  # names ``dropped`` only when some were
        dropped = f", dropped={self.dropped}" if self.dropped else ""
        return f"Reduction(suppressed={self.suppressed}, chains={self.chains}{dropped})"


@dataclass
class ConstructionTrace:
    """Audit log of the recursion: one record per instance solved, and the
    reduction before it when the pair pass or the degree-2 suppression
    changed the graph."""

    steps: list[Step] = field(default_factory=list)
    reduction: Optional[Reduction] = None

    @property
    def depth(self) -> int:
        return max((s.depth for s in self.steps), default=0)


def _check(cond: bool, message: str) -> None:
    if not cond:
        raise InternalCheckError(message)


@paused
def solve(
    g: Multigraph, u: int, debug: bool = False
) -> tuple[GroupFlow, ConstructionTrace]:
    """Construct a nowhere-zero Z2 x Z3 flow on g with f2 = 0 across delta(u).

    Deterministic in (g, u). Raises StructuralError naming a bridge or a
    disconnection when g is not 2-edge-connected. Every recursed instance is
    checked for 2-edge-connectivity too, always, off the DFS its step runs
    anyway. With debug=True every instance's flow is re-verified, each
    bridgeless child is checked against ``contract``, and the flow expanded
    over the dropped edges and the suppressed chains is verified on g.
    """
    g._check_vertex(u)
    trace = ConstructionTrace()
    r, root_pairs = _drop_parallel_pairs(g, u)
    h, hu, chains = _suppress_degree_two(r, u, trace)
    if r is not g:
        trace.reduction = replace(trace.reduction or Reduction(0, 0), dropped=g.m - r.m)

    # Trampoline: each task is a generator that yields subinstances and
    # receives their flows back, so recursion depth costs no call stack.
    stack = [_solve_task(h, hu, 0, trace, debug, g)]
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
    for eid, name, same in chains:  # the name's own value is kept as it is
        pair = result[name]
        result[eid] = pair if same else (pair[0], -pair[1] % 3)
    if r is not g:
        flow = dict.fromkeys(g.edge_ids, (1, 0))
        flow.update(root_pairs)
        flow.update(result)
        result = flow
    if debug and trace.reduction is not None:
        _check(verify_rooted(g, u, result), "reduction's expanded flow fails the rooted check")
    return result, trace


def _drop_parallel_pairs(g: Multigraph, u: int):
    """G with surplus parallel edges dropped, and the values of the dropped
    edges at the root; G and no values when n <= 2 or m <= 3n^2.

    One pass over G's edges groups them by (tail, head). A class of k >= 4
    edges keeps its 2 + (k mod 2) smallest ids, the rest go in consecutive
    pairs, and a class at u gives each pair (0, 1), (0, 2); every other
    dropped edge takes (1, 0), which ``solve`` fills in. The reduced graph
    keeps G's vertices, and its edges in id order.
    """
    if g.n <= 2 or g.m <= 3 * g.n * g.n:
        return g, ()
    classes = defaultdict(list)
    for eid, ends in g.arcs():
        classes[ends].append(eid)
    kept, root_pairs = [], []
    for ends, ids in classes.items():
        keep = 2 + len(ids) % 2 if len(ids) >= 4 else len(ids)
        kept += zip(ids[:keep], repeat(ends))
        if u in ends:
            root_pairs += zip(ids[keep::2], repeat((0, 1)))
            root_pairs += zip(ids[keep + 1::2], repeat((0, 2)))
    kept.sort()
    return Multigraph(g.n, dict(kept)), root_pairs


def _suppress_degree_two(g: Multigraph, u: int, trace: ConstructionTrace):
    """G with every vertex but u of degree 2 and no loop suppressed, its
    root, and the chains' edges; G, u and no edges when there is none to
    suppress. Instances of at most two vertices are left as they are.

    Each chain edge comes as (edge id, name, same): the name is the chain's
    smallest edge id, and ``same`` tells whether the edge runs as the named
    one does. The reduced graph keeps every edge off the chains, and each
    chain's name as an edge between its ends, in the order of G's edges, so
    ids stay ascending. A kept vertex keeps its id unless that is past the
    reduced graph's last vertex. The graph is built in one pass over G's
    edges through that vertex image, skipping every chain edge but the
    names, whose ends are then replaced in place; an edge whose ends both
    keep their ids keeps its (tail, head) tuple.

    Degrees are read off the cached adjacency, which holds no loops, and
    the edges are read for loops only if some vertex has two neighbour
    entries and the adjacency holds fewer than two entries per edge. Each
    chain is walked from one of its ends into flat per-edge lists. A chain
    that closes on itself is a separate cycle, so G is searched for the
    error, as ``_solve_task`` does at the root.
    """
    if g.n <= 2:
        return g, u, ()
    adj = g.undirected_adj()
    kept = list(map((2).__ne__, map(len, adj)))
    kept[u] = True
    if all(kept):
        return g, u, ()
    if sum(map(len, adj)) < 2 * g.m:  # some edge is a loop
        for _, (t, h) in g.arcs():
            if t == h:
                kept[t] = True
    suppressed = list(compress(range(g.n), map(not_, kept)))
    if not suppressed:
        return g, u, ()
    # A kept vertex keeps its id if it is below n2, the reduced graph's
    # vertex count; the others take the suppressed ids below n2, in order.
    n2 = g.n - len(suppressed)
    image = list(range(g.n))
    for v, w in zip(compress(range(n2, g.n), kept[n2:]), suppressed):
        image[v] = w
    endpoints = g.endpoints
    # Flat, one entry per chain edge: its id, its chain's name, and whether
    # it runs as the name does.
    members, owner, runs = [], [], []
    chain_edge = {}  # chain name -> its edge in the reduced graph
    walked = kept[:]
    for v in suppressed:
        if walked[v]:
            continue
        # back from v to an end x of its chain, then along the chain to y
        (eid, x), _ = adj[v]
        while not kept[x]:
            if x == v:  # round a separate cycle
                require_2_edge_connected(g)  # raises, naming its component
                raise InternalCheckError("a cycle of degree-2 vertices is not a component")
            (e0, w0), (e1, w1) = adj[x]
            eid, x = (e1, w1) if e0 == eid else (e0, w0)
        start = len(members)
        name, y = eid, x
        while True:
            t, h = endpoints(eid)
            members.append(eid)
            runs.append(t == y)  # from x towards y
            if eid <= name:
                name, forward = eid, t == y
            y = h if t == y else t
            if kept[y]:
                break
            walked[y] = True
            (e0, w0), (e1, w1) = adj[y]
            eid = e1 if e0 == eid else e0
        if not forward:  # the name runs from y to x
            x, y = y, x
            runs[start:] = [not r for r in runs[start:]]
        owner += [name] * (len(members) - start)
        chain_edge[name] = (image[x], image[y])
    dropped = set(members).difference(chain_edge)
    edges = {eid: ends if ends[0] < n2 > ends[1] else (image[ends[0]], image[ends[1]])
             for eid, ends in g.arcs() if eid not in dropped}
    edges.update(chain_edge)
    trace.reduction = Reduction(suppressed=len(suppressed), chains=len(chain_edge))
    return Multigraph(n2, edges), image[u], zip(members, owner, runs)


def _solve_task(g: Multigraph, u: int, depth: int, trace, debug: bool,
                given: Optional[Multigraph] = None):
    """Solve one instance once it is known to be 2-edge-connected: at the
    root a graph that is not is bad input, below it an internal fault.
    ``given`` is the input graph that the root instance was reduced from;
    it, not the reduced graph, is searched for the error."""
    if g.n > 2:
        block, comp, whole = partition_at_bridge(g, u)
    else:  # G - u is one vertex or none, its root edges one parallel class
        whole = g.n == 1 or sum(t != h for _, (t, h) in g.arcs()) >= 2
    if not whole:
        if depth == 0:
            # raises, naming a bridge or a component
            require_2_edge_connected(g if given is None else given)
        raise InternalCheckError("a component of G - root, or a side of a bridge "
                                 "in it, has too few edges to the root")
    if g.n <= 2:
        flow = _two_vertices(g, depth, trace)
    elif block is not None:
        flow = yield from _cut_case(g, u, block, depth, trace, debug)
    else:
        flow = yield from _bridgeless_case(g, u, comp, depth, trace, debug)
    if debug:
        _check(verify_rooted(g, u, flow), f"flow fails the rooted check at depth {depth}")
    return flow


def _two_vertices(g, depth, trace):
    """n <= 2: f2 = 0 everywhere, (0, 1) on every loop, and nonzero f3 that
    sums to zero on the parallel class between the two vertices."""
    trace.steps.append(BaseStep(depth=depth, loop_edges=g.m))
    flow = dict.fromkeys(g.edge_ids, (0, 1))
    links = [(eid, 1 if t == 0 else -1) for eid, (t, h) in g.arcs() if t != h]
    if links:
        values = extend_nonzero_parallel(0, [sign for _, sign in links])
        flow.update((eid, (0, val)) for (eid, _), val in zip(links, values))
    return flow


def _cut_case(g, u, block, depth, trace, debug):
    """One child per 2-edge-connected block of G - u, glued along the bridges.

    A block's child is its vertices, numbered 1, 2, ... in id order, and a
    root 0 for the rest of G. An edge goes to the child of each block it
    touches: a bridge to both, a loop at u to the first. The children are
    solved in ascending label (``partition_at_bridge``); each but the first
    of its component of G - u shares one bridge, to its parent block, with
    the flow so far, and is negated in f3 if the two values disagree there.
    """
    local = [0] * g.n  # v's vertex in its block's child; u stays 0
    sizes: dict[int, int] = {}  # block label -> its vertex count
    for v in range(g.n):
        if v != u:
            local[v] = sizes[block[v]] = sizes.get(block[v], 0) + 1
    labels = sorted(sizes)
    edges = {b: {} for b in labels}  # block label -> its child's edges
    for eid, (t, h) in g.arcs():
        bt = -1 if t == u else block[t]
        bh = -1 if h == u else block[h]
        if bt == bh:
            edges[labels[0] if bt < 0 else bt][eid] = (local[t], local[h])
            continue
        if bt >= 0:
            edges[bt][eid] = (local[t], 0)
        if bh >= 0:
            edges[bh][eid] = (0, local[h])
    children = [Multigraph(sizes[b] + 1, edges[b]) for b in labels]
    trace.steps.append(CutStep(  # each bridge is in two children, every other edge in one
        depth=depth, blocks=len(children), bridges=sum(c.m for c in children) - g.m))

    flow: GroupFlow = {}
    for child in children:
        sub = yield _solve_task(child, 0, depth + 1, trace, debug)
        eid = next((eid for eid in child.edge_ids if eid in flow), None)
        if eid is not None:  # the bridge to the parent block
            _check(flow[eid][0] == 0 == sub[eid][0],
                   "cut edge carries nonzero f2 from a subflow")
            if flow[eid][1] != sub[eid][1]:
                sub = negate_f3(sub)
            _check(flow[eid][1] == sub[eid][1] != 0, "cut edge f3 values failed to align")
        flow.update(sub)
    return flow


def _bridgeless_case(g, u, comp, depth, trace, debug):
    """Contract every part (``even_parts``) together with its spokes, the
    root edges into it, solve the smaller instance, then extend back part by
    part.

    ``comp`` labels the components of G - u, from the step's one DFS. Each
    part's tree comes from the one walk that found it, which never entered
    u or an earlier part and found every vertex even, so the parts are
    disjoint, connected, free of u and even. One pass over u's adjacency
    gives the spokes, at least two per part, and one pass over G's edges
    builds the child, in which every part and u are one vertex, the child's
    root. Debug mode checks the child against ``contract``; the finished
    flow is checked on G by ``_solve_task``.
    """
    adj = g.undirected_adj()
    parts, fallbacks = even_parts(g, u, comp, adj[u])
    part = [-1] * g.n  # index of v's part, -1 off the parts
    removed = set()  # every part's edges, then every spoke
    for i, (tree, edges) in enumerate(parts):
        for v, _ in tree:
            part[v] = i
        removed |= edges
    part_edges = len(removed)
    spoke_ends = [[] for _ in parts]  # per part (edge id, part vertex, +1 if it enters)
    for eid, w in adj[u]:
        if part[w] >= 0:
            spoke_ends[part[w]].append((eid, w, 1 if g.endpoints(eid)[1] == w else -1))
            removed.add(eid)
    _check(min(map(len, spoke_ends)) >= 2, "a part has fewer than two spokes")

    # G/parts/spokes, numbered as ``contract`` numbers it: u and every part
    # vertex are one vertex, the child's root, at the place of the smallest
    # of them, and every other vertex keeps its order.
    u2 = min(u, *(tree[0][0] for tree, _ in parts))
    kept = [v for v in range(g.n) if part[v] < 0 and v != u]
    image = [u2] * g.n
    for i, v in enumerate(kept):
        image[v] = i + (v > u2)
    g2 = Multigraph(len(kept) + 1, {eid: (image[t], image[h])
                                    for eid, (t, h) in g.arcs() if eid not in removed})
    if debug:
        _check(g2 == g.contract(removed)[0], "bridgeless child differs from the contraction")
    trace.steps.append(BridgelessStep(
        depth=depth, root_edges=(spoke_ends[0][0][0], spoke_ends[0][1][0]),
        contracted_sizes=(part_edges, len(removed) - part_edges),
        parts=len(parts), fallbacks=fallbacks,
    ))

    flow = yield _solve_task(g2, u2, depth + 1, trace, debug)

    # The child's edges at its root, loops included, are the edges at u or at
    # a part vertex that are neither spokes nor part edges.
    exc = [0] * g.n  # f3 excess, read only at part vertices
    f2_at_root = 0
    for eid, (t, h) in g2.arcs():
        if t == u2 or h == u2:
            f2, f3 = flow[eid]
            f2_at_root |= f2
            tail, head = g.endpoints(eid)
            exc[tail] -= f3
            exc[head] += f3
    _check(not f2_at_root, "f2 support touches the root or a part")

    # Per part: nonzero f3 with f2 = 0 across its parallel spoke class,
    # cancelling the part's total excess; then f2 = 1 on the part, and f3 on
    # it by conservation, forced leaf-upward over its BFS tree, every other
    # part edge keeping f3 = 0. A part's values touch only its own vertices.
    for (tree, edges), at_part in zip(parts, spoke_ends):
        values = extend_nonzero_parallel(-sum(exc[v] for v, _ in tree) % 3,
                                         [sign for _, _, sign in at_part])
        for (eid, v, sign), val in zip(at_part, values):
            _check(val != 0, "a spoke edge lost its f3 value")
            flow[eid] = (0, val)
            exc[v] += sign * val
        flow.update(dict.fromkeys(edges, (1, 0)))
        for v, eid in reversed(tree[1:]):
            t, h = g.endpoints(eid)
            val = (exc[v] if t == v else -exc[v]) % 3
            flow[eid] = (1, val)
            exc[h] += val
            exc[t] -= val
        _check(exc[tree[0][0]] % 3 == 0, "contracted component has nonzero total excess")
    return flow


def extend_nonzero_parallel(d: int, orientations: Sequence[int]) -> list[int]:
    """Nonzero mod-3 values for two or more parallel edges with given signed sum.

    orientations holds +1/-1 per edge; the returned values v satisfy
    sum(sign * v) = d (mod 3) with every v in {1, 2}. Deterministic: in the
    sign-normalised view all values start at 1 and the first few flip to 2.
    """
    k = len(orientations)
    if k < 2:
        raise InputError("need at least two parallel edges to stay nonzero")
    delta = (d - k) % 3
    w = [2] * delta + [1] * (k - delta)
    return [v if s > 0 else 3 - v for v, s in zip(w, orientations)]
