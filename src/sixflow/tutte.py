"""Conversion between Z2 x Z3 flows, Z6 flows, and integer 6-flows.

The pair <-> Z6 maps use the fixed isomorphism (a, b) -> (3a + 4b) mod 6,
with inverse c -> (c mod 2, c mod 3). The integer conversion lifts each Z6
value into {1..5} and then cancels vertex excesses six units at a time along
shift paths until conservation holds everywhere (Tutte 1954). Each shift
round is one breadth-first search that reads one entry per distinct
neighbour of the vertices it reaches, however many parallel edges join
them; its paths, rounds and output are those of a search that scans every
edge in id order.
"""

from __future__ import annotations

from bisect import insort
from collections import deque
from heapq import heappush, heappop
from typing import Optional

from .errors import InputError, InternalCheckError
from .flows import GroupFlow, IntegerFlow, Pair
from .multigraph import Multigraph

Z6Flow = dict[int, int]


def pair_to_z6(p: Pair) -> int:
    return (3 * p[0] + 4 * p[1]) % 6


def z6_to_pair(c: int) -> Pair:
    return (c % 2, c % 3)


def group_flow_to_z6(f: GroupFlow) -> Z6Flow:
    return {e: pair_to_z6(p) for e, p in f.items()}


def group_flow_to_integer_flow(
    g: Multigraph, phi: Z6Flow, stats: Optional[dict] = None
) -> IntegerFlow:
    """Turn a nowhere-zero Z6-flow into a nowhere-zero integer 6-flow.

    Output satisfies f(e) ≡ phi(e) (mod 6) and 0 < |f(e)| <= 5. Each round
    finds, by breadth-first search from the smallest vertex with positive
    excess, a path of shiftable edges to a deficit vertex, and moves six
    units along it; the total absolute excess drops by exactly twelve per
    round. Loops are lifted and never shifted.

    The search enters each neighbour w of a vertex v through the smallest
    edge id shiftable from v to w, in ascending order of those ids: the
    paths, rounds and output of a scan over every edge at v by id. It reads
    one entry per neighbour, not one per parallel edge, so a round costs
    O(distinct neighbours of the vertices it reaches), plus O(log m + deg)
    per shifted edge. ``stats`` receives ``augmentation_rounds`` and
    ``edges_scanned``, the neighbour entries the searches read.
    """
    exc = _validate_z6_flow(g, phi)
    f: IntegerFlow = dict(phi)  # lift into {1..5}
    n = g.n
    # ahead[v][w] is a min-heap of the edge ids shiftable from v to w, and
    # first[v] the sorted (ahead[v][w][0], w) pairs of its nonempty heaps.
    # Every lifted value is positive, so each edge starts out shiftable from
    # its head to its tail; ids ascend, so each list starts out a heap.
    ahead: list[dict[int, list[int]]] = [{} for _ in range(n)]
    first: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for eid, (t, h) in sorted(g.arcs()):
        if t == h:
            continue
        edges = ahead[h].get(t)
        if edges is None:
            ahead[h][t] = [eid]
            first[h].append((eid, t))
        else:
            edges.append(eid)

    heap = [v for v in range(n) if exc[v] > 0]
    heap.sort()
    rounds = scanned = 0
    while heap:
        v = heappop(heap)
        if exc[v] <= 0:
            continue
        # Excesses stay multiples of 6, so source >= 6 and target <= -6 means
        # total |excess| drops by exactly 12 this round (the monovariant).
        if exc[v] < 6 or exc[v] % 6:
            raise InternalCheckError(f"source excess {exc[v]} is not a positive multiple of 6")
        target, read = _shift_path(f, exc, ahead, first, v)
        rounds += 1
        scanned += read
        if exc[target] > 0:
            raise InternalCheckError("deficit vertex became positive")
        if exc[v] > 0:
            heappush(heap, v)
    if stats is not None:
        stats["augmentation_rounds"] = rounds
        stats["edges_scanned"] = scanned
    return f


def _shift_path(
    f: IntegerFlow,
    exc: list[int],
    ahead: list[dict[int, list[int]]],
    first: list[list[tuple[int, int]]],
    start: int,
) -> tuple[int, int]:
    """One BFS round: push 6 units from ``start`` to the nearest deficit vertex.

    Returns the deficit vertex and the number of neighbour entries read.
    """
    prev: dict[int, tuple[int, int]] = {start: (-1, -1)}
    queue = deque([start])
    target = -1
    scanned = 0
    while queue and target < 0:
        v = queue.popleft()
        nbrs = first[v]
        scanned += len(nbrs)
        for eid, w in nbrs:
            if w in prev:
                continue
            prev[w] = (v, eid)
            if exc[w] < 0:
                target = w
                break
            queue.append(w)
    if target < 0:
        raise InternalCheckError(
            "no deficit vertex reachable by shiftable edges; input was not a flow"
        )
    # Shifting reverses an edge: outgoing negative edges gain 6, incoming
    # positive ones lose 6, and the magnitude stays in 1..5. The edge was the
    # smallest shiftable one from v to w, so it leaves the top of that heap.
    w = target
    while w != start:
        v, eid = prev[w]
        f[eid] += 6 if f[eid] < 0 else -6
        edges = ahead[v][w]
        heappop(edges)
        nbrs = first[v]
        nbrs.remove((eid, w))
        if edges:
            insort(nbrs, (edges[0], w))
        edges = ahead[w].setdefault(v, [])
        if not edges or eid < edges[0]:
            nbrs = first[w]
            if edges:
                nbrs.remove((edges[0], v))
            insort(nbrs, (eid, v))
        heappush(edges, eid)
        w = v
    exc[start] -= 6
    exc[target] += 6
    return target, scanned


def _validate_z6_flow(g: Multigraph, phi: Z6Flow) -> list[int]:
    """Check phi is a nowhere-zero Z6-flow; return each vertex's excess in its lift."""
    exc = [0] * g.n
    for eid, (t, h) in g.arcs():
        if eid not in phi:
            raise InputError(f"flow is missing a value for edge {eid}")
        c = phi[eid]
        if not 1 <= c <= 5:
            raise InputError(f"edge {eid}: value {c} is not a nonzero Z6 element")
        if t != h:
            exc[h] += c
            exc[t] -= c
    for v in range(g.n):
        if exc[v] % 6:
            raise InputError(f"input is not a Z6-flow: conservation fails at vertex {v}")
    return exc
