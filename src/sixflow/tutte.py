"""Conversion between Z2 x Z3 flows, Z6 flows, and integer 6-flows.

The pair <-> Z6 maps use the fixed isomorphism (a, b) -> (3a + 4b) mod 6,
with inverse c -> (c mod 2, c mod 3). The integer conversion lifts each Z6
value into {1..5} and then cancels vertex excesses six units at a time along
shift paths until conservation holds everywhere (Tutte 1954). Each shift
round is one breadth-first search that reads one entry per distinct
neighbour of the vertices it reaches, however many parallel edges join
them. ``Z6_OF_PAIR`` holds the Z6 value of each of the six pairs, so the
map looks each edge's pair up instead of calling ``pair_to_z6`` per edge.
"""

from __future__ import annotations

from collections import deque
from typing import Optional

from .errors import InputError, InternalCheckError
from .flows import GroupFlow, IntegerFlow, Pair
from .multigraph import Multigraph

Z6Flow = dict[int, int]


def pair_to_z6(p: Pair) -> int:
    return (3 * p[0] + 4 * p[1]) % 6


def z6_to_pair(c: int) -> Pair:
    return (c % 2, c % 3)


class FixedTable(dict):
    """``fallback`` over a fixed set of keys, precomputed. A key outside them
    is computed on each lookup and not stored, so the table never grows."""

    def __init__(self, fallback, keys):
        super().__init__((key, fallback(key)) for key in keys)
        self.fallback = fallback

    def __missing__(self, key):
        return self.fallback(key)


Z6_OF_PAIR = FixedTable(pair_to_z6, [(a, b) for a in range(2) for b in range(3)])


def group_flow_to_z6(f: GroupFlow) -> Z6Flow:
    return dict(zip(f, map(Z6_OF_PAIR.__getitem__, f.values())))


def group_flow_to_integer_flow(
    g: Multigraph, phi: Z6Flow, stats: Optional[dict] = None
) -> IntegerFlow:
    """Turn a nowhere-zero Z6-flow into a nowhere-zero integer 6-flow.

    Output satisfies f(e) ≡ phi(e) (mod 6) and 0 < |f(e)| <= 5, and holds
    exactly G's edges. Each round finds, by breadth-first search from the
    smallest vertex with positive excess, a path of shiftable edges to a
    deficit vertex, and moves six units along it; the total absolute excess
    drops by exactly twelve per round, so the rounds number the lift's total
    positive excess over six. Loops are lifted and never shifted.

    The search reads one entry per distinct neighbour, not one per parallel
    edge, so a round costs O(distinct neighbours of the vertices it reaches)
    plus O(1) per shifted edge. ``stats`` receives ``augmentation_rounds``
    and ``edges_scanned``, the neighbour entries the searches read.
    """
    n = g.n
    exc = [0] * n
    f: IntegerFlow = {}
    # ahead[v] maps each neighbour w to the ids of the edges shiftable from v
    # to w. Every lifted value is positive, so each edge starts out shiftable
    # from its head to its tail.
    ahead: list[dict[int, list[int]]] = [{} for _ in range(n)]
    for eid, (t, h) in g.arcs():
        try:
            c = phi[eid]
        except KeyError:
            raise InputError(f"flow is missing a value for edge {eid}") from None
        if not 1 <= c <= 5:
            raise InputError(f"edge {eid}: value {c} is not a nonzero Z6 element")
        f[eid] = c  # lift into {1..5}
        if t != h:
            exc[h] += c
            exc[t] -= c
            edges = ahead[h].get(t)
            if edges is None:
                ahead[h][t] = [eid]
            else:
                edges.append(eid)
    for v in range(n):
        if exc[v] % 6:
            raise InputError(f"input is not a Z6-flow: conservation fails at vertex {v}")

    # A round lowers its source by 6 and raises a deficit vertex to at most 0,
    # so no vertex turns positive and draining sources in vertex order always
    # shifts from the smallest positive one.
    rounds = scanned = 0
    for v in range(n):
        while exc[v] > 0:
            # Excesses stay multiples of 6, so source >= 6 and target <= -6
            # means total |excess| drops by exactly 12 this round.
            if exc[v] < 6 or exc[v] % 6:
                raise InternalCheckError(f"source excess {exc[v]} is not a positive multiple of 6")
            target, read = _shift_path(f, exc, ahead, v)
            rounds += 1
            scanned += read
            if exc[target] > 0:
                raise InternalCheckError("deficit vertex became positive")
    if stats is not None:
        stats["augmentation_rounds"] = rounds
        stats["edges_scanned"] = scanned
    return f


def _shift_path(
    f: IntegerFlow, exc: list[int], ahead: list[dict[int, list[int]]], start: int
) -> tuple[int, int]:
    """One BFS round: push 6 units from ``start`` to the nearest deficit vertex.

    Returns the deficit vertex and the number of neighbour entries read.
    """
    prev = {start: -1}
    queue = deque([start])
    target = -1
    scanned = 0
    while queue and target < 0:
        v = queue.popleft()
        nbrs = ahead[v]
        scanned += len(nbrs)
        for w in nbrs:
            if w in prev:
                continue
            prev[w] = v
            if exc[w] < 0:
                target = w
                break
            queue.append(w)
    if target < 0:
        raise InternalCheckError(
            "no deficit vertex reachable by shiftable edges; input was not a flow"
        )
    # Shifting reverses an edge: outgoing negative edges gain 6, incoming
    # positive ones lose 6, and the magnitude stays in 1..5. The edge then
    # becomes shiftable from w back to v.
    w = target
    while w != start:
        v = prev[w]
        edges = ahead[v][w]
        eid = edges.pop()
        if not edges:
            del ahead[v][w]
        f[eid] += 6 if f[eid] < 0 else -6
        ahead[w].setdefault(v, []).append(eid)
        w = v
    exc[start] -= 6
    exc[target] += 6
    return target, scanned
