"""Conversion between Z2 x Z3 flows, Z6 flows, and integer 6-flows.

The pair <-> Z6 maps use the fixed isomorphism (a, b) -> (3a + 4b) mod 6,
with inverse c -> (c mod 2, c mod 3). The integer conversion lifts each Z6
value c to c or c - 6, whichever leaves the edge's ends nearer balance, then
cancels vertex excesses six units at a time along shift paths until
conservation holds everywhere (Tutte 1954). ``Z6_OF_PAIR`` holds the Z6
value of each of the six pairs, so the map looks each edge's pair up instead
of calling ``pair_to_z6`` per edge.
"""

from __future__ import annotations

from collections import deque
from typing import Optional

from ._collector import paused
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


@paused
def group_flow_to_z6(f: GroupFlow) -> Z6Flow:
    return dict(zip(f, map(Z6_OF_PAIR.__getitem__, f.values())))


@paused
def group_flow_to_integer_flow(
    g: Multigraph, phi: Z6Flow, stats: Optional[dict] = None
) -> IntegerFlow:
    """Turn a nowhere-zero Z6-flow into a nowhere-zero integer 6-flow.

    Output satisfies f(e) ≡ phi(e) (mod 6) and 0 < |f(e)| <= 5, and holds
    exactly G's edges. The lift takes the edges in id order and gives each
    non-loop edge c or c - 6: c - 6 exactly when c would leave its head's
    excess more than 6 above its tail's. Loops keep c and are never shifted.
    Each round then finds, by breadth-first search from the smallest vertex
    with positive excess, a path of shiftable edges to a deficit vertex, and
    moves six units along it; the total absolute excess drops by exactly
    twelve per round, so the rounds number the lift's total positive excess
    over six.

    A round reads the shiftable edges at the vertices it reaches, from one
    dict per vertex, and shifts an edge in O(1). ``stats`` receives
    ``augmentation_rounds`` and ``edges_scanned``, the edges the searches read.
    """
    n = g.n
    exc = [0] * n
    f: IntegerFlow = {}
    # ahead[v] maps each edge shiftable from v to its far end: a positive
    # edge is shiftable from its head, a negative one from its tail.
    ahead: list[dict[int, int]] = [{} for _ in range(n)]
    for eid, (t, h) in g.arcs():
        try:
            c = phi[eid]
        except KeyError:
            raise InputError(f"flow is missing a value for edge {eid}") from None
        if not 1 <= c <= 5:
            raise InputError(f"edge {eid}: value {c} is not a nonzero Z6 element")
        if t != h:
            if exc[h] - exc[t] + 2 * c > 6:
                c -= 6
                ahead[t][eid] = h
            else:
                ahead[h][eid] = t
            exc[h] += c
            exc[t] -= c
        f[eid] = c
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
            target, read = _shift_path(g, f, exc, ahead, v)
            rounds += 1
            scanned += read
            if exc[target] > 0:
                raise InternalCheckError("deficit vertex became positive")
    if stats is not None:
        stats["augmentation_rounds"] = rounds
        stats["edges_scanned"] = scanned
    return f


def _shift_path(
    g: Multigraph, f: IntegerFlow, exc: list[int], ahead: list[dict[int, int]], start: int
) -> tuple[int, int]:
    """One BFS round: push 6 units from ``start`` to the nearest deficit vertex.

    Returns the deficit vertex and the number of shiftable edges read.
    """
    prev = {start: -1}  # vertex -> the edge that reached it
    queue = deque([start])
    target = -1
    scanned = 0
    while queue and target < 0:
        edges = ahead[queue.popleft()]
        scanned += len(edges)
        for eid, w in edges.items():
            if w in prev:
                continue
            prev[w] = eid
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
        eid = prev[w]
        v = sum(g.endpoints(eid)) - w  # the edge's other end
        del ahead[v][eid]
        ahead[w][eid] = v
        f[eid] += 6 if f[eid] < 0 else -6
        w = v
    exc[start] -= 6
    exc[target] += 6
    return target, scanned
