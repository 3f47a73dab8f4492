"""Conversion between Z2 x Z3 flows, Z6 flows, and integer 6-flows.

The pair <-> Z6 maps use the fixed isomorphism (a, b) -> (3a + 4b) mod 6,
with inverse c -> (c mod 2, c mod 3). The integer conversion lifts each Z6
value into {1..5} and then cancels vertex excesses six units at a time along
shift paths until conservation holds everywhere.
"""

from __future__ import annotations

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


def integer_flow_to_group(g: Multigraph, f: IntegerFlow, k: int = 6) -> Z6Flow:
    """Reduce an integer flow mod k; the trivial direction of the reduction."""
    return {e: f[e] % k for e in g.edge_ids}


def group_flow_to_integer_flow(
    g: Multigraph, phi: Z6Flow, stats: Optional[dict] = None
) -> IntegerFlow:
    """Turn a nowhere-zero Z6-flow into a nowhere-zero integer 6-flow.

    Output satisfies f(e) ≡ phi(e) (mod 6) and 0 < |f(e)| <= 5. Each round
    finds, by breadth-first search from the smallest vertex with positive
    excess, a path of shiftable edges to a deficit vertex, and moves six
    units along it; the total absolute excess drops by exactly twelve per
    round. Loops are lifted and never shifted.
    """
    _validate_z6_flow(g, phi)
    f: IntegerFlow = dict(phi)  # lift into {1..5}
    n = g.n
    exc = [0] * n
    adj: list[list[tuple[int, int, bool]]] = [[] for _ in range(n)]
    for eid, (t, h) in sorted(g.arcs()):
        if t == h:
            continue
        exc[h] += f[eid]
        exc[t] -= f[eid]
        adj[t].append((eid, h, True))
        adj[h].append((eid, t, False))

    heap = [v for v in range(n) if exc[v] > 0]
    heap.sort()
    rounds = 0
    while heap:
        v = heappop(heap)
        if exc[v] <= 0:
            continue
        # Excesses stay multiples of 6, so source >= 6 and target <= -6 means
        # total |excess| drops by exactly 12 this round (the monovariant).
        if exc[v] < 6 or exc[v] % 6:
            raise InternalCheckError(f"source excess {exc[v]} is not a positive multiple of 6")
        target = _shift_path(g, f, exc, adj, v)
        rounds += 1
        if exc[target] > 0:
            raise InternalCheckError("deficit vertex became positive")
        if exc[v] > 0:
            heappush(heap, v)
    if stats is not None:
        stats["augmentation_rounds"] = rounds
    return f


def _shift_path(
    g: Multigraph,
    f: IntegerFlow,
    exc: list[int],
    adj: list[list[tuple[int, int, bool]]],
    start: int,
) -> int:
    """One BFS round: push 6 units from ``start`` to the nearest deficit vertex."""
    prev: dict[int, tuple[int, int, int]] = {start: (-1, -1, 0)}
    queue = deque([start])
    target = -1
    while queue and target < 0:
        v = queue.popleft()
        for eid, w, outward in adj[v]:
            if w in prev:
                continue
            # shiftable from v to w: outgoing negative edges gain 6,
            # incoming positive edges lose 6; magnitude stays in 1..5.
            if outward and f[eid] < 0:
                prev[w] = (v, eid, +6)
            elif not outward and f[eid] > 0:
                prev[w] = (v, eid, -6)
            else:
                continue
            if exc[w] < 0:
                target = w
                break
            queue.append(w)
    if target < 0:
        raise InternalCheckError(
            "no deficit vertex reachable by shiftable edges; input was not a flow"
        )
    v = target
    while v != start:
        pv, eid, delta = prev[v]
        f[eid] += delta
        v = pv
    exc[start] -= 6
    exc[target] += 6
    return target


def _validate_z6_flow(g: Multigraph, phi: Z6Flow) -> None:
    exc = [0] * g.n
    for eid in g.edge_ids:
        if eid not in phi:
            raise InputError(f"flow is missing a value for edge {eid}")
        c = phi[eid]
        if not 1 <= c <= 5:
            raise InputError(f"edge {eid}: value {c} is not a nonzero Z6 element")
    for eid, (t, h) in g.arcs():
        if t == h:
            continue
        exc[h] += phi[eid]
        exc[t] -= phi[eid]
    for v in range(g.n):
        if exc[v] % 6:
            raise InputError(f"input is not a Z6-flow: conservation fails at vertex {v}")
