"""Group-valued and integer-valued flow assignments and their verifiers.

A group flow maps edge id -> (f2, f3) with f2 mod 2 and f3 mod 3, relative
to the owning graph's orientation. An integer flow maps edge id -> int.
Verifiers re-derive incidence from the graph, so there is no stale state to
keep in sync. Each ``*_violation`` function returns None or a witness
``(kind, id)``: ``("vertex", v)`` for the first vertex where conservation
fails, ``("edge", eid)`` for the smallest offending edge id. Each
``verify_*`` is its yes/no form. ``pair_add`` and ``pair_neg`` are the group
operations of Z2 x Z3 that the brute-force oracle in ``testkit`` uses.
"""

from __future__ import annotations

from typing import Optional

from ._collector import paused
from .errors import InputError
from .multigraph import Multigraph

Pair = tuple[int, int]
GroupFlow = dict[int, Pair]
IntegerFlow = dict[int, int]
Witness = tuple[str, int]

ZERO: Pair = (0, 0)

NONZERO_PAIRS: tuple[Pair, ...] = ((0, 1), (0, 2), (1, 0), (1, 1), (1, 2))


def pair_add(a: Pair, b: Pair) -> Pair:
    return ((a[0] + b[0]) & 1, (a[1] + b[1]) % 3)


def pair_neg(a: Pair) -> Pair:
    return (a[0], (-a[1]) % 3)


def _require_total(g: Multigraph, f: dict) -> None:
    if f.keys() >= g.edge_ids:
        return
    missing = next(eid for eid in g.edge_ids if eid not in f)
    raise InputError(f"flow is missing a value for edge {missing}")


def _pair_excesses(g: Multigraph, f: GroupFlow) -> tuple[list[int], list[int]]:
    e2 = [0] * g.n
    e3 = [0] * g.n
    for eid, (t, h) in g.arcs():
        if t == h:
            continue
        a, b = f[eid]
        e2[h] += a
        e3[h] += b
        e2[t] -= a
        e3[t] -= b
    return e2, e3


@paused
def flow_violation(g: Multigraph, f: GroupFlow) -> Optional[Witness]:
    """The first vertex where conservation fails, or None if f is a flow."""
    _require_total(g, f)
    e2, e3 = _pair_excesses(g, f)
    for v in range(g.n):
        if e2[v] & 1 or e3[v] % 3:
            return ("vertex", v)
    return None


def verify_flow(g: Multigraph, f: GroupFlow) -> bool:
    return flow_violation(g, f) is None


@paused
def zero_edge(f: GroupFlow) -> Optional[int]:
    """The smallest edge id carrying the zero value, or None."""
    if ZERO not in f.values():
        return None
    return min(eid for eid, p in f.items() if p == ZERO)


def verify_nowhere_zero(g: Multigraph, f: GroupFlow) -> bool:
    return verify_flow(g, f) and all(f[eid] != ZERO for eid in g.edge_ids)


@paused
def rooted_violation(g: Multigraph, u: int, f: GroupFlow) -> Optional[Witness]:
    """Check the rooted condition: nowhere-zero flow with f2 = 0 on every
    edge at u (loops included)."""
    g._check_vertex(u)
    witness = flow_violation(g, f)
    if witness is not None:
        return witness
    if ZERO in map(f.__getitem__, g.edge_ids):
        return ("edge", min(eid for eid in g.edge_ids if f[eid] == ZERO))
    for eid, (t, h) in g.arcs():
        if (t == u or h == u) and f[eid][0] != 0:
            return ("edge", eid)
    return None


def verify_rooted(g: Multigraph, u: int, f: GroupFlow) -> bool:
    return rooted_violation(g, u, f) is None


@paused
def k_flow_violation(g: Multigraph, f: IntegerFlow, k: int) -> Optional[Witness]:
    """Check a nowhere-zero integer k-flow."""
    _require_total(g, f)
    values = list(map(f.__getitem__, g.edge_ids))
    bad = {x for x in set(values) if not 0 < abs(x) <= k - 1}
    if bad:
        return ("edge", next(eid for eid, x in zip(g.edge_ids, values) if x in bad))
    exc = [0] * g.n
    # a loop adds and takes its value at one vertex
    for (_, (t, h)), x in zip(g.arcs(), values):
        exc[h] += x
        exc[t] -= x
    if any(exc):
        return ("vertex", next(v for v in range(g.n) if exc[v]))
    return None


def verify_k_flow(g: Multigraph, f: IntegerFlow, k: int) -> bool:
    return k_flow_violation(g, f, k) is None


def negate_f3(f: GroupFlow) -> GroupFlow:
    """Replace every f3 value by its mod-3 negation; f2 untouched."""
    return {e: (a, (-b) % 3) for e, (a, b) in f.items()}
