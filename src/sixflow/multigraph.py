"""Directed multigraph with stable edge identifiers.

Edge ids survive contraction and vertex deletion, which is what lets flow
values transfer between a graph and its minors. Loops and parallel edges are
ordinary edges. Graphs are immutable after construction: every "mutation"
returns a new graph (the recursive construction needs the old and new graph
alive at the same time).

This module is the only one that knows how the edge table is stored. Other
modules read it through ``arcs()`` (every edge, in one pass), ``endpoints``
(one edge) and ``undirected_adj()`` (traversals).
"""

from __future__ import annotations

from itertools import chain
from typing import ItemsView, Iterable, Iterator, NamedTuple

from .errors import InputError


class Edge(NamedTuple):
    id: int
    tail: int
    head: int


class Multigraph:
    __slots__ = ("n", "_edges", "_adj")

    def __init__(self, n: int, edges: dict[int, tuple[int, int]]):
        # edges: id -> (tail, head), iteration order ascending by id
        self.n = n
        self._edges = edges
        self._adj = None

    @classmethod
    def build(cls, n: int, arcs: Iterable[tuple[int, int]]) -> "Multigraph":
        """Build a graph from (tail, head) tuples; ids are assigned 0..m-1 in order."""
        if n < 0:
            raise InputError(f"vertex count {n} is negative")
        edges = dict(enumerate(arcs))
        ends = set(chain.from_iterable(edges.values()))
        if ends and not (0 <= min(ends) and max(ends) < n):
            i, (t, h) = next((i, (t, h)) for i, (t, h) in edges.items()
                             if not (0 <= t < n and 0 <= h < n))
            raise InputError(f"edge {i}: endpoint out of range ({t}, {h}) with n={n}")
        return cls(n, edges)

    # -- queries ---------------------------------------------------------

    @property
    def m(self) -> int:
        return len(self._edges)

    @property
    def edge_ids(self) -> Iterable[int]:
        return self._edges.keys()

    def arcs(self) -> ItemsView[int, tuple[int, int]]:
        """Live (edge id, (tail, head)) view in ascending id order; no copy."""
        return self._edges.items()

    def endpoints(self, eid: int) -> tuple[int, int]:
        try:
            return self._edges[eid]
        except KeyError:
            raise InputError(f"unknown edge id {eid}") from None

    def edges(self) -> Iterator[Edge]:
        """One ``Edge`` per edge, by id; loops over many edges use ``arcs()``."""
        for eid, (t, h) in self._edges.items():
            yield Edge(eid, t, h)

    def vertices(self) -> range:
        return range(self.n)

    def undirected_adj(self) -> list[list[tuple[int, int]]]:
        """Per-vertex (edge id, other endpoint) lists, loops excluded, by edge id.

        Cached; this is the workhorse structure for all traversals.
        """
        if self._adj is None:
            adj: list[list[tuple[int, int]]] = [[] for _ in range(self.n)]
            for eid, (t, h) in self._edges.items():
                if t != h:
                    adj[t].append((eid, h))
                    adj[h].append((eid, t))
            self._adj = adj
        return self._adj

    def drop_adjacency(self) -> None:
        """Release the cached adjacency; the next ``undirected_adj()`` rebuilds it."""
        self._adj = None

    def _check_vertex(self, v: int) -> None:
        if not (0 <= v < self.n):
            raise InputError(f"unknown vertex id {v} (n={self.n})")

    # -- derived graphs --------------------------------------------------

    def contract(self, s: Iterable[int]) -> tuple["Multigraph", list[int]]:
        """Contract the edge set S, keeping surviving edge ids and orientations.

        One result vertex per connected component of the spanning subgraph
        (V, S), found by union-find and numbered 0, 1, ... by smallest
        member. Edges whose remapped endpoints coincide become loops and are
        kept. Returns G/S and the vertex image: ``image[v]`` is the vertex
        of G/S that v was merged into.
        """
        s = frozenset(s)
        parent = list(range(self.n))

        def find(a: int) -> int:
            while parent[a] != a:
                parent[a] = parent[parent[a]]
                a = parent[a]
            return a

        for eid in s:
            if eid not in self._edges:
                raise InputError(f"unknown edge id {eid} in contraction set")
            t, h = self._edges[eid]
            rt, rh = find(t), find(h)
            if rt != rh:
                if rt < rh:
                    parent[rh] = rt
                else:
                    parent[rt] = rh
        image = [0] * self.n
        assigned: dict[int, int] = {}
        for v in range(self.n):
            image[v] = assigned.setdefault(find(v), len(assigned))
        edges = {
            eid: (image[t], image[h])
            for eid, (t, h) in self._edges.items()
            if eid not in s
        }
        return Multigraph(len(assigned), edges), image

    def delete_vertex(self, u: int) -> "Multigraph":
        """G - u: drop every edge at u and keep every vertex id.

        u stays behind as an isolated vertex, so vertex ids and edge ids on
        G - u are those of G, and results on it (bridges, components,
        paths) transfer back to G unchanged.
        """
        self._check_vertex(u)
        edges = {eid: ends for eid, ends in self._edges.items() if u not in ends}
        return Multigraph(self.n, edges)

    # -- misc ------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Multigraph):
            return NotImplemented
        return self.n == other.n and self._edges == other._edges

    def __repr__(self) -> str:
        return f"Multigraph(n={self.n}, edges={dict(self._edges)!r})"
