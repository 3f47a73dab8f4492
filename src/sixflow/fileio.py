"""Text formats for graphs and flow solutions.

Graph files are DIMACS-like::

    c optional comments
    p nzf <n> <m>
    e <tail> <head>        (m lines; edge ids are 0..m-1 in file order)

Flow files carry one solution per file::

    s SOLUTION root=<u>
    f <edge_id> <tail> <head> <f2> <f3> <z6> <int6>

The machine-readable variant is a single JSON document with the same fields.
Internal consistency (z6 = pairing of f2/f3, int6 congruent to z6 mod 6,
value ranges) is enforced on read, independent of any graph.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import chain
from operator import itemgetter
from typing import NamedTuple

from .errors import InputError
from .flows import GroupFlow, IntegerFlow
from .multigraph import Multigraph
from .tutte import pair_to_z6


class FlowEntry(NamedTuple):
    edge_id: int
    tail: int
    head: int
    f2: int
    f3: int
    z6: int
    int6: int


@dataclass(frozen=True)
class FlowDocument:
    root: int
    entries: tuple[FlowEntry, ...]

    def group_flow(self) -> GroupFlow:
        return {e.edge_id: (e.f2, e.f3) for e in self.entries}

    def integer_flow(self) -> IntegerFlow:
        return {e.edge_id: e.int6 for e in self.entries}


def parse_graph(text: str) -> Multigraph:
    n = m = None
    arcs: list[tuple[int, int]] = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        parts = line.split()
        if parts[0] == "p":
            if n is not None:
                raise InputError(f"line {lineno}: duplicate header")
            if len(parts) != 4 or parts[1] != "nzf":
                raise InputError(f"line {lineno}: malformed header {line!r}")
            n, m = _int(parts[2], lineno), _int(parts[3], lineno)
            if n < 1 or m < 0:
                raise InputError(f"line {lineno}: bad sizes in header")
        elif parts[0] == "e":
            if n is None:
                raise InputError(f"line {lineno}: edge before header")
            if len(parts) != 3:
                raise InputError(f"line {lineno}: malformed edge line {line!r}")
            arcs.append((_int(parts[1], lineno), _int(parts[2], lineno)))
        else:
            raise InputError(f"line {lineno}: unknown record {parts[0]!r}")
    if n is None:
        raise InputError("missing 'p nzf' header")
    if len(arcs) != m:
        raise InputError(f"header promises {m} edges, file has {len(arcs)}")
    return Multigraph.build(n, arcs)


def format_graph(g: Multigraph) -> str:
    lines = [f"p nzf {g.n} {g.m}"]
    lines.extend(f"e {t} {h}" for _, (t, h) in sorted(g.arcs()))
    return "\n".join(lines) + "\n"


def build_flow_document(
    g: Multigraph, root: int, f: GroupFlow, int6: IntegerFlow
) -> FlowDocument:
    entries = []
    for eid, (t, h) in sorted(g.arcs()):
        a, b = f[eid]
        entries.append(FlowEntry(eid, t, h, a, b, pair_to_z6((a, b)), int6[eid]))
    return FlowDocument(root=root, entries=tuple(entries))


def format_flow(doc: FlowDocument, fmt: str = "text") -> str:
    if fmt == "machine":
        payload = {
            "root": doc.root,
            "edges": [
                {
                    "id": e.edge_id, "tail": e.tail, "head": e.head,
                    "f2": e.f2, "f3": e.f3, "z6": e.z6, "int6": e.int6,
                }
                for e in doc.entries
            ],
        }
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if fmt != "text":
        raise InputError(f"unknown format {fmt!r}")
    lines = [f"s SOLUTION root={doc.root}"]
    lines.extend(
        f"f {e.edge_id} {e.tail} {e.head} {e.f2} {e.f3} {e.z6} {e.int6}"
        for e in doc.entries
    )
    return "\n".join(lines) + "\n"


def parse_flow(text: str) -> FlowDocument:
    stripped = text.lstrip()
    if stripped.startswith("{"):
        return _parse_flow_json(stripped)
    root = None
    entries = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        parts = line.split()
        if parts[0] == "s":
            if root is not None:
                raise InputError(f"line {lineno}: duplicate solution header")
            if len(parts) != 3 or parts[1] != "SOLUTION" or not parts[2].startswith("root="):
                raise InputError(f"line {lineno}: malformed solution header")
            root = _int(parts[2][5:], lineno)
        elif parts[0] == "f":
            if len(parts) != 8:
                raise InputError(f"line {lineno}: malformed flow line {line!r}")
            vals = [_int(p, lineno) for p in parts[1:]]
            entries.append(FlowEntry._make(vals))
        else:
            raise InputError(f"line {lineno}: unknown record {parts[0]!r}")
    if root is None:
        raise InputError("missing 's SOLUTION' header")
    doc = FlowDocument(root=root, entries=tuple(entries))
    _validate_flow_document(doc)
    return doc


_JSON_FIELDS = ("id", "tail", "head", "f2", "f3", "z6", "int6")
_json_row = itemgetter(*_JSON_FIELDS)


def _parse_flow_json(text: str) -> FlowDocument:
    try:
        payload = json.loads(text)
        root = payload["root"]
        rows = list(map(_json_row, payload["edges"]))
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"malformed machine-readable flow file: {exc}") from None
    # Only exact JSON integers pass: bool is an int subclass, and floats or
    # strings would reach arithmetic and vertex lookups.
    if type(root) is not int:
        raise InputError(f"root value {root!r} is not an integer")
    if set(map(type, chain.from_iterable(rows))) - {int}:
        i, key, value = next(
            (i, key, value)
            for i, row in enumerate(rows)
            for key, value in zip(_JSON_FIELDS, row)
            if type(value) is not int
        )
        raise InputError(f"edges[{i}]: {key} value {value!r} is not an integer")
    doc = FlowDocument(root=root, entries=tuple(map(FlowEntry._make, rows)))
    _validate_flow_document(doc)
    return doc


def _validate_flow_document(doc: FlowDocument) -> None:
    seen = set()
    for e in doc.entries:
        where = f"edge {e.edge_id}"
        if e.edge_id in seen:
            raise InputError(f"{where}: duplicate edge id")
        seen.add(e.edge_id)
        if e.f2 not in (0, 1):
            raise InputError(f"{where}: f2 value {e.f2} out of range")
        if e.f3 not in (0, 1, 2):
            raise InputError(f"{where}: f3 value {e.f3} out of range")
        if e.z6 != pair_to_z6((e.f2, e.f3)):
            raise InputError(f"{where}: z6 value {e.z6} does not match ({e.f2}, {e.f3})")
        if not 0 < abs(e.int6) <= 5:
            raise InputError(f"{where}: int6 value {e.int6} out of range")
        if e.int6 % 6 != e.z6:
            raise InputError(f"{where}: int6 value {e.int6} not congruent to z6 {e.z6}")


def flow_matches_graph(doc: FlowDocument, g: Multigraph) -> bool:
    if len(doc.entries) != g.m:
        return False
    for e in doc.entries:
        if not g.has_edge(e.edge_id):
            return False
        if g.endpoints(e.edge_id) != (e.tail, e.head):
            return False
    return True


def _int(token: str, lineno: int) -> int:
    try:
        return int(token)
    except ValueError:
        raise InputError(f"line {lineno}: expected an integer, got {token!r}") from None
