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

A ``FlowDocument`` is the root plus one column per field of the ``f`` lines
(edge id, tail, head, f2, f3, z6, int6), each a tuple in file order. The
readers and ``build_flow_document`` fill the columns directly, and the
writers and checks zip them, so the document holds no per-edge record.

Each file is read with whole-list operations, not a Python loop per line.
The body is split into tokens once. The token count of each line is taken
from the layout when the file is laid out as the writers lay it out (one
record per line, "\\n" the only line end, no comments; see ``_tokens``), and
otherwise by splitting each line once more (comment lines, whose first
token starts with ``c``, are dropped first). Both accept the same files.
Every line of a valid file holds a fixed number of tokens
(4, then 3 per edge, in a graph; 3 for the header and 8 per edge in a
flow), so the record kinds and the value columns are strided slices of the
one token list. Each column is checked as a whole: line lengths and kinds,
counts, endpoint ranges (the least and greatest distinct endpoint), and
the set of value tuples. Every file these checks accept is parsed by this
pass alone. A file they reject is walked again line by line (or edge by
edge) only to name its first fault, and that walk raises on every path.
Each distinct token is converted once: the tail and head columns through
a memo made for each call, and a flow line's four value tokens as one key
of a table of the ten valid rows; edge ids are unique and keep
``map(int, ...)``. Writing is one format per record, joined
once, and the part a value row fixes comes from a table too: the text
line's end, or the machine entry laid out as ``json.dumps(..., indent=2,
sort_keys=True)`` lays it out (its encoder runs in pure Python once
``indent`` is set). A table (``FixedTable``) computes a key outside it, say
``+1`` or a row out of range, on each lookup as ``int`` or ``%`` would, and
never stores it.

A machine file in the writer's layout is read by line stride too, one
chunk of about ``_CHUNK`` characters at a time (see
``_read_machine_layout``), so its transient memory is bounded by a chunk's
lines rather than by one object per edge. Each of its lines is accepted
only as the writer writes it, so any other JSON, and any other spelling of
a value, goes through ``json.loads``; both give the same document, or the
same error.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import chain
from operator import itemgetter
from typing import NoReturn, Optional

from ._collector import paused
from .errors import InputError, InternalCheckError
from .flows import GroupFlow, IntegerFlow
from .multigraph import Multigraph
from .tutte import Z6_OF_PAIR, FixedTable, pair_to_z6


# Every (f2, f3, z6, int6) a valid entry can hold: f2 in Z2, f3 in Z3,
# z6 their pairing, 0 < |int6| <= 5 and int6 congruent to z6 mod 6.
_VALID_VALUES = frozenset(
    (a, b, pair_to_z6((a, b)), v)
    for a in range(2)
    for b in range(3)
    for v in range(-5, 6)
    if v and v % 6 == pair_to_z6((a, b))
)


class _Ints(dict):
    """token -> int(token), each distinct token converted once."""

    def __missing__(self, token):
        self[token] = value = int(token)
        return value


@dataclass(frozen=True)
class FlowDocument:
    """A flow file's root and its columns, each a tuple in file order."""

    root: int
    edge_id: tuple[int, ...]
    tail: tuple[int, ...]
    head: tuple[int, ...]
    f2: tuple[int, ...]
    f3: tuple[int, ...]
    z6: tuple[int, ...]
    int6: tuple[int, ...]

    @paused
    def group_flow(self) -> GroupFlow:
        return dict(zip(self.edge_id, zip(self.f2, self.f3)))

    @paused
    def integer_flow(self) -> IntegerFlow:
        return dict(zip(self.edge_id, self.int6))


# The line boundaries of str.splitlines that are ASCII, other than "\n".
_OTHER_BREAKS = "\r\x0b\x0c\x1c\x1d\x1e"


def _tokens(text: str, letter: str, head: int, width: int) -> tuple[list[str], list[int]]:
    """The tokens of the lines that are neither blank nor comments, in file
    order, and how many tokens each of those lines holds.

    A file in the writer's layout, a ``head``-token first line and then k
    lines of ``width`` tokens, each starting with ``letter``, gets its counts
    from that layout, without a split of each line.
    """
    lines = None
    if "c" in text:  # without a "c" no line can be a comment
        lines = [line for line in text.splitlines() if not line.lstrip().startswith("c")]
        text = "\n".join(lines)
    tokens = text.split()
    if lines is None:
        # The layout: ASCII (so no line break of str.splitlines outside
        # ASCII), "\n" the only line break, every line after the first
        # starting with the letter, and the token count this implies. The
        # counts taken are exact for every file that passes a reader's token
        # checks: those pass only when every stride-position token is the
        # letter and every other token converts to a number, and no token
        # that starts with the letter converts. So each of the k lines' first
        # tokens sits on one of the k stride positions, in order, and each
        # line holds exactly ``width`` tokens. A file that fails them goes to
        # the reader's line walk, which names the same line with the same
        # message either way.
        records = text.count("\n" + letter)
        if (len(tokens) == head + width * records and text.isascii()
                and records == text.count("\n") - text.endswith("\n")
                and not any(map(text.__contains__, _OTHER_BREAKS))):
            return tokens, [head] + [width] * records
        lines = text.splitlines()
    return tokens, list(filter(None, map(len, map(str.split, lines))))


@paused
def parse_graph(text: str) -> Multigraph:
    tokens, counts = _tokens(text, "e", 4, 3)
    try:
        p, nzf, n, m = tokens[:4]
        n, m = int(n), int(m)
        body = tokens[4:]
        ints = _Ints()
        tails, heads = (list(map(ints.__getitem__, body[1::3])),
                        list(map(ints.__getitem__, body[2::3])))
    except ValueError:
        _reject_graph(text)
    edges = len(counts) - 1
    if (p != "p" or nzf != "nzf" or n < 0 or m < 0 or counts[0] != 4
            or counts.count(3) != edges or body[0::3].count("e") != edges):
        _reject_graph(text)
    if edges != m:
        raise InputError(f"header promises {m} edges, file has {edges}")
    ends = ints.values()  # each distinct endpoint once
    if ends and not (0 <= min(ends) and max(ends) < n):
        return Multigraph.build(n, zip(tails, heads))  # raises, naming the first such edge
    return Multigraph(n, dict(enumerate(zip(tails, heads))))


def _reject_graph(text: str) -> NoReturn:
    """Raise the error of the first bad line of a graph file."""
    n = None
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
            if n < 0 or m < 0:
                raise InputError(f"line {lineno}: bad sizes in header")
        elif parts[0] == "e":
            if n is None:
                raise InputError(f"line {lineno}: edge before header")
            if len(parts) != 3:
                raise InputError(f"line {lineno}: malformed edge line {line!r}")
            for token in parts[1:]:
                _int(token, lineno)
        else:
            raise InputError(f"line {lineno}: unknown record {parts[0]!r}")
    if n is None:
        raise InputError("missing 'p nzf' header")
    raise InternalCheckError("graph file rejected, but no line of it is bad")


def format_graph(g: Multigraph) -> str:
    edges = map("e %s %s".__mod__, map(itemgetter(1), g.arcs()))
    return "\n".join(chain((f"p nzf {g.n} {g.m}",), edges)) + "\n"


@paused
def build_flow_document(
    g: Multigraph, root: int, f: GroupFlow, int6: IntegerFlow
) -> FlowDocument:
    first, second = itemgetter(0), itemgetter(1)
    ids = tuple(g.edge_ids)
    ends = list(map(second, g.arcs()))
    pairs = list(map(f.__getitem__, ids))
    return FlowDocument(
        root, ids, tuple(map(first, ends)), tuple(map(second, ends)),
        tuple(map(first, pairs)), tuple(map(second, pairs)),
        tuple(map(Z6_OF_PAIR.__getitem__, pairs)), tuple(map(int6.__getitem__, ids)),
    )


# One machine-format entry, exactly as json.dumps(..., indent=2,
# sort_keys=True) lays it out, with its fields in sorted key order. Its
# value row (f2, f3, z6, int6) fills it in once, leaving head, id and tail.
_JSON_ENTRY = (
    '    {\n      "f2": %d,\n      "f3": %d,\n      "head": %s,\n      "id": %s,\n'
    '      "int6": %d,\n      "tail": %s,\n      "z6": %d\n    }'
)
_JSON_ENTRY_OF_ROW = FixedTable(lambda row: _JSON_ENTRY % (
    row[0], row[1], "%d", "%d", row[3], "%d", row[2]), _VALID_VALUES)
# The end of a text ``f`` line, " f2 f3 z6 int6", for each value row.
_TEXT_SUFFIX_OF_ROW = FixedTable(" %s %s %s %s".__mod__, _VALID_VALUES)
# A text line's four value tokens, spelled as written above, to their row.
_ROW_OF_TOKENS = FixedTable(lambda tokens: tuple(map(int, tokens)),
                            [tuple(map(str, row)) for row in _VALID_VALUES])


@paused
def format_flow(doc: FlowDocument, fmt: str = "text") -> str:
    if fmt == "machine":
        if not doc.edge_id:
            return '{\n  "edges": [],\n  "root": %d\n}\n' % doc.root
        entries = map(_JSON_ENTRY_OF_ROW.__getitem__, zip(doc.f2, doc.f3, doc.z6, doc.int6))
        edges = ",\n".join(map(str.__mod__, entries, zip(doc.head, doc.edge_id, doc.tail)))
        return '{\n  "edges": [\n%s\n  ],\n  "root": %d\n}\n' % (edges, doc.root)
    if fmt != "text":
        raise InputError(f"unknown format {fmt!r}")
    suffixes = map(_TEXT_SUFFIX_OF_ROW.__getitem__, zip(doc.f2, doc.f3, doc.z6, doc.int6))
    lines = map("f %s %s %s%s".__mod__, zip(doc.edge_id, doc.tail, doc.head, suffixes))
    return "\n".join(chain((f"s SOLUTION root={doc.root}",), lines)) + "\n"


@paused
def parse_flow(text: str) -> FlowDocument:
    stripped = text.lstrip()
    if stripped.startswith("{"):
        return _parse_flow_json(stripped)
    tokens, counts = _tokens(text, "f", 3, 8)
    try:
        start = 8 * counts.index(3)  # the header, if every other line holds 8
        s, solution, root_field = tokens[start:start + 3]
        root = int(root_field[5:])
        body = tokens[:start] + tokens[start + 3:]
        ints = _Ints().__getitem__
        ends = [tuple(map(ints, body[i::8])) for i in (2, 3)]
        rows = list(map(_ROW_OF_TOKENS.__getitem__, zip(*(body[i::8] for i in range(4, 8)))))
        columns = [tuple(map(int, body[1::8])), *ends, *(zip(*rows) if rows else [()] * 4)]
    except ValueError:
        _reject_flow(text)
    edges = len(counts) - 1
    if (s != "s" or solution != "SOLUTION" or not root_field.startswith("root=")
            or counts.count(8) != edges or body[0::8].count("f") != edges):
        _reject_flow(text)
    doc = FlowDocument(root, *columns)
    _validate_flow_document(doc)
    return doc


def _reject_flow(text: str) -> NoReturn:
    """Raise the error of the first bad line of a text flow file."""
    root = None
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
            for token in parts[1:]:
                _int(token, lineno)
        else:
            raise InputError(f"line {lineno}: unknown record {parts[0]!r}")
    if root is None:
        raise InputError("missing 's SOLUTION' header")
    raise InternalCheckError("flow file rejected, but no line of it is bad")


_JSON_FIELDS = ("id", "tail", "head", "f2", "f3", "z6", "int6")
_json_row = itemgetter(*_JSON_FIELDS)

# The writer's machine layout, line by line: the document's first lines, an
# entry's nine lines (its opening brace, the seven field lines with a %d for
# the value, its closing brace), the lines after the last entry, and the
# whole file of an empty document, each up to its root.
_JSON_OPEN = '{\n  "edges": [\n'
_ENTRY_LINES = _JSON_ENTRY.replace("%s", "%d").split("\n")
_JSON_CLOSE = '\n  ],\n  "root": '
_JSON_EMPTY = '{\n  "edges": [],\n  "root": '
# An entry's f2, f3, int6 and z6 lines, as written, to their value row.
_ROW_OF_LINES = {
    tuple(_ENTRY_LINES[i] % value for i, value in zip((1, 2, 5, 7), (a, b, v, z))): (a, b, z, v)
    for a, b, z, v in _VALID_VALUES
}
# About how many characters of entries each pass of the layout reader takes.
_CHUNK = 1 << 16


class _LineInts(dict):
    """line -> the int that ``form % value`` writes as that line, each distinct
    line converted once; ValueError for a line that no int writes. The form
    ends in "%d,", as an entry's head and tail lines do."""

    def __init__(self, form: str):
        self.form = form
        self.digits = slice(form.index("%"), -1)

    def __missing__(self, line):
        value = int(line[self.digits])
        if self.form % value != line:  # "+1", "01", "-0", "1_0", other digits, spaces
            raise ValueError(line)
        self[line] = value
        return value


def _read_machine_layout(text: str) -> Optional[FlowDocument]:
    """The document of a file laid out exactly as ``format_flow(doc,
    "machine")`` lays it out, or None for any other text.

    The entries are read a chunk of about ``_CHUNK`` characters at a time, cut
    after an entry's closing line, so a chunk's lines hold whole entries and
    each field is a stride-9 slice of them. Every line is checked against
    what the writer puts there, so an accepted text is the writer's output
    of the document returned, which ``json.loads`` reads the same way.
    """
    if text.startswith(_JSON_EMPTY):
        return _layout_document(text, len(_JSON_EMPTY), [()] * 7)
    end = text.rfind(_JSON_CLOSE)
    if not text.startswith(_JSON_OPEN) or end < len(_JSON_OPEN):
        return None
    brace, _, _, head, eid, _, tail, _, last = _ENTRY_LINES
    closing = last + ","  # the closing line of every entry but the last
    cut_at = "\n" + closing + "\n"
    id_digits = itemgetter(slice(eid.index("%"), -1))
    heads, tails = _LineInts(head), _LineInts(tail)
    ids, tail_column, head_column, rows = [], [], [], []
    pos = len(_JSON_OPEN)
    try:
        while True:
            cut = text.find(cut_at, pos + _CHUNK, end)
            lines = text[pos:end if cut < 0 else cut + len(closing) + 1].split("\n")
            k = len(lines) // 9
            if (len(lines) != 9 * k or lines[0::9].count(brace) != k
                    or lines[8::9].count(closing) != k - (cut < 0)
                    or lines[-1] != (last if cut < 0 else closing)):
                return None
            id_lines = lines[4::9]
            chunk_ids = list(map(int, map(id_digits, id_lines)))
            # each line as %d writes its value: "\n" is in no line, so the
            # joined columns are equal exactly when every line is
            if "\n".join([eid] * k) % tuple(chunk_ids) != "\n".join(id_lines):
                return None
            ids += chunk_ids
            tail_column += map(tails.__getitem__, lines[6::9])
            head_column += map(heads.__getitem__, lines[3::9])
            rows += map(_ROW_OF_LINES.__getitem__,
                        zip(lines[1::9], lines[2::9], lines[5::9], lines[7::9]))
            if cut < 0:
                break
            pos = cut + len(cut_at)
    except (KeyError, ValueError):
        return None
    return _layout_document(text, end + len(_JSON_CLOSE),
                            [ids, tail_column, head_column, *zip(*rows)])


def _layout_document(text: str, start: int, columns: list) -> Optional[FlowDocument]:
    """The document of the root and columns if the text ends from ``start``
    with its root and closing brace as the writer ends it, or None."""
    field = text[start:-3]
    try:
        root = int(field)
    except ValueError:
        return None
    if not text.endswith("\n}\n") or "%d" % root != field:
        return None
    doc = FlowDocument(root, *map(tuple, columns))
    _validate_flow_document(doc)
    return doc


def _parse_flow_json(text: str) -> FlowDocument:
    doc = _read_machine_layout(text)
    if doc is not None:
        return doc
    try:
        payload = json.loads(text)
        root = payload["root"]
        rows = list(map(_json_row, payload["edges"]))
    except (KeyError, TypeError, ValueError, RecursionError) as exc:
        raise InputError(f"malformed machine-readable flow file: {exc}") from None
    # Only exact JSON integers pass: bool is an int subclass, and floats or
    # strings would reach arithmetic and vertex lookups.
    if type(root) is not int:
        raise InputError(f"root value {root!r} is not an integer")
    columns = [tuple(map(itemgetter(i), rows)) for i in range(7)]
    if not all({int}.issuperset(map(type, column)) for column in columns):
        i, key, value = next(
            (i, key, value)
            for i, row in enumerate(rows)
            for key, value in zip(_JSON_FIELDS, row)
            if type(value) is not int
        )
        raise InputError(f"edges[{i}]: {key} value {value!r} is not an integer")
    doc = FlowDocument(root, *columns)
    _validate_flow_document(doc)
    return doc


def _validate_flow_document(doc: FlowDocument) -> None:
    values = zip(doc.f2, doc.f3, doc.z6, doc.int6)
    if len(set(doc.edge_id)) == len(doc.edge_id) and set(values) <= _VALID_VALUES:
        return
    seen = set()
    for eid, f2, f3, z6, int6 in zip(doc.edge_id, doc.f2, doc.f3, doc.z6, doc.int6):
        where = f"edge {eid}"
        if eid in seen:
            raise InputError(f"{where}: duplicate edge id")
        seen.add(eid)
        if f2 not in (0, 1):
            raise InputError(f"{where}: f2 value {f2} out of range")
        if f3 not in (0, 1, 2):
            raise InputError(f"{where}: f3 value {f3} out of range")
        if z6 != pair_to_z6((f2, f3)):
            raise InputError(f"{where}: z6 value {z6} does not match ({f2}, {f3})")
        if not 0 < abs(int6) <= 5:
            raise InputError(f"{where}: int6 value {int6} out of range")
        if int6 % 6 != z6:
            raise InputError(f"{where}: int6 value {int6} not congruent to z6 {z6}")
    raise InternalCheckError("flow entries rejected, but no entry of them is bad")


@paused
def flow_matches_graph(doc: FlowDocument, g: Multigraph) -> bool:
    arcs = zip(doc.edge_id, zip(doc.tail, doc.head))
    return len(doc.edge_id) == g.m and all(map(g.arcs().__contains__, arcs))


def _int(token: str, lineno: int) -> int:
    try:
        return int(token)
    except ValueError:
        raise InputError(f"line {lineno}: expected an integer, got {token!r}") from None
