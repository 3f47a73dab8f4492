"""The column-wise file readers and writers against line-by-line references.

The references below are the per-line loops the readers and writers
replaced, kept as they were. They read and write one ``Line`` per flow line,
and ``document`` and ``flow_lines`` turn those into a document's columns and
back. Every file, valid or mutated, must get the same graph or flow document
from both, or the same ``InputError`` message, and every writer must produce
the same bytes.
"""

import json
from typing import NamedTuple

from hypothesis import given, settings, strategies as st

from sixflow import InputError, Multigraph
from sixflow.fileio import (
    FlowDocument,
    build_flow_document,
    format_flow,
    format_graph,
    parse_flow,
    parse_graph,
)
from sixflow import fileio, tutte
from sixflow.tutte import FixedTable, pair_to_z6


# -- references --------------------------------------------------------------


class Line(NamedTuple):
    """The fields of one flow line, in file order."""

    edge_id: int
    tail: int
    head: int
    f2: int
    f3: int
    z6: int
    int6: int


def document(root, rows):
    """The flow document of these lines, in order."""
    return FlowDocument(root, *(tuple(row[i] for row in rows) for i in range(7)))


def flow_lines(doc):
    """The lines of a flow document, in order."""
    columns = (doc.edge_id, doc.tail, doc.head, doc.f2, doc.f3, doc.z6, doc.int6)
    return [Line(*values) for values in zip(*columns)]


def reference_parse_graph(text):
    n = m = None
    arcs = []
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
            arcs.append((_int(parts[1], lineno), _int(parts[2], lineno)))
        else:
            raise InputError(f"line {lineno}: unknown record {parts[0]!r}")
    if n is None:
        raise InputError("missing 'p nzf' header")
    if len(arcs) != m:
        raise InputError(f"header promises {m} edges, file has {len(arcs)}")
    edges = {}
    for i, (t, h) in enumerate(arcs):
        if not (0 <= t < n and 0 <= h < n):
            raise InputError(f"edge {i}: endpoint out of range ({t}, {h}) with n={n}")
        edges[i] = (t, h)
    return Multigraph(n, edges)


def reference_parse_flow(text):
    stripped = text.lstrip()
    if stripped.startswith("{"):
        return _reference_parse_flow_json(stripped)
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
            entries.append(Line._make(_int(p, lineno) for p in parts[1:]))
        else:
            raise InputError(f"line {lineno}: unknown record {parts[0]!r}")
    if root is None:
        raise InputError("missing 's SOLUTION' header")
    _reference_validate(entries)
    return document(root, entries)


_JSON_FIELDS = ("id", "tail", "head", "f2", "f3", "z6", "int6")


def _reference_parse_flow_json(text):
    try:
        payload = json.loads(text)
        root = payload["root"]
        rows = [tuple(row[key] for key in _JSON_FIELDS) for row in payload["edges"]]
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"malformed machine-readable flow file: {exc}") from None
    if type(root) is not int:
        raise InputError(f"root value {root!r} is not an integer")
    for i, row in enumerate(rows):
        for key, value in zip(_JSON_FIELDS, row):
            if type(value) is not int:
                raise InputError(f"edges[{i}]: {key} value {value!r} is not an integer")
    entries = list(map(Line._make, rows))
    _reference_validate(entries)
    return document(root, entries)


def _reference_validate(entries):
    seen = set()
    for e in entries:
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


def _int(token, lineno):
    try:
        return int(token)
    except ValueError:
        raise InputError(f"line {lineno}: expected an integer, got {token!r}") from None


def reference_format_graph(g):
    lines = [f"p nzf {g.n} {g.m}"]
    lines.extend(f"e {t} {h}" for _, (t, h) in sorted(g.arcs()))
    return "\n".join(lines) + "\n"


def reference_build_flow_document(g, root, f, int6):
    entries = []
    for eid, (t, h) in sorted(g.arcs()):
        a, b = f[eid]
        entries.append(Line(eid, t, h, a, b, pair_to_z6((a, b)), int6[eid]))
    return document(root, entries)


def reference_format_flow(doc, fmt="text"):
    if fmt == "machine":
        payload = {
            "root": doc.root,
            "edges": [
                {
                    "id": e.edge_id, "tail": e.tail, "head": e.head,
                    "f2": e.f2, "f3": e.f3, "z6": e.z6, "int6": e.int6,
                }
                for e in flow_lines(doc)
            ],
        }
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"
    lines = [f"s SOLUTION root={doc.root}"]
    lines.extend(
        f"f {e.edge_id} {e.tail} {e.head} {e.f2} {e.f3} {e.z6} {e.int6}"
        for e in flow_lines(doc)
    )
    return "\n".join(lines) + "\n"


# -- file strategies ---------------------------------------------------------

# Line boundaries of str.splitlines, and whitespace that separates tokens
# (\x1f and \xa0 are whitespace but no line boundary).
LINE_ENDS = ["\n", "\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x1e", "\x85", "\u2028"]
SPACES = [" ", "  ", "\t", " \t", "\x1f", "\xa0"]


@st.composite
def int_tokens(draw, value):
    """A token that ``int`` reads as ``value``."""
    digits = str(abs(value))
    sign = "-" if value < 0 else draw(st.sampled_from(["", "", "+"]))
    style = draw(st.sampled_from(["plain", "plain", "zeros", "underscore", "arabic", "fullwidth"]))
    if style == "zeros":
        digits = "0" * draw(st.integers(1, 2)) + digits
    elif style == "underscore" and len(digits) > 1:
        digits = digits[0] + "_" + digits[1:]
    elif style == "arabic":
        digits = digits.translate(str.maketrans("0123456789", "٠١٢٣٤٥٦٧٨٩"))
    elif style == "fullwidth":
        digits = digits.translate(str.maketrans("0123456789", "０１２３４５６７８９"))
    return sign + digits


@st.composite
def render(draw, records):
    """Lay records (lists of tokens) out as text, with comments, blank
    lines, odd whitespace and mixed line ends between and around them."""
    lines = []
    junk = st.sampled_from(["", "   ", "\t", "c", "c comment", "  c indented", "cxyz 1 2", "\x1f"])
    for tokens in records:
        lines.extend(draw(st.lists(junk, max_size=2)))
        lead = draw(st.sampled_from(["", "", " ", "\t "]))
        trail = draw(st.sampled_from(["", "", " ", "\t"]))
        seps = draw(st.lists(st.sampled_from(SPACES), min_size=len(tokens), max_size=len(tokens)))
        lines.append(lead + "".join(s + t for s, t in zip([""] + seps, tokens)) + trail)
    lines.extend(draw(st.lists(junk, max_size=2)))
    ends = draw(st.lists(st.sampled_from(LINE_ENDS), min_size=len(lines), max_size=len(lines)))
    text = "".join(line + end for line, end in zip(lines, ends))
    return text if draw(st.booleans()) else text.rstrip("\r\n")


@st.composite
def graph_records(draw, min_edges=0):
    n = draw(st.integers(1, 6))
    ends = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    arcs = draw(st.lists(ends, min_size=min_edges, max_size=8))
    header = ["p", "nzf", draw(int_tokens(n)), draw(int_tokens(len(arcs)))]
    return [header] + [["e", draw(int_tokens(t)), draw(int_tokens(h))] for t, h in arcs]


@st.composite
def flow_entries(draw, min_edges=0):
    m = draw(st.integers(min_edges, 6))
    ids = draw(st.permutations(range(m)))
    entries = []
    for eid in ids:
        a, b = draw(st.sampled_from([(0, 1), (0, 2), (1, 0), (1, 1), (1, 2)]))
        z6 = pair_to_z6((a, b))
        int6 = draw(st.sampled_from([z6, z6 - 6]))
        entries.append((eid, draw(st.integers(0, 5)), draw(st.integers(0, 5)), a, b, z6, int6))
    return draw(st.integers(0, 5)), entries


@st.composite
def flow_records(draw, min_edges=0):
    root, entries = draw(flow_entries(min_edges))
    records = [["f", *(draw(int_tokens(v)) for v in e)] for e in entries]
    header = ["s", "SOLUTION", "root=" + draw(int_tokens(root))]
    records.insert(draw(st.integers(0, len(records))), header)
    return records


BAD_TOKENS = ["x", "1.5", "0x1", "--1", "1e3", "½", "e", "p", "node=1", "root=", "root=x"]


@st.composite
def mutated(draw, records, values):
    """Records with one fault: a dropped, doubled or non-integer token, a
    changed value, a doubled, moved or dropped record, two records on one
    line, a token moved across a line end, or a record of an unknown kind."""
    records = [list(r) for r in records]
    i = draw(st.integers(0, len(records) - 1))
    record = records[i]
    kind = draw(st.sampled_from(
        ["drop", "double", "bad", "value", "dup_record", "move", "remove", "join", "shift",
         "unknown"]))
    j = draw(st.integers(0, len(record) - 1))
    if kind == "drop":
        del record[j]
    elif kind == "double":
        record.insert(j, record[j])
    elif kind == "bad":
        record[draw(st.integers(1, len(record) - 1)) if len(record) > 1 else 0] = draw(
            st.sampled_from(BAD_TOKENS))
    elif kind == "value":
        record[draw(st.integers(1, len(record) - 1))] = str(draw(values))
    elif kind == "dup_record":
        records.insert(draw(st.integers(0, len(records))), list(record))
    elif kind == "move":
        records.insert(draw(st.integers(0, len(records) - 1)), records.pop(i))
    elif kind == "remove":
        del records[i]
    elif kind == "join":
        records[i:i + 2] = [sum(records[i:i + 2], [])]
    elif kind == "shift" and i + 1 < len(records):
        # the same tokens in the same order, with one crossing a line end
        if draw(st.booleans()):
            records[i + 1].insert(0, record.pop())
        else:
            record.append(records[i + 1].pop(0))
    elif kind == "unknown":
        record[0] = draw(st.sampled_from(["x", "q", "P", "E", "F", "S"]))
    return records


def outcome(parse, text):
    """The parser's result, or the message of the InputError it raised."""
    try:
        return "ok", parse(text)
    except InputError as exc:
        return "error", str(exc)


GRAPH_VALUES = st.integers(-2, 9)
FLOW_VALUES = st.integers(-7, 7)


class TestGraphParseMatchesReference:
    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_valid_files(self, data):
        text = data.draw(render(data.draw(graph_records())))
        kind, graph = outcome(parse_graph, text)
        reference = outcome(reference_parse_graph, text)
        assert (kind, graph) == reference and kind == "ok"
        assert list(graph.arcs()) == list(reference[1].arcs())

    @settings(max_examples=400, deadline=None)
    @given(st.data())
    def test_mutated_files(self, data):
        records = data.draw(mutated(data.draw(graph_records(2)), GRAPH_VALUES))
        text = data.draw(render(records))
        assert outcome(parse_graph, text) == outcome(reference_parse_graph, text)

    def test_empty_and_comment_only_files(self):
        for text in ("", "\n\n", "c only a comment\n", "  \r\n"):
            assert outcome(parse_graph, text) == outcome(reference_parse_graph, text)

    def test_last_edge_out_of_range(self):
        # every endpoint but the last edge's is in range
        for text, bad in (("p nzf 3 3\ne 0 1\ne 1 2\ne 2 3\n", "(2, 3)"),
                          ("p nzf 3 3\ne 0 1\ne 1 2\ne -1 0", "(-1, 0)")):
            message = f"edge 2: endpoint out of range {bad} with n=3"
            assert outcome(parse_graph, text) == outcome(reference_parse_graph, text) == (
                "error", message)


class TestFlowParseMatchesReference:
    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_valid_files(self, data):
        text = data.draw(render(data.draw(flow_records())))
        kind, doc = outcome(parse_flow, text)
        assert (kind, doc) == outcome(reference_parse_flow, text)
        assert kind == "ok"

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_mutated_files(self, data):
        records = data.draw(mutated(data.draw(flow_records(2)), FLOW_VALUES))
        text = data.draw(render(records))
        assert outcome(parse_flow, text) == outcome(reference_parse_flow, text)

    @settings(max_examples=300, deadline=None)
    @given(flow_entries(), st.integers(0, 7), st.integers(0, 6), FLOW_VALUES)
    def test_machine_files_with_one_changed_value(self, doc, i, field, value):
        root, entries = doc
        rows = [dict(zip(_JSON_FIELDS, e)) for e in entries]
        if rows:
            rows[i % len(rows)][_JSON_FIELDS[field]] = value
        text = json.dumps({"root": root, "edges": rows})
        assert outcome(parse_flow, text) == outcome(reference_parse_flow, text)


@st.composite
def multigraphs(draw):
    """Multigraphs with loops and parallel edges (few vertices, many edges)."""
    n = draw(st.integers(1, 5))
    arcs = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=12))
    return Multigraph.build(n, arcs)


class TestWritersMatchReference:
    @settings(max_examples=200, deadline=None)
    @given(multigraphs())
    def test_format_graph(self, g):
        assert format_graph(g) == reference_format_graph(g)

    @settings(max_examples=200, deadline=None)
    @given(multigraphs(), st.data())
    def test_flow_document_and_format(self, g, data):
        # past the valid rows too, so that rows outside the writers' tables
        # are pinned against the reference as well
        pairs = st.tuples(st.integers(-1, 2), st.integers(-1, 4))
        f = {eid: data.draw(pairs) for eid in g.edge_ids}
        int6 = {eid: data.draw(st.integers(-7, 7)) for eid in g.edge_ids}
        root = data.draw(st.integers(0, g.n - 1))
        doc = build_flow_document(g, root, f, int6)
        assert doc == reference_build_flow_document(g, root, f, int6)
        for fmt in ("text", "machine"):
            assert format_flow(doc, fmt) == reference_format_flow(doc, fmt)

    @settings(max_examples=200, deadline=None)
    @given(flow_entries())
    def test_flow_round_trip(self, drawn):
        # any valid document, not only a solved one, reads back from either
        # format as written; a column out of place in a template fails here
        doc = document(*drawn)
        for fmt in ("text", "machine"):
            assert parse_flow(format_flow(doc, fmt)) == doc

    def test_flow_document_without_entries(self):
        # the property may not draw an edgeless graph; the machine format
        # writes its empty edge list on one line
        for root in (0, 7):
            doc = build_flow_document(Multigraph.build(root + 1, []), root, {}, {})
            assert doc == document(root, [])
            for fmt in ("text", "machine"):
                assert format_flow(doc, fmt) == reference_format_flow(doc, fmt)


def table_sizes():
    """The size of every FixedTable that fileio and tutte hold, by name."""
    return {
        f"{module.__name__}.{name}": len(table)
        for module in (fileio, tutte)
        for name, table in vars(module).items()
        if isinstance(table, FixedTable)
    }


class TestTablesDoNotGrow:
    @settings(max_examples=40, deadline=None)
    @given(multigraphs(), st.data())
    def test_rows_and_tokens_outside_the_tables(self, g, data):
        sizes = table_sizes()  # the six pairs of Z2 x Z3, the ten valid rows
        assert sorted(set(sizes.values())) == [6, 10]
        pairs = st.tuples(st.integers(-3, 4), st.integers(-3, 6))
        f = {eid: data.draw(pairs) for eid in g.edge_ids}
        int6 = {eid: data.draw(st.integers(-9, 9)) for eid in g.edge_ids}
        doc = build_flow_document(g, 0, f, int6)
        tutte.group_flow_to_z6(f)
        for fmt in ("text", "machine"):
            outcome(parse_flow, format_flow(doc, fmt))
        # valid files spelled with "+1", "01", Arabic-Indic or full-width
        # digits, and files with one value changed
        outcome(parse_flow, data.draw(render(data.draw(flow_records()))))
        records = data.draw(mutated(data.draw(flow_records(2)), FLOW_VALUES))
        outcome(parse_flow, data.draw(render(records)))
        assert table_sizes() == sizes
