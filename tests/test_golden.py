"""Golden output digests: the bytes the writers emit for fixed solves, the
solver's flows and traces, and what ``sixflow solve`` prints and returns.

Each group is one sha256 over one record per solve of a fixed suite of
(graph, root) pairs, committed in ``golden.json``; the ``cli`` group's
records are runs of the command instead. A change that alters any
output of a group fails that group's test, so every output change is a
visible diff of the digest file. Regenerate the file, after checking that
the change is meant, with::

    PYTHONPATH=src python tests/test_golden.py

which prints each group as ``changed`` or ``unchanged`` against the
committed file before rewriting it. Name the groups that changed, and why,
with the change.
"""

import hashlib
import io
import json
import random
import sys
from contextlib import redirect_stderr, redirect_stdout
from functools import cache
from itertools import islice
from pathlib import Path

import pytest

from sixflow import Multigraph, enumerate_small_2ec_multigraphs, random_2ec_multigraph, solve
from sixflow.cli import main
from sixflow.fileio import build_flow_document, format_flow, format_graph
from sixflow.testkit import circular_ladder, flower, grid, petersen, with_root_loops
from sixflow.tutte import group_flow_to_integer_flow, group_flow_to_z6

from test_acceptance import _random_suite
from test_cli import GRAPH_ERRORS, PATH

DIGESTS = Path(__file__).with_name("golden.json")


def writer_graphs():
    """Grids, Petersen with and without root loops, flowers, and small
    graphs of the criterion-7 shape (14 vertices, 2-3k edges)."""
    for rows in range(2, 9):
        for cols in range(2, 9):
            yield grid(rows, cols)
    yield petersen()
    yield with_root_loops(petersen(), 0, 3)
    yield flower([2, 3, 1, 4])
    yield flower([1, 1, 5, 2, 2])
    for extra, seed in ((2_000, 1), (2_500, 2), (3_000, 3)):
        yield random_2ec_multigraph(14, extra, seed)


def writer_solves():
    """Every writer graph at every root."""
    for g in writer_graphs():
        for root in g.vertices():
            yield g, root


def criterion_1_solves():
    """The exhaustive criterion-1 suite at every root."""
    for g in enumerate_small_2ec_multigraphs(4, 7):
        for root in g.vertices():
            yield g, root


def criterion_2_solves():
    """The 1,000 random criterion-2 graphs at roots 0 and n // 2."""
    for g in _random_suite():
        for root in sorted({0, g.n // 2}):
            yield g, root


def family_solves():
    """Every writer graph and ``circular_ladder(3..12)`` at every root."""
    yield from writer_solves()
    for k in range(3, 13):
        g = circular_ladder(k)
        for root in g.vertices():
            yield g, root


def ladder_solves():
    """``grid(2, k)`` for k = 2..39, arcs shuffled by one seeded generator,
    at every root."""
    rng = random.Random(5)
    for k in range(2, 40):
        arcs = [ends for _, ends in grid(2, k).arcs()]
        rng.shuffle(arcs)
        g = Multigraph.build(2 * k, arcs)
        for root in g.vertices():
            yield g, root


def formatted(g, root, flow, fmts):
    int6 = group_flow_to_integer_flow(g, group_flow_to_z6(flow))
    doc = build_flow_document(g, root, flow, int6)
    return "".join(format_flow(doc, fmt) for fmt in fmts).encode()


def text_and_machine(g, root, flow, trace):
    return formatted(g, root, flow, ("text", "machine"))


def text(g, root, flow, trace):
    return formatted(g, root, flow, ("text",))


def flow_record(g, root, flow, trace):
    return repr(sorted(flow.items())).encode()


def trace_record(g, root, flow, trace):
    return repr(trace).encode()


def flow_and_trace(g, root, flow, trace):
    return flow_record(g, root, flow, trace) + trace_record(g, root, flow, trace)


# group name -> (its suite of solves, the bytes it records per solve)
GROUPS = {
    "writer": (writer_solves, text_and_machine),
    "c1-flows": (criterion_1_solves, flow_record),
    "c1-trace": (criterion_1_solves, trace_record),
    "c2-text": (criterion_2_solves, text),
    "c2-trace": (criterion_2_solves, trace_record),
    "families-trace": (family_solves, trace_record),
    "ladders": (ladder_solves, flow_and_trace),
}


@cache
def suite_digests(suite):
    """sha256 of every group over ``suite``, from one solve per pair."""
    groups = {name: (hashlib.sha256(), record)
              for name, (of, record) in GROUPS.items() if of is suite}
    for g, root in suite():
        flow, trace = solve(g, root)
        for h, record in groups.values():
            h.update(record(g, root, flow, trace))
    return {name: h.hexdigest() for name, (h, _) in groups.items()}


def cli_runs():
    """``sixflow solve`` argument lists, each with the graph text it reads
    from stdin: every 25th criterion-2 graph at roots 0 and n // 2, and the
    bad graphs of ``test_cli.py``, each in both formats."""
    graphs = [(format_graph(g), sorted({0, g.n // 2}))
              for g in islice(_random_suite(), 0, None, 25)]
    bad = [PATH, "p nzf nope\n", "p nzf 0 0\n", "p wrong 3 3\n",
           *(text for text, _ in GRAPH_ERRORS.values())]
    graphs += [(text, [0]) for text in bad]
    for text, roots in graphs:
        for root in roots:
            for fmt in ("text", "machine"):
                yield ["solve", "-", "--root", str(root), "--format", fmt], text


def run_cli(argv, stdin_text):
    """The exit code, stdout and stderr of one ``sixflow`` run in-process."""
    out, err = io.StringIO(), io.StringIO()
    saved, sys.stdin = sys.stdin, io.StringIO(stdin_text)
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = main(argv)
    finally:
        sys.stdin = saved
    return code, out.getvalue(), err.getvalue()


def cli_digest():
    h = hashlib.sha256()
    for argv, text in cli_runs():
        h.update(repr((argv, *run_cli(argv, text))).encode())
    return h.hexdigest()


def digest(name):
    if name == "cli":
        return cli_digest()
    return suite_digests(GROUPS[name][0])[name]


def test_writer_digest():
    assert digest("writer") == json.loads(DIGESTS.read_text())["writer"]


@pytest.mark.parametrize("name", [name for name in GROUPS if name != "writer"])
def test_solver_digest(name):
    assert digest(name) == json.loads(DIGESTS.read_text())[name]


def test_cli_digest():
    assert digest("cli") == json.loads(DIGESTS.read_text())["cli"]


if __name__ == "__main__":
    committed = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}
    digests = {name: digest(name) for name in (*GROUPS, "cli")}
    for name, value in digests.items():
        print(name, "new" if name not in committed
              else "unchanged" if committed[name] == value else "changed")
    DIGESTS.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n")
