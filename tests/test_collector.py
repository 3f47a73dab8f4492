"""The solve and verify layers run with the cyclic garbage collector paused.

The pause rests on a premise, that these layers leave no reference cycle
for the collector to find, and must leave the collector's state as the
caller had it, whatever the call does.
"""

import gc
import io
from contextlib import redirect_stdout

import pytest

from sixflow import InputError, Multigraph, StructuralError, construct, fileio, flows, tutte
from sixflow._collector import paused
from sixflow.cli import main
from sixflow.testkit import grid, random_2ec_multigraph

from test_cli import PATH

GRAPHS = {
    "ear": (random_2ec_multigraph(200, 60, 3), 0),
    "dense": (random_2ec_multigraph(14, 2_000, 1), 5),
    "grid": (grid(6, 7), 0),
    "two-vertex": (Multigraph.build(2, [(0, 1), (1, 0), (0, 1), (0, 0)]), 1),
}
DISCONNECTED = "p nzf 4 4\ne 0 1\ne 1 0\ne 2 3\ne 3 2\n"


def solve_path(text, root, debug=False):
    """What ``sixflow solve`` does, in both formats; the outputs."""
    g = fileio.parse_graph(text)
    flow, _ = construct.solve(g, root, debug=debug)
    int6 = tutte.group_flow_to_integer_flow(g, tutte.group_flow_to_z6(flow))
    doc = fileio.build_flow_document(g, root, flow, int6)
    return fileio.format_flow(doc, "text"), fileio.format_flow(doc, "machine")


def verify_path(text, flow_text):
    """What ``sixflow verify`` does in its three modes."""
    g = fileio.parse_graph(text)
    doc = fileio.parse_flow(flow_text)
    assert fileio.flow_matches_graph(doc, g)
    f = doc.group_flow()
    assert flows.flow_violation(g, f) is None and flows.zero_edge(f) is None
    assert flows.rooted_violation(g, doc.root, f) is None
    assert flows.k_flow_violation(g, doc.integer_flow(), 6) is None


def cycles_left_by(call, *args):
    """What the collector finds to free after ``call(*args)``, with the
    collector kept off throughout, so only the call's own garbage counts."""
    gc.collect()
    gc.disable()
    try:
        try:
            call(*args)
        except (InputError, StructuralError):
            pass
        return gc.collect()
    finally:
        gc.enable()


class TestNoCycles:
    @pytest.mark.parametrize("debug", [False, True], ids=["plain", "debug"])
    @pytest.mark.parametrize("name", GRAPHS)
    def test_solve_and_verify_paths(self, name, debug):
        g, root = GRAPHS[name]
        text = fileio.format_graph(g)
        assert cycles_left_by(solve_path, text, root, debug) == 0
        for flow_text in solve_path(text, root):
            assert cycles_left_by(verify_path, text, flow_text) == 0

    @pytest.mark.parametrize("text", [PATH, DISCONNECTED, "p nzf 2 1\ne 0 one\n"],
                             ids=["bridge", "disconnected", "malformed-token"])
    def test_error_paths(self, text):
        with pytest.raises((InputError, StructuralError)):
            solve_path(text, 0)
        assert cycles_left_by(solve_path, text, 0) == 0

    def test_malformed_flow(self):
        g, root = GRAPHS["grid"]
        with pytest.raises(InputError):
            fileio.parse_flow("s SOLUTION root=0\nf 0 0 1 0 1 4 x\n")
        assert cycles_left_by(verify_path, fileio.format_graph(g),
                              "s SOLUTION root=0\nf 0 0 1 0 1 4 x\n") == 0


def decorated_calls():
    """One call of each function that runs paused, as (name, thunk)."""
    g, root = GRAPHS["grid"]
    text = fileio.format_graph(g)
    flow, _ = construct.solve(g, root)
    z6 = tutte.group_flow_to_z6(flow)
    int6 = tutte.group_flow_to_integer_flow(g, z6)
    doc = fileio.build_flow_document(g, root, flow, int6)
    flow_text = fileio.format_flow(doc)
    return {
        "parse_graph": lambda: fileio.parse_graph(text),
        "solve": lambda: construct.solve(g, root),
        "group_flow_to_z6": lambda: tutte.group_flow_to_z6(flow),
        "group_flow_to_integer_flow": lambda: tutte.group_flow_to_integer_flow(g, z6),
        "build_flow_document": lambda: fileio.build_flow_document(g, root, flow, int6),
        "format_flow": lambda: fileio.format_flow(doc, "machine"),
        "parse_flow": lambda: fileio.parse_flow(flow_text),
        "flow_matches_graph": lambda: fileio.flow_matches_graph(doc, g),
        "group_flow": doc.group_flow,
        "integer_flow": doc.integer_flow,
        "flow_violation": lambda: flows.flow_violation(g, flow),
        "zero_edge": lambda: flows.zero_edge(flow),
        "rooted_violation": lambda: flows.rooted_violation(g, root, flow),
        "k_flow_violation": lambda: flows.k_flow_violation(g, int6, 6),
        "parse_graph-raises-InputError": lambda: fileio.parse_graph("p nzf 2 1\ne 0 one\n"),
        "solve-raises-StructuralError": lambda: construct.solve(fileio.parse_graph(PATH), 0),
    }


CALLS = decorated_calls()


class TestCollectorState:
    @pytest.mark.parametrize("name", CALLS)
    @pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
    def test_restored_after_the_call(self, name, enabled):
        (gc.enable if enabled else gc.disable)()
        try:
            try:
                CALLS[name]()
            except (InputError, StructuralError):
                assert "raises" in name
            assert gc.isenabled() is enabled
        finally:
            gc.enable()

    def test_off_inside_and_nested(self):
        @paused
        def inner():
            return gc.isenabled()

        @paused
        def outer():
            return inner(), gc.isenabled()

        assert gc.isenabled()
        assert outer() == (False, False)
        assert gc.isenabled()
        assert outer.__name__ == "outer"


def test_collector_runs_on_the_criterion_7_paths(tmp_path):
    # The criterion-7 shape: 60 vertices, 100,000 edges. Unpaused, the solve
    # path started 435 collector runs and the verify path 427; a pause that
    # misses a layer lets the first container that layer allocates start a
    # run over everything still alive. Called one layer at a time, a path
    # may start one run, at the boundary after parsing, where the caller
    # allocates; the CLI commands run paused as a whole, so they start none.
    base = random_2ec_multigraph(60, 0, 1)
    text = fileio.format_graph(random_2ec_multigraph(60, 100_000 - base.m, 1))
    graph_file, flow_file = tmp_path / "g.nzf", tmp_path / "g.flow"
    graph_file.write_text(text)
    runs = []

    def count(phase, info):
        if phase == "start":
            runs.append(info["generation"])

    def runs_in(call, *args):
        gc.collect()
        runs.clear()
        result = call(*args)
        return len(runs), result

    def command(*argv):
        with redirect_stdout(io.StringIO()) as out:
            assert main(list(argv)) == 0
            started = len(runs)
        return started, out.getvalue()

    gc.callbacks.append(count)
    try:
        solve_runs, (flow_text, _) = runs_in(solve_path, text, 0)
        verify_runs, _ = runs_in(verify_path, text, flow_text)
        _, (solve_command, flow_text) = runs_in(command, "solve", str(graph_file))
        flow_file.write_text(flow_text)
        _, (verify_command, _) = runs_in(command, "verify", str(graph_file), str(flow_file),
                                         "--mode", "k6")
    finally:
        gc.callbacks.remove(count)
    assert solve_runs <= 1 and verify_runs <= 1
    assert solve_command == verify_command == 0
