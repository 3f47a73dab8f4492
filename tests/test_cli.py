import io
import json

import pytest

from sixflow import InputError, InternalCheckError, Multigraph, cli
from sixflow.cli import main
from sixflow.fileio import (
    format_flow,
    format_graph,
    parse_flow,
    parse_graph,
)

from conftest import petersen, triangle

TRIANGLE = "p nzf 3 3\ne 0 1\ne 1 2\ne 2 0\n"
PATH = "p nzf 3 2\ne 0 1\ne 1 2\n"
# (1, 1) on every edge of the triangle 0->1->2->0: a nowhere-zero flow, in
# Z6 and as integers, but f2 = 1 at the root
TRIANGLE_FLOW = "s SOLUTION root=0\nf 0 0 1 1 1 1 1\nf 1 1 2 1 1 1 1\nf 2 2 0 1 1 1 1\n"
# Graph files that parse_graph rejects, by name, each with its message.
GRAPH_ERRORS = {
    "duplicate-header": ("p nzf 2 0\np nzf 2 0\n", "line 2: duplicate header"),
    "edge-before-header": ("e 0 1\np nzf 2 1\n", "line 1: edge before header"),
    "malformed-edge": ("p nzf 2 1\ne 0 1 1\n", "line 2: malformed edge line 'e 0 1 1'"),
    "unknown-record": ("p nzf 2 1\nx 0 1\n", "line 2: unknown record 'x'"),
    "unknown-first-record": ("q nzf 2 0\n", "line 1: unknown record 'q'"),
    "non-integer": ("p nzf 2 1\ne 0 one\n", "line 2: expected an integer, got 'one'"),
    "line-past-comments": ("c by hand\np nzf 2 1\nc the edge:\n\ne 0 z\n",
                           "line 5: expected an integer, got 'z'"),
    "malformed-header": ("p nzf 3\n", "line 1: malformed header 'p nzf 3'"),
    "bad-sizes": ("p nzf -1 0\n", "line 1: bad sizes in header"),
    "missing-header": ("c nothing else\n", "missing 'p nzf' header"),
    "edge-count": ("p nzf 3 3\ne 0 1\n", "header promises 3 edges, file has 1"),
    "endpoint-range": ("p nzf 2 1\ne 0 5\n", "edge 0: endpoint out of range (0, 5) with n=2"),
}


def stdin_of(data: bytes):
    """A stand-in for ``sys.stdin`` that reads ``data``."""
    return io.TextIOWrapper(io.BytesIO(data))


class TestGraphFormat:
    def test_roundtrip(self):
        for g in (triangle(), petersen(), Multigraph.build(1, [(0, 0)])):
            assert parse_graph(format_graph(g)) == g

    def test_roundtrip_zero_vertices(self):
        g = Multigraph.build(0, [])
        assert format_graph(g) == "p nzf 0 0\n"
        assert parse_graph(format_graph(g)) == g

    def test_comments_ignored(self):
        assert parse_graph("c hello\n" + TRIANGLE) == triangle()

    def test_malformed_header(self):
        with pytest.raises(InputError):
            parse_graph("p wrong 3 3\n")

    def test_edge_count_mismatch(self):
        with pytest.raises(InputError):
            parse_graph("p nzf 3 3\ne 0 1\n")

    def test_endpoint_out_of_range(self):
        with pytest.raises(InputError):
            parse_graph("p nzf 2 1\ne 0 5\n")

    @pytest.mark.parametrize("text, message", GRAPH_ERRORS.values(), ids=list(GRAPH_ERRORS))
    def test_error_message(self, text, message):
        with pytest.raises(InputError) as exc:
            parse_graph(text)
        assert str(exc.value) == message


class TestFlowFormat:
    def test_roundtrip_text(self, tmp_path, capsys):
        gfile = tmp_path / "g.nzf"
        gfile.write_text(TRIANGLE)
        assert main(["solve", str(gfile)]) == 0
        text = capsys.readouterr().out
        doc = parse_flow(text)
        assert format_flow(doc) == text
        assert parse_flow(format_flow(doc)) == doc

    def test_roundtrip_machine(self, tmp_path, capsys):
        gfile = tmp_path / "g.nzf"
        gfile.write_text(TRIANGLE)
        assert main(["solve", str(gfile), "--format", "machine"]) == 0
        text = capsys.readouterr().out
        payload = json.loads(text)
        assert payload["root"] == 0
        doc = parse_flow(text)
        assert parse_flow(format_flow(doc, "machine")) == doc

    def test_unknown_format(self):
        with pytest.raises(InputError) as exc:
            format_flow(parse_flow(TRIANGLE_FLOW), "xml")
        assert str(exc.value) == "unknown format 'xml'"

    def test_malformed_json(self):
        with pytest.raises(InputError) as exc:
            parse_flow("{")
        assert str(exc.value).startswith("malformed machine-readable flow file: ")

    def test_consistency_checked_on_read(self):
        # z6 column inconsistent with (f2, f3)
        bad = "s SOLUTION root=0\nf 0 0 1 0 1 3 4\n"
        with pytest.raises(InputError):
            parse_flow(bad)
        # int6 not congruent to z6
        bad = "s SOLUTION root=0\nf 0 0 1 0 1 4 3\n"
        with pytest.raises(InputError):
            parse_flow(bad)

    @pytest.mark.parametrize("text, message", [
        ("s SOLUTION root=0\ns SOLUTION root=0\n", "line 2: duplicate solution header"),
        ("s SOLUTION\n", "line 1: malformed solution header"),
        ("s solution root=0\n", "line 1: malformed solution header"),
        ("s SOLUTION node=0\n", "line 1: malformed solution header"),
        ("s SOLUTION root=x\n", "line 1: expected an integer, got 'x'"),
        ("s SOLUTION root=0\nf 0 0 1 0 1 4\n", "line 2: malformed flow line 'f 0 0 1 0 1 4'"),
        ("s SOLUTION root=0\nq 1\n", "line 2: unknown record 'q'"),
        ("f 0 0 1 0 1 4 4\n", "missing 's SOLUTION' header"),
        ("s SOLUTION root=0\nf 0 0 1 0 1 4 4\nf 0 1 0 0 1 4 4\n", "edge 0: duplicate edge id"),
        ("s SOLUTION root=0\nf 0 0 1 2 1 4 4\n", "edge 0: f2 value 2 out of range"),
        ("s SOLUTION root=0\nf 0 0 1 0 3 4 4\n", "edge 0: f3 value 3 out of range"),
        ("s SOLUTION root=0\nf 0 0 1 0 1 3 3\n", "edge 0: z6 value 3 does not match (0, 1)"),
        ("s SOLUTION root=0\nf 0 0 1 0 1 4 10\n", "edge 0: int6 value 10 out of range"),
        ("s SOLUTION root=0\nf 0 0 1 0 1 4 -4\n", "edge 0: int6 value -4 not congruent to z6 4"),
    ], ids=["duplicate-header", "header-fields", "header-word", "header-root", "root-non-integer",
            "malformed-flow-line", "unknown-record", "missing-header", "duplicate-edge",
            "f2-range", "f3-range", "z6-pairing", "int6-range", "int6-congruence"])
    def test_error_message(self, text, message):
        with pytest.raises(InputError) as exc:
            parse_flow(text)
        assert str(exc.value) == message


class TestSolveCommand:
    def test_triangle_f2_all_zero(self, tmp_path, capsys):
        gfile = tmp_path / "g.nzf"
        gfile.write_text(TRIANGLE)
        assert main(["solve", str(gfile), "--root", "0"]) == 0
        doc = parse_flow(capsys.readouterr().out)
        assert all(a == 0 for a in doc.f2)

    def test_bridge_exits_2_and_names_edge(self, tmp_path, capsys):
        gfile = tmp_path / "g.nzf"
        gfile.write_text(PATH)
        assert main(["solve", str(gfile)]) == 2
        assert capsys.readouterr().err == "error: graph has a bridge: edge 0 (0, 1)\n"

    def test_trace_on_a_cycle(self, tmp_path, capsys):
        # vertices 1-4 are suppressed into one chain, a loop at the root,
        # which the base case solves
        gfile = tmp_path / "g.nzf"
        gfile.write_text(format_graph(Multigraph.build(5, [(i, (i + 1) % 5) for i in range(5)])))
        assert main(["solve", str(gfile), "--root", "0", "--trace"]) == 0
        assert capsys.readouterr().err.splitlines() == [
            "c Reduction(suppressed=4, chains=1)", "c BaseStep(depth=0, loop_edges=1)"]

    def test_trace_with_dropped_pairs(self, tmp_path, capsys):
        # 29 edges 0 -> 1 keep 3, and m = 31 > 3n^2; then 2 has degree 2 and
        # is suppressed into a loop at 1, leaving two vertices
        gfile = tmp_path / "g.nzf"
        gfile.write_text(format_graph(Multigraph.build(3, [(0, 1)] * 29 + [(1, 2)] * 2)))
        assert main(["solve", str(gfile), "--root", "0", "--trace"]) == 0
        assert capsys.readouterr().err.splitlines() == [
            "c Reduction(suppressed=1, chains=1, dropped=26)",
            "c BaseStep(depth=0, loop_edges=4)"]

    def test_trace_without_a_reduction(self, tmp_path, capsys):
        # K4 has no vertex of degree 2, so the trace holds the steps alone
        gfile = tmp_path / "g.nzf"
        gfile.write_text(format_graph(Multigraph.build(
            4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])))
        assert main(["solve", str(gfile), "--root", "0", "--trace"]) == 0
        lines = capsys.readouterr().err.splitlines()
        assert lines[0].startswith("c BridgelessStep(depth=0,")
        assert not any("Reduction" in line for line in lines)

    def test_parse_error_exits_1(self, tmp_path, capsys):
        gfile = tmp_path / "g.nzf"
        gfile.write_text("p nzf nope\n")
        assert main(["solve", str(gfile)]) == 1

    def test_graph_from_stdin(self, tmp_path, capsys, monkeypatch):
        gfile = tmp_path / "g.nzf"
        gfile.write_text(TRIANGLE)
        assert main(["solve", str(gfile)]) == 0
        from_file = capsys.readouterr().out
        monkeypatch.setattr("sys.stdin", stdin_of(TRIANGLE.encode()))
        assert main(["solve", "-"]) == 0
        assert capsys.readouterr().out == from_file

    def test_undecodable_byte_same_by_path_and_stdin(self, tmp_path, capsys, monkeypatch):
        data = b"p nzf 3 3\ne 0 1\ne 1 2\n\xff\n"
        gfile = tmp_path / "g.nzf"
        gfile.write_bytes(data)
        assert main(["solve", str(gfile)]) == 1
        from_file = capsys.readouterr()
        monkeypatch.setattr("sys.stdin", stdin_of(data))
        assert main(["solve", "-"]) == 1
        assert capsys.readouterr() == from_file
        assert from_file.err == "error: line 4: unknown record '\\udcff'\n"

    def test_unreadable_graph_exits_1(self, tmp_path, capsys):
        missing = tmp_path / "missing.nzf"
        assert main(["solve", str(missing)]) == 1
        assert capsys.readouterr().err.startswith(f"error: cannot read {missing}: ")

    def test_internal_error_exits_2(self, tmp_path, capsys, monkeypatch):
        def fail(g, u, debug=False):
            raise InternalCheckError("a spoke edge lost its f3 value")

        monkeypatch.setattr(cli, "solve", fail)
        gfile = tmp_path / "g.nzf"
        gfile.write_text(TRIANGLE)
        assert main(["solve", str(gfile)]) == 2
        assert capsys.readouterr().err == "internal error: a spoke edge lost its f3 value\n"

    def test_zero_vertices_exits_1(self, tmp_path, capsys):
        # the file is valid; the default root 0 is not a vertex of it
        gfile = tmp_path / "g.nzf"
        gfile.write_text("p nzf 0 0\n")
        assert main(["solve", str(gfile)]) == 1
        assert capsys.readouterr().err == "error: unknown vertex id 0 (n=0)\n"


class TestVerifyCommand:
    @pytest.fixture
    def solved(self, tmp_path, capsys):
        gfile = tmp_path / "g.nzf"
        gfile.write_text(format_graph(petersen()))
        assert main(["solve", str(gfile), "--root", "2"]) == 0
        ffile = tmp_path / "g.flow"
        ffile.write_text(capsys.readouterr().out)
        return str(gfile), str(ffile)

    def test_roundtrip_all_modes(self, solved, capsys):
        gfile, ffile = solved
        for mode in ("group", "theorem2", "k6"):
            assert main(["verify", gfile, ffile, "--mode", mode]) == 0
            assert "ok" in capsys.readouterr().out

    def test_tampered_value_exits_3(self, solved, tmp_path, capsys):
        from dataclasses import replace

        from sixflow.tutte import pair_to_z6

        gfile, ffile = solved
        doc = parse_flow(open(ffile).read())
        f2, f3 = doc.f2[0], doc.f3[0]
        new_f3 = (f3 + 1) % 3
        if (f2, new_f3) == (0, 0):
            new_f3 = (f3 + 2) % 3
        z6 = pair_to_z6((f2, new_f3))
        bad = replace(doc, f3=(new_f3,) + doc.f3[1:], z6=(z6,) + doc.z6[1:],
                      int6=(z6,) + doc.int6[1:])
        bfile = tmp_path / "bad.flow"
        bfile.write_text(format_flow(bad))
        assert main(["verify", gfile, str(bfile), "--mode", "group"]) == 3
        # edge 0's new value breaks conservation at both of its ends
        first = min(doc.tail[0], doc.head[0])
        assert capsys.readouterr().out == (
            f"verification failed: conservation broken at vertex {first}\n")

    @pytest.mark.parametrize("mode, edit", [
        ("theorem2", lambda p: p.update(root="0")),
        ("k6", lambda p: p.update(root=None)),
        ("k6", lambda p: p["edges"][0].update(int6=str(p["edges"][0]["int6"]))),
    ], ids=["root-string", "root-null", "int6-string"])
    def test_non_integer_json_field_exits_1(self, solved, tmp_path, capsys, mode, edit):
        gfile, ffile = solved
        assert main(["verify", gfile, ffile, "--mode", mode]) == 0
        capsys.readouterr()
        payload = json.loads(format_flow(parse_flow(open(ffile).read()), "machine"))
        edit(payload)
        bfile = tmp_path / "bad.json"
        bfile.write_text(json.dumps(payload))
        assert main(["verify", gfile, str(bfile), "--mode", mode]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err

    def test_deeply_nested_json_exits_1(self, solved, tmp_path, capsys):
        gfile, _ = solved
        # nested far past the interpreter's recursion limit
        bfile = tmp_path / "deep.json"
        bfile.write_text('{"root": 0, "edges": ' + "[" * 100_000 + "]" * 100_000 + "}")
        assert main(["verify", gfile, str(bfile)]) == 1
        assert capsys.readouterr().err.startswith(
            "error: malformed machine-readable flow file: ")

    @pytest.mark.parametrize("mode", ["group", "theorem2", "k6"])
    def test_root_outside_graph_exits_1(self, tmp_path, capsys, mode):
        gfile = tmp_path / "t.nzf"
        gfile.write_text(TRIANGLE)
        assert main(["solve", str(gfile)]) == 0
        flow = capsys.readouterr().out.replace("root=0", "root=99")
        ffile = tmp_path / "t.flow"
        ffile.write_text(flow)
        assert main(["verify", str(gfile), str(ffile), "--mode", mode]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error:") and "99" in captured.err
        assert "ok" not in captured.out

    @pytest.fixture
    def triangle_files(self, tmp_path):
        gfile = tmp_path / "t.nzf"
        gfile.write_text(TRIANGLE)
        return str(gfile), tmp_path / "t.flow"

    def test_zero_value_exits_1(self, triangle_files, capsys):
        # no int6 in +-1..5 is 0 (mod 6), so no flow file can carry (0, 0)
        gfile, ffile = triangle_files
        ffile.write_text(TRIANGLE_FLOW.replace("f 1 1 2 1 1 1 1", "f 1 1 2 0 0 0 1"))
        assert main(["verify", gfile, str(ffile), "--mode", "group"]) == 1
        assert capsys.readouterr().err == (
            "error: edge 1: int6 value 1 not congruent to z6 0\n")

    def test_rooted_violation_exits_3(self, triangle_files, capsys):
        gfile, ffile = triangle_files
        ffile.write_text(TRIANGLE_FLOW)
        for mode in ("group", "k6"):
            assert main(["verify", gfile, str(ffile), "--mode", mode]) == 0
            assert capsys.readouterr().out == "ok\n"
        assert main(["verify", gfile, str(ffile), "--mode", "theorem2"]) == 3
        assert capsys.readouterr().out == (
            "verification failed: rooted condition violated at edge 0\n")

    def test_k6_violation_exits_3(self, triangle_files, capsys):
        gfile, ffile = triangle_files
        ffile.write_text(TRIANGLE_FLOW.replace("f 0 0 1 1 1 1 1", "f 0 0 1 1 1 1 -5"))
        assert main(["verify", gfile, str(ffile), "--mode", "k6"]) == 3
        assert capsys.readouterr().out == (
            "verification failed: 6-flow condition violated at vertex 0\n")

    def test_mismatched_graph_exits_1(self, solved, tmp_path, capsys):
        _, ffile = solved
        other = tmp_path / "other.nzf"
        other.write_text(TRIANGLE)
        assert main(["verify", str(other), ffile]) == 1
        captured = capsys.readouterr()
        assert captured.err == "error: flow file does not match the graph's edge set\n"
        assert captured.out == ""


class TestGenOracleBench:
    def test_gen_single_vertex(self, capsys):
        assert main(["gen", "1", "--extra-ears", "0", "--seed", "7"]) == 0
        assert capsys.readouterr().out == "p nzf 1 0\n"

    def test_gen_output_solves(self, tmp_path, capsys):
        assert main(["gen", "12", "--extra-ears", "6", "--seed", "3"]) == 0
        text = capsys.readouterr().out
        gfile = tmp_path / "g.nzf"
        gfile.write_text(text)
        assert main(["solve", str(gfile)]) == 0

    def test_gen_deterministic(self, capsys):
        assert main(["gen", "9", "--extra-ears", "4", "--seed", "11"]) == 0
        a = capsys.readouterr().out
        assert main(["gen", "9", "--extra-ears", "4", "--seed", "11"]) == 0
        assert capsys.readouterr().out == a

    def test_gen_negative_extra_ears_exits_1(self, capsys):
        assert main(["gen", "5", "--extra-ears", "-3"]) == 1
        assert capsys.readouterr().err == "error: extra ear count must be non-negative\n"

    def test_oracle_digon(self, tmp_path, capsys):
        gfile = tmp_path / "g.nzf"
        gfile.write_text("p nzf 2 2\ne 0 1\ne 1 0\n")
        assert main(["oracle", str(gfile)]) == 0
        out = capsys.readouterr().out
        assert "5 nowhere-zero Z2xZ3 flows" in out
        assert "holds for all roots" in out

    def test_oracle_bridge_exits_2(self, tmp_path, capsys):
        gfile = tmp_path / "g.nzf"
        gfile.write_text(PATH)
        assert main(["oracle", str(gfile)]) == 2
        assert capsys.readouterr().err == "error: oracle requires a 2-edge-connected graph\n"

    def test_oracle_guard_exits_2(self, tmp_path, capsys):
        g = Multigraph.build(2, [(0, 1), (1, 0)] * 6)
        gfile = tmp_path / "g.nzf"
        gfile.write_text(format_graph(g))
        assert main(["oracle", str(gfile)]) == 2
        assert capsys.readouterr().err == (
            "error: 12 edges exceeds the enumeration guard of 10 for z2xz3\n")

    def test_oracle_negative_guard_exits_1(self, tmp_path, capsys):
        gfile = tmp_path / "g.nzf"
        gfile.write_text("p nzf 1 0\n")
        assert main(["oracle", str(gfile), "--guard-edges", "-1"]) == 1
        captured = capsys.readouterr()
        assert captured.err == "error: enumeration guard must be non-negative\n"
        assert captured.out == ""

    def test_bench_rows_deterministic_apart_from_timing(self, capsys):
        assert main(["bench", "--sizes", "10,20", "--seeds", "1,2"]) == 0
        a = capsys.readouterr().out
        assert main(["bench", "--sizes", "10,20", "--seeds", "1,2"]) == 0
        b = capsys.readouterr().out

        def strip_timing(text):
            # wall_ms, and the collector runs, which also depend on what the
            # process allocated before the timed call
            rows = []
            for line in text.splitlines()[1:]:
                parts = line.split()
                assert len(parts) == 9 and parts[8].isdigit()
                rows.append(parts[:4] + parts[5:8])
            return rows

        assert a.splitlines()[0].split()[-1] == "collections"
        assert strip_timing(a) == strip_timing(b)
        assert len(strip_timing(a)) == 4

    @pytest.mark.parametrize("reps", ["0", "-3"])
    def test_bench_reps_below_one_exits_1(self, capsys, reps):
        assert main(["bench", "--sizes", "10", "--seeds", "1", "--reps", reps]) == 1
        captured = capsys.readouterr()
        assert captured.err == "error: repetition count must be positive\n"
        assert captured.out == ""

    @pytest.mark.parametrize("sizes", ["100,0", "0", "10,-1"])
    def test_bench_size_below_one_exits_1_before_any_row(self, capsys, sizes):
        assert main(["bench", "--sizes", sizes, "--seeds", "1"]) == 1
        captured = capsys.readouterr()
        assert captured.err == "error: vertex count must be positive\n"
        assert captured.out == ""

    @pytest.mark.parametrize("option, value", [
        ("--sizes", "x"), ("--seeds", "1,y"), ("--sizes", ","), ("--seeds", "")])
    def test_bench_bad_list_is_a_usage_error(self, capsys, option, value):
        with pytest.raises(SystemExit) as exc:
            main(["bench", option, value])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: sixflow bench")
        assert f"error: argument {option}: invalid comma-separated int value: '{value}'" in err
        assert "Traceback" not in err


def test_solve_byte_identical_runs(tmp_path, capsys):
    gfile = tmp_path / "g.nzf"
    gfile.write_text(format_graph(petersen()))
    assert main(["solve", str(gfile), "--root", "1"]) == 0
    a = capsys.readouterr().out
    assert main(["solve", str(gfile), "--root", "1"]) == 0
    assert capsys.readouterr().out == a
