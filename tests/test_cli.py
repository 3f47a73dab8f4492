import json

import pytest

from sixflow import InputError, Multigraph
from sixflow.cli import main
from sixflow.fileio import (
    FlowDocument,
    format_flow,
    format_graph,
    parse_flow,
    parse_graph,
)

from conftest import petersen, triangle

TRIANGLE = "p nzf 3 3\ne 0 1\ne 1 2\ne 2 0\n"
PATH = "p nzf 3 2\ne 0 1\ne 1 2\n"


class TestGraphFormat:
    def test_roundtrip(self):
        for g in (triangle(), petersen(), Multigraph.build(1, [(0, 0)])):
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

    def test_consistency_checked_on_read(self):
        # z6 column inconsistent with (f2, f3)
        bad = "s SOLUTION root=0\nf 0 0 1 0 1 3 4\n"
        with pytest.raises(InputError):
            parse_flow(bad)
        # int6 not congruent to z6
        bad = "s SOLUTION root=0\nf 0 0 1 0 1 4 3\n"
        with pytest.raises(InputError):
            parse_flow(bad)


class TestSolveCommand:
    def test_triangle_f2_all_zero(self, tmp_path, capsys):
        gfile = tmp_path / "g.nzf"
        gfile.write_text(TRIANGLE)
        assert main(["solve", str(gfile), "--root", "0"]) == 0
        doc = parse_flow(capsys.readouterr().out)
        assert all(e.f2 == 0 for e in doc.entries)

    def test_bridge_exits_2_and_names_edge(self, tmp_path, capsys):
        gfile = tmp_path / "g.nzf"
        gfile.write_text(PATH)
        assert main(["solve", str(gfile)]) == 2
        assert "bridge" in capsys.readouterr().err

    def test_parse_error_exits_1(self, tmp_path, capsys):
        gfile = tmp_path / "g.nzf"
        gfile.write_text("p nzf nope\n")
        assert main(["solve", str(gfile)]) == 1


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
        from sixflow.fileio import FlowEntry
        from sixflow.tutte import pair_to_z6

        gfile, ffile = solved
        doc = parse_flow(open(ffile).read())
        e = doc.entries[0]
        new_f3 = (e.f3 + 1) % 3
        if (e.f2, new_f3) == (0, 0):
            new_f3 = (e.f3 + 2) % 3
        z6 = pair_to_z6((e.f2, new_f3))
        tampered = FlowEntry(e.edge_id, e.tail, e.head, e.f2, new_f3, z6, z6)
        bad = FlowDocument(doc.root, (tampered,) + doc.entries[1:])
        bfile = tmp_path / "bad.flow"
        bfile.write_text(format_flow(bad))
        assert main(["verify", gfile, str(bfile), "--mode", "group"]) == 3
        out = capsys.readouterr().out
        assert "vertex" in out or "edge" in out

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

    def test_mismatched_graph_exits_1(self, solved, tmp_path, capsys):
        _, ffile = solved
        other = tmp_path / "other.nzf"
        other.write_text(TRIANGLE)
        assert main(["verify", str(other), ffile]) == 1


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

    def test_oracle_digon(self, tmp_path, capsys):
        gfile = tmp_path / "g.nzf"
        gfile.write_text("p nzf 2 2\ne 0 1\ne 1 0\n")
        assert main(["oracle", str(gfile)]) == 0
        out = capsys.readouterr().out
        assert "5 nowhere-zero Z2xZ3 flows" in out
        assert "holds for all roots" in out

    def test_oracle_guard_exits_2(self, tmp_path, capsys):
        g = Multigraph.build(2, [(0, 1), (1, 0)] * 6)
        gfile = tmp_path / "g.nzf"
        gfile.write_text(format_graph(g))
        assert main(["oracle", str(gfile)]) == 2

    def test_bench_rows_deterministic_apart_from_timing(self, capsys):
        assert main(["bench", "--sizes", "10,20", "--seeds", "1,2"]) == 0
        a = capsys.readouterr().out
        assert main(["bench", "--sizes", "10,20", "--seeds", "1,2"]) == 0
        b = capsys.readouterr().out

        def strip_timing(text):
            rows = []
            for line in text.splitlines()[1:]:
                parts = line.split()
                rows.append(parts[:4] + parts[5:])
            return rows

        assert strip_timing(a) == strip_timing(b)
        assert len(strip_timing(a)) == 4


def test_solve_byte_identical_runs(tmp_path, capsys):
    gfile = tmp_path / "g.nzf"
    gfile.write_text(format_graph(petersen()))
    assert main(["solve", str(gfile), "--root", "1"]) == 0
    a = capsys.readouterr().out
    assert main(["solve", str(gfile), "--root", "1"]) == 0
    assert capsys.readouterr().out == a
