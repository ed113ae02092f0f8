import json

import pytest

from hermspec.cli import main
from hermspec.constructions import directed_triangle, signed_hypercube
from hermspec import io as graph_io


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestSpectrum:
    def test_named_graph(self, capsys):
        code, out, _ = run(capsys, "spectrum", "directed-triangle")
        assert code == 0
        assert "eigenvalues:" in out and "-2" in out

    def test_json(self, capsys):
        code, out, _ = run(capsys, "spectrum", "oriented-K33", "--json")
        assert code == 0
        obj = json.loads(out)
        assert obj["clusters"][0][1] == 3

    def test_file_input(self, tmp_path, capsys):
        p = tmp_path / "tri.d6"
        p.write_text(graph_io.dump_graph(directed_triangle()))
        code, out, _ = run(capsys, "spectrum", str(p))
        assert code == 0 and "clusters" in out

    def test_signed_file(self, tmp_path, capsys):
        p = tmp_path / "cube.sg"
        p.write_text(graph_io.dump_graph(signed_hypercube(2)))
        code, out, _ = run(capsys, "spectrum", str(p))
        assert code == 0
        assert "1.414213562x2" in out

    def test_unknown_input(self, capsys):
        assert run(capsys, "spectrum", "no-such-graph")[0] == 2

    def test_parse_error_names_line(self, tmp_path, capsys):
        p = tmp_path / "bad.mx"
        p.write_text("mixed 3\n0 > 1\na - 2\n")
        code, _, err = run(capsys, "spectrum", str(p))
        assert code == 2
        assert "line 3" in err and "'a'" in err

    def test_graph_error_names_line(self, tmp_path, capsys):
        p = tmp_path / "bad.mx"
        p.write_text("mixed 3\n0 > 1\n1 > 7\n")
        code, _, err = run(capsys, "spectrum", str(p))
        assert code == 2
        assert "line 3: vertex 7 out of range" in err


class TestCertify:
    def test_yes(self, capsys):
        code, out, _ = run(capsys, "certify", "oriented-K55-M", "--expect-yes")
        assert code == 0 and "verdict: yes" in out

    def test_no_with_expect_yes_fails(self, tmp_path, capsys):
        from hermspec.graphs import OrientedGraph

        p = tmp_path / "path.d6"
        p.write_text(graph_io.dump_graph(OrientedGraph(3, [(0, 1), (1, 2)])))
        code, out, _ = run(capsys, "certify", str(p), "--expect-yes")
        assert code == 1 and "verdict: no" in out

    def test_no_without_expect_yes_succeeds(self, tmp_path, capsys):
        from hermspec.graphs import OrientedGraph

        p = tmp_path / "path.d6"
        p.write_text(graph_io.dump_graph(OrientedGraph(3, [(0, 1), (1, 2)])))
        assert run(capsys, "certify", str(p))[0] == 0

    def test_json_pair(self, capsys):
        code, out, _ = run(capsys, "certify", "directed-triangle", "--json")
        assert code == 0
        obj = json.loads(out)
        assert obj["pair"] == [{"int": 1}, {"int": -2}]
        assert obj["multiplicities"] == [2, 1]

    def test_three_ev(self, capsys):
        code, out, _ = run(capsys, "certify", "regular-tournament-5", "--three-ev")
        assert code == 0 and "no" in out


class TestConstruct:
    def test_named_to_stdout(self, capsys):
        code, out, _ = run(capsys, "construct", "directed-triangle")
        assert code == 0
        assert graph_io.load_graph(out) == directed_triangle()

    def test_paley_to_file(self, tmp_path, capsys):
        dest = tmp_path / "paley7.txt"
        code, _, _ = run(capsys, "construct", "paley", "7", "-o", str(dest))
        assert code == 0
        from hermspec.constructions import SkewHadamard, paley_skew_hadamard

        assert SkewHadamard.from_text(dest.read_text()) == paley_skew_hadamard(7)

    def test_tournament(self, capsys):
        code, out, _ = run(capsys, "construct", "tournament", "7")
        assert code == 0
        assert graph_io.load_graph(out).n == 7

    @pytest.mark.parametrize("what, arg, n", [("hypercube", "6", 64), ("hypercube", "7", 128),
                                              ("tournament", "67", 67)])
    def test_large_digraph6_output(self, capsys, what, arg, n):
        code, out, _ = run(capsys, "construct", what, arg)
        assert code == 0
        assert graph_io.load_graph(out).n == n

    def test_missing_arg(self, capsys):
        assert run(capsys, "construct", "paley")[0] == 2


class TestSearch:
    def test_k33(self, capsys):
        code, out, _ = run(capsys, "search", "K3,3")
        assert code == 0
        assert "1 up to isomorphism" in out

    def test_signed_c4_json(self, capsys):
        code, out, _ = run(capsys, "search", "C4", "--mode", "signed", "--json")
        assert code == 0
        obj = json.loads(out)
        assert obj["space_size"] == 16 and len(obj["hits"]) == 8

    def test_unknown_underlying(self, capsys):
        assert run(capsys, "search", "petersen")[0] == 2


class TestConvert:
    def test_round_trip_via_files(self, tmp_path, capsys):
        src = tmp_path / "cube.sg"
        mid = tmp_path / "cube.d6"
        back = tmp_path / "back.sg"
        S = signed_hypercube(2)
        src.write_text(graph_io.dump_graph(S))
        assert run(capsys, "convert", str(src), "-o", str(mid))[0] == 0
        assert run(capsys, "convert", str(mid), "-o", str(back))[0] == 0
        assert graph_io.load_graph(back.read_text()) == S

    def test_rejects_mixed(self, tmp_path, capsys):
        from hermspec.constructions import mixed_c4

        p = tmp_path / "c4.mx"
        p.write_text(graph_io.dump_graph(mixed_c4()))
        assert run(capsys, "convert", str(p))[0] == 2


class TestVerify:
    def test_quick_scale(self, capsys):
        code, out, _ = run(capsys, "verify-paper", "--scale", "quick")
        assert code == 0
        assert "overall: pass" in out

    def test_bad_flag(self, capsys):
        with pytest.raises(SystemExit):
            run(capsys, "verify-paper", "--scale", "huge")
