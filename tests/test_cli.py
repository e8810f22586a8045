import pytest

from hamconn import cli
from hamconn.cli import main
from hamconn.corpus import MAX_INPUT_VERTICES
from hamconn.constructions import wagner_counterexample
from hamconn.encoding import decode_sparse6, encode_edgelist, encode_graph6, encode_sparse6
from hamconn.linegraph import line_graph
from hamconn.multigraph import Multigraph, complete_graph, star_graph


@pytest.fixture
def octahedron_file(tmp_path):
    path = tmp_path / "oct.g6"
    path.write_text(encode_graph6(line_graph(complete_graph(4))) + "\n")
    return str(path)


class TestVerifyCommand:
    def test_enumerated_small(self, capsys):
        assert main(["verify", "--hypothesis", "thm1", "--n", "4"]) == 0
        out = capsys.readouterr().out
        assert "violations               0" in out

    def test_file_input_counterexample_filtered(self, tmp_path, capsys):
        from hamconn.constructions import wagner_counterexample

        g, _ = wagner_counterexample(1)
        path = tmp_path / "cex.g6"
        path.write_text(encode_graph6(g) + "\n")
        assert main(["verify", "--input", str(path), "--hypothesis", "thm1"]) == 0
        out = capsys.readouterr().out
        assert "domination<=3            0" in out

    def test_hamiltonian_cycle_longer_than_the_recursion_limit(self, tmp_path, capsys):
        # K_1100 is within the input cap; its hamiltonian cycle search takes
        # one step per vertex
        path = tmp_path / "k1100.g6"
        path.write_text(encode_graph6(complete_graph(1100)) + "\n")
        assert main(["verify", "--input", str(path), "--hypothesis", "ageev"]) == 0
        out = capsys.readouterr().out
        assert "hamiltonian              1" in out
        assert "violations               0" in out


class TestMultigraphInput:
    # verify and pipeline take simple graphs only: a triangle with a doubled
    # edge is an input error that names the file, and the line for sparse6
    H = Multigraph(3, [(0, 1), (1, 2), (2, 0), (0, 1)])
    FILES = {
        "el": (encode_edgelist(H), ""),
        "s6": (f"# a triangle with a doubled edge\n{encode_sparse6(H)}\n", ":2"),
    }

    @pytest.mark.parametrize("fmt", sorted(FILES))
    @pytest.mark.parametrize(
        "argv", [["verify"], ["pipeline", "0", "1"]], ids=["verify", "pipeline"]
    )
    def test_is_an_input_error_naming_the_file(self, argv, fmt, tmp_path, capsys):
        text, line = self.FILES[fmt]
        path = tmp_path / f"doubled.{fmt}"
        path.write_text(text)
        assert main(argv + ["--input", str(path), "--format", fmt]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"input error: {path}{line}: parallel edge (0, 1) not allowed in a simple graph\n"


class TestVerifyUnderO:
    def test_certificates_run_under_dash_o(self):
        # The labeled-count and monotonicity certificates raise rather than
        # assert, so `python -O` still checks them.
        import os
        import subprocess
        import sys
        from pathlib import Path

        src = str(Path(cli.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src)
        code = "from hamconn.cli import main; raise SystemExit(main(['verify','--n','6']))"
        done = subprocess.run(
            [sys.executable, "-O", "-c", code], env=env, capture_output=True, text=True, timeout=120
        )
        assert done.returncode == 0, done.stderr
        expected = {
            "total": 33867,
            "connected": 27476,
            "claw-free": 11271,
            "3-connected": 1645,
            "domination<=3": 1645,
            "hamiltonian-connected": 1645,
        }
        for name, count in expected.items():
            assert f"  {name:24s} {count}\n" in done.stdout
        assert "violations               0" in done.stdout


class TestWorkerCount:
    @pytest.mark.parametrize("count", ["0", "-2", "two"])
    def test_rejected_at_parse_time(self, count, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--n", "3", "--workers", count])
        assert exc.value.code == 2
        assert "--workers" in capsys.readouterr().err


class TestVertexBound:
    @pytest.mark.parametrize("bound", ["0", "-3", "x"])
    def test_rejected_at_parse_time(self, bound, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--n", bound])
        assert exc.value.code == 2
        assert "--n" in capsys.readouterr().err

    def test_above_the_claw_free_cap(self, capsys):
        assert main(["verify", "--n", "11"]) == 2
        assert capsys.readouterr().err == "error: claw-free enumeration bound capped at 10\n"


class TestPendantCount:
    @pytest.mark.parametrize("count", ["0", "-1", "x"])
    def test_rejected_at_parse_time(self, count, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["counterexample", count])
        assert exc.value.code == 2
        assert "pendants" in capsys.readouterr().err

    def test_above_the_input_cap_rejected_at_parse_time(self, capsys):
        assert cli.build_parser().parse_args(["counterexample", "510"]).pendants == 510
        with pytest.raises(SystemExit) as exc:
            main(["counterexample", "511"])
        assert exc.value.code == 2
        assert "at most 510" in capsys.readouterr().err


class TestInputCap:
    # a few bytes that declare a graph far above MAX_INPUT_VERTICES
    FILES = {
        "s6": (":~~~~~~~~\n", 1, 68719476735),
        "el": ("# edgeless\n5000 0\n", 2, 5000),
    }

    @pytest.mark.parametrize("fmt", sorted(FILES))
    @pytest.mark.parametrize(
        "argv", [["props"], ["verify"], ["pipeline", "0", "1"]], ids=["props", "verify", "pipeline"]
    )
    def test_is_an_input_error_at_the_line(self, argv, fmt, tmp_path, capsys):
        text, line, n = self.FILES[fmt]
        path = tmp_path / f"huge.{fmt}"
        path.write_text(text)
        assert main(argv + ["--input", str(path), "--format", fmt]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        cap = f"above the input cap of {MAX_INPUT_VERTICES}"
        assert err == f"input error: {path}:{line}: {n} vertices, {cap}\n"


class TestUnexpectedErrors:
    def test_recursion_error_exits_internal(self, monkeypatch, capsys):
        def deep(args):
            raise RecursionError("maximum recursion depth exceeded")

        monkeypatch.setattr(cli, "cmd_props", deep)
        assert main(["props", "--named", "petersen"]) == 3
        err = capsys.readouterr().err
        assert err == "internal error: RecursionError: maximum recursion depth exceeded\n"


class TestPropsCommand:
    def test_named_petersen(self, capsys):
        assert main(["props", "--named", "petersen"]) == 0
        out = capsys.readouterr().out
        assert "domination number" in out

    def test_missing_input(self, capsys):
        assert main(["props"]) == 2

    def test_negative_edge_list_vertex_count_names_the_file(self, tmp_path, capsys):
        path = tmp_path / "negative.el"
        path.write_text("-1 0\n")
        assert main(["props", "--input", str(path), "--format", "el"]) == 2
        assert capsys.readouterr().err == f"input error: {path}: vertex count cannot be negative\n"

    def test_line_graph_above_32_vertices(self, tmp_path, capsys):
        from hamconn.constructions import wagner_counterexample
        from hamconn.encoding import encode_edgelist

        g, _ = wagner_counterexample(3)
        path = tmp_path / "lh3.el"
        path.write_text(encode_edgelist(g))
        assert main(["props", "--input", str(path), "--format", "el"]) == 0
        # Each row is the name padded to 28 columns, a space, the value.
        out = capsys.readouterr().out
        rows = {line[:28].rstrip(): line[29:] for line in out.splitlines() if line}
        assert rows["vertices"] == "36"
        assert rows["hamiltonian-connected"] == "False"
        assert rows["non-hamiltonian pair"] == "(8, 10)"

    def test_trail_longer_than_the_recursion_limit(self, tmp_path, capsys):
        # A 1,100-vertex cycle with a second edge 0-1 is not simple, so its
        # table ends with the dominating closed trail: the whole cycle.
        from hamconn.encoding import encode_edgelist
        from hamconn.multigraph import Multigraph

        n = 1100
        path = tmp_path / "doubled_cycle.el"
        path.write_text(encode_edgelist(Multigraph(n, [(i, (i + 1) % n) for i in range(n)] + [(0, 1)])))
        assert main(["props", "--input", str(path), "--format", "el"]) == 0
        out = capsys.readouterr().out
        rows = {line[:28].rstrip(): line[29:] for line in out.splitlines() if line}
        assert rows["dominating closed trail"] == "True"

    def test_claw_above_labeling_cap(self, tmp_path, capsys):
        # 70 vertices, above the labeling cap; the claw alone rules out a
        # preimage, so every row is still printed.
        from hamconn.encoding import encode_edgelist

        path = tmp_path / "star.el"
        path.write_text(encode_edgelist(star_graph(69)))
        assert main(["props", "--input", str(path), "--format", "el"]) == 0
        out = capsys.readouterr().out
        rows = {line[:28].rstrip(): line[29:] for line in out.splitlines() if line}
        assert rows["vertices"] == "70"
        assert rows["line graph of a multigraph"] == "False"


class TestFileWithoutAGraph:
    # An empty or comments-only graph6 or sparse6 file is an input error for
    # every command that reads --input, with the message pipeline gives
    @pytest.mark.parametrize("fmt, text", [("g6", ""), ("s6", "# only a comment\n")])
    @pytest.mark.parametrize("command", ["props", "verify"])
    def test_is_an_input_error(self, command, fmt, text, tmp_path, capsys):
        path = tmp_path / f"none.{fmt}"
        path.write_text(text)
        assert main([command, "--input", str(path), "--format", fmt]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"input error: {path}: no graph in the file\n"


class TestPipelineCommand:
    def test_octahedron_pair(self, octahedron_file, capsys):
        assert main(["pipeline", "0", "5", "--input", octahedron_file]) == 0
        out = capsys.readouterr().out
        assert "hamiltonian path:" in out

    def test_claw_input_error(self, tmp_path, capsys):
        path = tmp_path / "claw.g6"
        path.write_text(encode_graph6(star_graph(3)) + "\n")
        assert main(["pipeline", "0", "1", "--input", str(path)]) == 2

    def test_bad_file(self):
        assert main(["pipeline", "0", "1", "--input", "/nonexistent.g6"]) == 2

    def test_file_without_a_graph(self, tmp_path, capsys):
        path = tmp_path / "empty.g6"
        path.write_text("# only a comment\n")
        assert main(["pipeline", "0", "1", "--input", str(path)]) == 2
        assert capsys.readouterr().err == f"input error: {path}: no graph in the file\n"

    def test_named_graph_rejected_at_parse_time(self, capsys):
        # Petersen and Wagner are cubic and triangle-free, so neither is a
        # line graph and the pipeline could never run on them
        with pytest.raises(SystemExit) as exc:
            main(["pipeline", "0", "1", "--named", "petersen"])
        assert exc.value.code == 2
        assert "--named" in capsys.readouterr().err

    def test_no_input_names_only_the_input_option(self, capsys):
        assert main(["pipeline", "0", "1"]) == 2
        assert capsys.readouterr().err == "input error: no input: pass --input FILE\n"


class TestUnusablePaths:
    @pytest.fixture
    def paths(self, tmp_path):
        binary = tmp_path / "binary.g6"
        binary.write_bytes(b"\xff\xfeG?\x80\n")
        return {"directory": str(tmp_path), "binary": str(binary)}

    @pytest.mark.parametrize(
        "argv, kind",
        [
            (["props", "--input"], "directory"),
            (["props", "--input"], "binary"),
            (["props", "--format", "el", "--input"], "binary"),
            (["counterexample", "1", "--emit"], "directory"),
            (["verify", "--n", "3", "--emit-witnesses"], "directory"),
        ],
        ids=["props-dir", "props-binary", "props-el-binary", "cex-emit-dir", "verify-emit-dir"],
    )
    def test_is_an_input_error_naming_the_path(self, paths, argv, kind, capsys):
        # an output file is opened before the run, so nothing is printed
        assert main(argv + [paths[kind]]) == 2
        out, err = capsys.readouterr()
        assert err.startswith(f"input error: {paths[kind]}: ") and err.count("\n") == 1
        assert out == ""


class TestCounterexampleCommand:
    def test_emits_and_verifies(self, tmp_path, capsys):
        out_file = tmp_path / "cex.el"
        assert main(["counterexample", "1", "--emit", str(out_file)]) == 0
        out = capsys.readouterr().out
        assert "sharpness demonstrated: True" in out
        assert "graph6(g):" in out
        g, h = wagner_counterexample(1)
        header = "# sharpness counterexample: line graph g, then source h\n"
        assert out_file.read_text() == header + encode_edgelist(g) + encode_edgelist(h)

    def test_large_pendant_count_finishes(self):
        # in a child process with a timeout: the census is decided up to
        # twin edges, so P = 96 (L(H) on 780 vertices) takes about a second
        import os
        import subprocess
        import sys
        from pathlib import Path

        src = str(Path(cli.__file__).resolve().parents[1])
        code = "from hamconn.cli import main; raise SystemExit(main(['counterexample', '96']))"
        done = subprocess.run(
            [sys.executable, "-c", code],
            env=dict(os.environ, PYTHONPATH=src),
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert done.returncode == 0, done.stderr
        assert "no hamiltonian path:    8 .. 10\n" in done.stdout


class TestCorpusCommand:
    def test_seeded_generation_is_reproducible(self, capsys):
        assert main(["corpus", "--kind", "e3ec", "--count", "3", "--seed", "9"]) == 0
        first = capsys.readouterr().out
        assert main(["corpus", "--kind", "e3ec", "--count", "3", "--seed", "9"]) == 0
        assert capsys.readouterr().out == first
        assert len(first.strip().splitlines()) == 3

    @pytest.mark.parametrize(
        "kind, max_edges", [("multi", "0"), ("multi", "-1"), ("e3ec", "2"), ("3ec", "2")]
    )
    def test_unmeetable_edge_bound_is_an_input_error(self, kind, max_edges):
        # in a child process with a timeout, because the rejection samplers
        # used to draw forever on these bounds
        import os
        import subprocess
        import sys
        from pathlib import Path

        src = str(Path(cli.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src)
        args = ["corpus", "--kind", kind, "--max-edges", max_edges]
        code = f"from hamconn.cli import main; raise SystemExit(main({args!r}))"
        done = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=30
        )
        assert done.returncode == 2, done.stderr
        assert done.stdout == ""
        assert done.stderr.startswith("error:")

    @pytest.mark.parametrize("kind", ["multi", "e3ec", "3ec"])
    def test_edge_bound_capped_at_the_isomorphism_guard(self, kind, capsys):
        # a larger H has a line graph that preimage refuses; the cap is
        # checked before an edge list of that size is drawn
        assert main(["corpus", "--kind", kind, "--max-edges", "65"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error:")
        assert main(["corpus", "--kind", kind, "--max-edges", "64", "--count", "10"]) == 0
        graphs = [decode_sparse6(line) for line in capsys.readouterr().out.splitlines()]
        assert len(graphs) == 10 and all(h.edge_count <= 64 for h in graphs)

    @pytest.mark.parametrize("count", ["-1", "x"])
    def test_count_rejected_at_parse_time(self, count, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["corpus", "--count", count])
        assert exc.value.code == 2
        assert "--count" in capsys.readouterr().err

    def test_zero_count_prints_nothing(self, capsys):
        assert main(["corpus", "--count", "0"]) == 0
        assert capsys.readouterr().out == ""
