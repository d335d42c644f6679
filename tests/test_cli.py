"""End-to-end command-line behaviour via main()."""

import hashlib
import io
import json

import pytest

from cubicml import cli
from cubicml.census import load_fixtures
from cubicml.cli import main
from cubicml.graph import Graph, is_cubic, parse_graph6, write_graph6
from cubicml.constructions import complete_graph, jcell_ring
from conftest import prism


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _g6(g):
    return write_graph6(g).decode("ascii")


def write_stream(tmp_path, graphs):
    f = tmp_path / "stream.g6"
    f.write_text("".join(_g6(g) + "\n" for g in graphs))
    return str(f)


def test_analyze_records(tmp_path, capsys):
    path = write_stream(tmp_path, [complete_graph(4)])
    code, out, err = run(capsys, ["analyze", path, "--ml", "--mu"])
    assert code == 0
    rec = json.loads(out.strip())
    assert rec["n"] == 4 and rec["connectivity"] == 3
    assert rec["traceable"] is True and rec["ml"] == 2 and rec["mu"] == 1
    assert "traceable" in rec["timings"]


def test_analyze_reports_parse_errors(tmp_path, capsys):
    f = tmp_path / "bad.g6"
    f.write_text("C~\n\x01bad\n")
    code, out, err = run(capsys, ["analyze", str(f)])
    assert code == 1
    assert "line 2" in err
    assert json.loads(out.strip())["n"] == 4


def test_analyze_reports_graphs_without_ml_or_mu(tmp_path, capsys):
    # two isolated vertices have no ml; the empty graph has neither
    f = tmp_path / "odd.g6"
    f.write_text("A?\n?\n")
    code, out, err = run(capsys, ["analyze", str(f), "--ml", "--mu"])
    assert code == 1
    first, second = (json.loads(line) for line in out.splitlines())
    assert (first["n"], first["ml"], first["mu"]) == (2, None, 2)
    assert (second["n"], second["ml"], second["mu"]) == (0, None, None)
    assert err.splitlines() == [
        "line 1: minimum leaf number needs a connected non-empty graph",
        "line 2: minimum leaf number needs a connected non-empty graph",
        "line 2: path cover of the empty graph is undefined",
    ]


def test_analyze_decides_traceability_once_per_graph(tmp_path, capsys,
                                                    monkeypatch):
    # a traceable, a 1-connected non-traceable and a disconnected graph,
    # with and without a budget cut; a connected graph took 3 calls before
    # the per-graph analysis
    import sys
    from cubicml import hamsearch
    from conftest import gadget_caterpillar

    calls = []
    real = hamsearch.has_ham_path

    def counted(g, budget=hamsearch.UNLIMITED):
        calls.append(g.adj)
        return real(g, budget)

    for name, module in list(sys.modules.items()):
        if name.startswith("cubicml") and hasattr(module, "has_ham_path"):
            monkeypatch.setattr(module, "has_ham_path", counted)
    k4 = complete_graph(4)
    two_k4 = Graph.from_edges(8, [(u + d, v + d) for d in (0, 4)
                                  for u, v in k4.edges])
    graphs = [k4, prism(5), gadget_caterpillar(4), two_k4]
    path = write_stream(tmp_path, graphs)
    code, out, err = run(capsys, ["analyze", path, "--ml", "--mu"])
    assert len(out.splitlines()) == 4
    assert calls == [g.adj for g in graphs]
    assert code == 1  # the disconnected graph has no ml
    calls.clear()
    code, out, _ = run(capsys, ["analyze", path, "--ml", "--mu",
                                "--max-nodes", "1"])
    assert code == 1 and calls == [g.adj for g in graphs]


def test_analyze_fails_on_undecided_answers(tmp_path, capsys):
    from cubicml.census import load_fixtures

    g = load_fixtures("nontraceable_28_conn2")[0].graph
    path = write_stream(tmp_path, [g])
    code, out, err = run(capsys, ["analyze", path, "--ml", "--mu",
                                  "--max-nodes", "1"])
    assert code == 1 and err == ""
    rec = json.loads(out)
    assert (rec["traceable"], rec["ml"], rec["mu"]) == (None, None, None)


def test_non_ascii_line_is_a_diagnostic(tmp_path, capsys, monkeypatch):
    f = tmp_path / "bad.g6"
    f.write_bytes(b"C~\n\xc3\xa9\n")
    code, out, err = run(capsys, ["analyze", str(f)])
    assert code == 1
    assert err.startswith(
        "line 2: unparsable graph6: non-ASCII byte 0xc3 (byte offset 0)")
    assert json.loads(out.strip())["n"] == 4
    code, out, err = run(capsys, ["census", str(f)])
    assert code == 1
    assert err.startswith("line 2: unparsable graph6: non-ASCII")
    assert json.loads(out.strip())["total"] == 1
    # a text stream meets the same offset: the line is read as UTF-8
    monkeypatch.setattr("sys.stdin", io.StringIO("\u00e9\n"))
    code, out, err = run(capsys, ["analyze", "-"])
    assert (code, out) == (1, "")
    assert err == ("line 1: unparsable graph6: non-ASCII byte 0xc3 "
                   "(byte offset 0)\n")


def test_stream_line_numbers_count_blank_lines(tmp_path, capsys,
                                               monkeypatch):
    # blank and whitespace-only lines yield nothing but keep their numbers,
    # in a byte stream (a file) and a text stream (stdin) alike
    text = "C~\n\n  \nD~{\n\x01bad\nC~\n"
    f = tmp_path / "blanks.g6"
    f.write_bytes(text.encode())
    for argv in (["analyze", str(f)], ["analyze", "-"]):
        monkeypatch.setattr("sys.stdin", io.StringIO(text))
        code, out, err = run(capsys, argv)
        assert code == 1
        records = [json.loads(line) for line in out.splitlines()]
        assert [(r["id"], r["n"]) for r in records] == [(1, 4), (4, 5), (6, 4)]
        assert err.startswith("line 5: unparsable graph6: ")
        assert len(err.splitlines()) == 1


def test_census_reads_text_stdin(capsys, monkeypatch):
    # a stdin without a byte layer, as in-process callers substitute it
    monkeypatch.setattr("sys.stdin", io.StringIO("C~\nC~\n"))
    code, out, err = run(capsys, ["census", "-"])
    assert code == 0 and err == ""
    assert json.loads(out.strip())["total"] == 2


def test_analyze_long_prism(tmp_path, capsys):
    path = write_stream(tmp_path, [prism(1000)])
    code, out, err = run(capsys, ["analyze", path])
    assert code == 0 and err == ""
    rec = json.loads(out.strip())
    assert rec["n"] == 2000 and rec["connectivity"] == 3
    assert rec["traceable"] is True


def test_census_roundtrip(tmp_path, capsys):
    from cubicml.census import load_fixtures

    graphs = [f.graph for f in load_fixtures("nontraceable_28_conn2")[:3]]
    path = write_stream(tmp_path, graphs)
    code, out, err = run(capsys, ["census", path])
    assert code == 0
    rec = json.loads(out.strip())
    assert rec == {"n": 28, "conn2": 3, "conn3": 0, "total": 3,
                   "indeterminate": 0}


def test_census_reports_stream_line_numbers(tmp_path, capsys):
    f = tmp_path / "bad.g6"
    f.write_text("C~\nC~\nC~\n\x01bad\n")
    code, out, err = run(capsys, ["census", str(f)])
    assert code == 1
    assert err.startswith("line 4: unparsable graph6")
    assert json.loads(out.strip())["total"] == 3


def test_census_reports_malformed_and_non_cubic_lines(capsys, monkeypatch):
    # each skipped line gets one diagnostic, in stream order, and fails the
    # run; the cubic graphs around them are all counted
    hard = [f.graph for f in load_fixtures("nontraceable_28_conn2")[:2]]
    lines = [_g6(complete_graph(4)), "\x01bad", _g6(hard[0]), "",
             _g6(complete_graph(5)), _g6(prism(3)), _g6(hard[1])]
    monkeypatch.setattr("sys.stdin", io.StringIO("\n".join(lines) + "\n"))
    code, out, err = run(capsys, ["census", "-"])
    assert code == 1
    first, second = err.splitlines()
    assert first.startswith("line 2: unparsable graph6: character ")
    assert second == "line 5: not cubic, skipped"
    assert [json.loads(line) for line in out.splitlines()] == [
        {"n": 4, "conn2": 0, "conn3": 0, "total": 1, "indeterminate": 0},
        {"n": 6, "conn2": 0, "conn3": 0, "total": 1, "indeterminate": 0},
        {"n": 28, "conn2": 2, "conn3": 0, "total": 2, "indeterminate": 0},
    ]


def test_census_fails_on_undecided_lines(tmp_path, capsys):
    from cubicml.census import load_fixtures

    bad = tmp_path / "bad.g6"
    bad.write_text("C~\n\x01bad\n")
    g = load_fixtures("nontraceable_28_conn2")[0].graph
    hard = write_stream(tmp_path, [g])
    cases = [
        ([str(bad)], {"n": 4, "conn2": 0, "conn3": 0, "total": 1,
                      "indeterminate": 0},
         "line 2: unparsable graph6"),
        ([hard, "--max-nodes", "1"], {"n": 28, "conn2": 0, "conn3": 0,
                                      "total": 1, "indeterminate": 1}, ""),
    ]
    for args, record, diagnostic in cases:
        code, out, err = run(capsys, ["census", *args])
        assert code == 1
        assert json.loads(out) == record
        assert err.startswith(diagnostic) and bool(err) == bool(diagnostic)


def test_census_of_generated_stream_and_fixtures(tmp_path, capsys):
    from cubicml.census import load_fixtures
    from cubicml.generate import generate_cubic

    lines: list[str] = []
    generate_cubic(14, sink=lambda g: lines.append(_g6(g)))
    lines[100:100] = ["", "\x01bad", _g6(complete_graph(5))]
    lines += [_g6(f.graph) for f in load_fixtures()
              if f.family != "order18_no_deg2_start"]  # the heavy ones last
    f = tmp_path / "census.g6"
    f.write_text("\n".join(lines) + "\n")
    code, out, err = run(capsys, ["census", str(f)])
    assert code == 1
    first, second = err.splitlines()
    assert first.startswith("line 102: unparsable graph6")
    assert second == "line 103: not cubic, skipped"
    assert [json.loads(line) for line in out.splitlines()] == [
        {"n": 14, "conn2": 0, "conn3": 0, "total": 509, "indeterminate": 0},
        {"n": 28, "conn2": 9, "conn3": 1, "total": 10, "indeterminate": 0},
        {"n": 30, "conn2": 0, "conn3": 9, "total": 9, "indeterminate": 0},
    ]


def test_lemma_short_scan_small(capsys):
    code, out, err = run(capsys, ["lemma-short", "--nmax", "6"])
    assert code == 0
    rec = json.loads(out.strip())
    assert rec["counterexamples"] == [] and rec["scanned"] == 19


@pytest.mark.parametrize("nmax", ["14", "2", "-1"])
def test_lemma_short_nmax_outside_generator_range_is_usage_error(nmax, capsys):
    code, out, err = run(capsys, ["lemma-short", "--nmax", nmax])
    assert code == 2 and out == ""
    assert err == "lemma-short: in-repo scan supports 3 <= nmax <= 13\n"


def test_lemma_short_scans_the_good_lines_of_a_stream(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO("Bw\n\x01bad\nBw\n"))
    code, out, err = run(capsys, ["lemma-short", "-"])
    assert code == 1
    assert err.startswith("line 2: ") and len(err.splitlines()) == 1
    rec = json.loads(out)
    assert rec["scanned"] == 2 and rec["counterexamples"] == []


def test_lemma_short_budget_cut_traceability_is_indeterminate(tmp_path, capsys):
    # the hypotheses hold but need a traceability search; a budget that cuts
    # it leaves the graph undecided, not failed, and the run fails
    g = load_fixtures("order18_no_deg2_start")[0].graph
    path = write_stream(tmp_path, [g])
    code, out, _ = run(capsys, ["lemma-short", path, "--max-nodes", "5"])
    rec = json.loads(out)
    assert code == 1
    assert rec["hypotheses_failed"] == 0 and rec["indeterminate"] == [_g6(g)]


def test_malformed_line_has_one_diagnostic(capsys, monkeypatch):
    # every stream command reports the bad line alike, keeps going and fails
    seen = set()
    for command in ("analyze", "census", "lemma-short"):
        monkeypatch.setattr("sys.stdin", io.StringIO("Bw\n\x01bad\nBw\n"))
        code, _, err = run(capsys, [command, "-"])
        assert code == 1
        seen.update(line for line in err.splitlines()
                    if line.startswith("line 2: "))
    assert len(seen) == 1
    assert seen.pop().startswith("line 2: unparsable graph6: character ")


BUDGETED = [["analyze", "-"], ["census", "-"], ["lemma-short", "-"],
            ["verify-paper"]]


@pytest.mark.parametrize("argv", BUDGETED)
@pytest.mark.parametrize("budget", ["0", "-5"])
def test_max_nodes_below_one_is_usage_error(argv, budget, capsys):
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--max-nodes", budget])
    assert exc.value.code == 2
    assert "--max-nodes" in capsys.readouterr().err


@pytest.mark.parametrize("argv", BUDGETED)
def test_max_nodes_not_an_integer_is_usage_error(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--max-nodes", "abc"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "--max-nodes: must be an integer, got 'abc'" in err
    assert "_max_nodes" not in err


def test_census_has_no_jobs_option(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["census", "-", "--jobs", "2"])
    assert exc.value.code == 2


def test_construct_families(capsys):
    code, out, _ = run(capsys, ["construct", "jcell_ring", "3"])
    assert code == 0
    g = parse_graph6(out.strip())
    assert g.adj == jcell_ring(3).adj

    code, out, _ = run(capsys, ["construct", "p_star_k4", "3"])
    assert code == 0
    assert parse_graph6(out.strip()).n == 28

    code, out, _ = run(capsys, ["construct", "edge_expansion",
                                "k4_minus_edge", "theta"])
    assert code == 0
    assert parse_graph6(out.strip()).n == 14

    code, out, _ = run(capsys, ["construct", "gadget", "smallest_jcell"])
    assert code == 0
    assert parse_graph6(out.strip()).n == 8


def test_construct_to_file(tmp_path, capsys):
    target = tmp_path / "out.g6"
    code, out, _ = run(capsys, ["construct", "cycle_petersen", "3",
                                "-o", str(target)])
    assert code == 0 and out == ""
    assert parse_graph6(target.read_text().strip()).n == 30


def test_construct_usage_errors(capsys):
    code, _, err = run(capsys, ["construct", "jcell_ring"])
    assert code == 2 and "parameter" in err
    code, _, err = run(capsys, ["construct", "jcell_ring", "1"])
    assert code == 2
    code, _, err = run(capsys, ["construct", "gadget", "nope"])
    assert code == 2
    code, _, err = run(capsys, ["construct", "edge_expansion",
                                "k4_minus_edge", "petersen"])
    assert code == 2 and "host" in err
    for family, text in (("cycle_petersen", "abc"), ("p_star_k4", "x")):
        code, _, err = run(capsys, ["construct", family, text])
        assert code == 2 and repr(text) in err and "int()" not in err


def test_construct_checks_ring_order_before_building(capsys, monkeypatch):
    # 8 * 32256 and 10 * 25805 are the first ring orders past graph6's
    # 4-byte form; a stand-in constructor shows which rings get built
    built = []

    def stand_in(k):
        built.append(k)
        return complete_graph(4)

    monkeypatch.setattr(cli, "jcell_ring", stand_in)
    monkeypatch.setattr(cli, "cycle_of_edge_deleted_petersen", stand_in)
    for family, k, n in (("jcell_ring", 32256, 258048),
                         ("cycle_petersen", 25805, 258050)):
        code, out, err = run(capsys, ["construct", family, str(k)])
        assert (code, out) == (2, "")
        assert f"order {n} exceeds supported graph6 range" in err
        code, out, _ = run(capsys, ["construct", family, str(k - 1)])
        assert code == 0 and out == "C~\n"
    assert built == [32255, 25804]


def test_unknown_subcommand_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_generate_stream(capsys):
    code, out, err = run(capsys, ["generate", "8"])
    assert code == 0
    lines = [ln for ln in out.splitlines() if ln]
    assert len(lines) == 5 and "5 graphs" in err
    assert all(is_cubic(parse_graph6(ln)) for ln in lines)
    code, _, err = run(capsys, ["generate", "3"])
    assert code == 2
    # K3,3 and the triangular prism are both 3-connected
    code, out, err = run(capsys, ["generate", "6", "--min-conn", "3"])
    assert code == 0 and "2 graphs" in err


def test_missing_file_exits_2(capsys, tmp_path):
    code, _, err = run(capsys, ["analyze", "/nonexistent/stream.g6"])
    assert code == 2
    assert err.startswith("cubicml: ") and err.count("\n") == 1
    # a directory where a file is expected is a usage error, not a traceback
    for argv in (["analyze", str(tmp_path)], ["census", str(tmp_path)],
                 ["lemma-short", str(tmp_path)],
                 ["construct", "jcell_ring", "2", "-o", str(tmp_path)]):
        code, _, err = run(capsys, argv)
        assert code == 2, argv
        assert err.startswith("cubicml: ") and err.count("\n") == 1, argv


# sha256 of the whole verify-paper stdout: its 101 "ok" lines and the summary
_VERIFY_PAPER_SHA256 = (
    "1c4b47312f91d2fa6f489d4583fbfe27b59ffae95e69115820b60eab3f7d9f22")


def test_verify_paper_command(capsys):
    code, out, err = run(capsys, ["verify-paper"])
    assert code == 0 and err == ""
    assert out.splitlines()[-1] == "101 checks, 0 failed"
    assert hashlib.sha256(out.encode()).hexdigest() == _VERIFY_PAPER_SHA256
