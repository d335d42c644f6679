"""Embedded fixtures, the degree-2-start lemma machinery, and the census."""

import random
from itertools import combinations

import pytest

from cubicml.graph import Graph, write_graph6
from cubicml.hamsearch import SearchBudget
from cubicml.census import (
    CensusRecord,
    census_graph,
    lemma_short_hypotheses,
    lemma_short_scan,
    load_fixtures,
    nontraceable_census,
    verify_paper_artifacts,
)
from cubicml.generate import generate_cubic, generate_degree23
from conftest import prism
from oracles import lemma_short_hypotheses_at_cut_vertices


def k4() -> Graph:
    return Graph.from_edges(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])


def joined_triangles() -> Graph:
    # two triangles joined by an edge: degrees {2,3}, two cut vertices
    return Graph.from_edges(
        6, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 5), (5, 3)])


def test_load_fixtures_families_and_counts():
    fixtures = load_fixtures()
    by_family: dict[str, int] = {}
    for f in fixtures:
        by_family[f.family] = by_family.get(f.family, 0) + 1
    assert by_family == {
        "nontraceable_28_conn2": 9,
        "nontraceable_28_conn3": 1,
        "nontraceable_30_conn3": 9,
        "order18_no_deg2_start": 4,
    }
    for f in fixtures:
        assert f.graph.n == f.order
    assert len(load_fixtures("nontraceable_30_conn3")) == 9
    with pytest.raises(ValueError):
        load_fixtures("no_such_family")


def test_lemma_hypotheses_examples():
    ok, clause = lemma_short_hypotheses(k4())
    assert not ok and "degree-2" in clause
    # each cut vertex separates a triangle keeping its degree-2 vertices,
    # and the graph is traceable, so the hypotheses hold
    ok, clause = lemma_short_hypotheses(joined_triangles())
    assert ok and clause is None
    # the bowtie has a degree-4 centre, so the degree clause fails
    bowtie = Graph.from_edges(
        5, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 2)])
    ok, clause = lemma_short_hypotheses(bowtie)
    assert not ok and "degrees" in clause
    degree4 = Graph.from_edges(5, [(0, i) for i in range(1, 5)] + [(1, 2), (3, 4)])
    ok, clause = lemma_short_hypotheses(degree4)
    assert not ok and "degrees" in clause


def test_lemma_hypotheses_cut_vertex_clause():
    # a triangle joined by a cut vertex to a K4-like block with no
    # degree-2 vertex in that component must fail the clause
    g = Graph.from_edges(
        8,
        [(0, 1), (1, 2), (2, 0),  # triangle, vertices 0,1 have degree 2
         (2, 3),
         (3, 4), (3, 5), (4, 5), (4, 6), (5, 7), (6, 7), (6, 4), (7, 5)])
    ok, clause = lemma_short_hypotheses(g)
    if not ok:
        assert "cut vertex" in clause or "degrees" in clause


def _random_degree23(rng: random.Random, n: int) -> Graph:
    """Random edges of max degree 3, stopping at random once every degree
    is at least 2."""
    deg = [0] * n
    edges = []
    pairs = list(combinations(range(n), 2))
    rng.shuffle(pairs)
    for u, v in pairs:
        if deg[u] < 3 and deg[v] < 3:
            edges.append((u, v))
            deg[u] += 1
            deg[v] += 1
            if min(deg) >= 2 and rng.random() < 0.3:
                break
    return Graph.from_edges(n, edges)


def _bridged(rng: random.Random, a: Graph, b: Graph) -> Graph:
    """``a`` and ``b`` joined by an edge, at a degree-2 vertex of each
    where there is one."""
    u, v = (rng.choice([w for w in range(h.n) if h.degree(w) == 2] or [0])
            for h in (a, b))
    return Graph.from_edges(a.n + b.n, a.edges + [
        (x + a.n, y + a.n) for x, y in b.edges] + [(u, v + a.n)])


def test_lemma_hypotheses_match_the_cut_vertex_oracle():
    graphs: list[Graph] = []
    for n in range(3, 10):
        generate_degree23(n, graphs.append)
    rng = random.Random(19)
    graphs += [_random_degree23(rng, rng.randint(4, 14)) for _ in range(300)]
    graphs += [_bridged(rng, _random_degree23(rng, rng.randint(3, 8)),
                        _random_degree23(rng, rng.randint(3, 8)))
               for _ in range(300)]
    cut_failures = 0
    for g in graphs:
        ok, clause = lemma_short_hypotheses(g)
        assert (ok, clause) == lemma_short_hypotheses_at_cut_vertices(g)
        cut_failures += clause is not None and clause.startswith("cut vertex")
    assert cut_failures >= 40


def test_lemma_scan_filters_and_finds():
    scan = lemma_short_scan([k4(), joined_triangles()])
    assert scan.scanned == 2
    assert scan.hypotheses_failed == 1  # K4
    assert scan.counterexamples == []  # a degree-2-start ham path exists


def test_lemma_scan_on_embedded_order18_graphs():
    fixtures = load_fixtures("order18_no_deg2_start")
    scan = lemma_short_scan(f.graph for f in fixtures)
    assert len(scan.counterexamples) == 4
    assert scan.indeterminate == []
    # scan soundness: rerunning on the counterexamples reproduces them
    again = lemma_short_scan(scan.counterexamples)
    assert len(again.counterexamples) == 4


def test_census_graph_kinds():
    assert census_graph(k4()) == ("traceable", 3)
    f = load_fixtures("nontraceable_28_conn2")[0]
    assert census_graph(f.graph) == ("nontraceable", 2)
    kind, _ = census_graph(f.graph, SearchBudget(max_nodes=5))
    assert kind == "indeterminate"


def test_nontraceable_census_on_fixtures():
    fixtures = [f for f in load_fixtures() if f.family != "order18_no_deg2_start"]
    lines = [write_graph6(f.graph) for f in fixtures]
    records, diagnostics = nontraceable_census(lines)
    assert diagnostics == []
    by_n = {r.n: r for r in records}
    assert by_n[28].conn2 == 9 and by_n[28].conn3 == 1 and by_n[28].total == 10
    assert by_n[30].conn3 == 9 and by_n[30].total == 9
    assert all(r.indeterminate == 0 for r in records)


def test_nontraceable_census_diagnostics():
    # one unparsable line, one non-cubic graph (K5), one blank line
    records, diagnostics = nontraceable_census(["C~", "\x01bad", "D~{", ""])
    assert len(diagnostics) == 2
    # K4 is cubic: one record with zero non-traceable entries
    assert records[0].n == 4 and records[0].total == 1
    assert records[0].conn2 == 0 and records[0].conn3 == 0


def test_nontraceable_census_maps_cubic_graphs_in_stream_order():
    hard = [f.graph for f in load_fixtures("nontraceable_28_conn2")[:2]]
    cubic = [k4(), hard[0], prism(3), hard[1]]
    lines = [write_graph6(g) for g in cubic]
    lines[1:1] = ["\x01bad"]
    lines[3:3] = ["", "D~{"]
    records, diagnostics = nontraceable_census(lines)
    assert records == [CensusRecord(4, total=1), CensusRecord(6, total=1),
                       CensusRecord(28, conn2=2, total=2)]
    assert diagnostics[0].startswith("line 2: unparsable graph6")
    assert diagnostics[1:] == ["line 5: not cubic, skipped"]


def test_in_repo_census_small_orders():
    lines: list[bytes] = []
    for n in (4, 6, 8, 10):
        generate_cubic(n, sink=lambda g: lines.append(write_graph6(g)))
    records, diagnostics = nontraceable_census(lines)
    assert diagnostics == []
    for r in records:
        assert r.conn2 == 0 and r.conn3 == 0 and r.indeterminate == 0


def test_verify_paper_artifacts_all_green():
    checks = verify_paper_artifacts()
    failures = [c for c in checks if not c.ok]
    assert failures == []
    assert len(checks) > 90


def test_verify_paper_artifacts_budget_cut_is_indeterminate():
    # a cut search proves nothing: the ladder must report None, never False
    checks = verify_paper_artifacts(SearchBudget(max_nodes=5))
    cut = [c for c in checks if c.name in ("traceable", "ml")]
    assert len(cut) == 2 * 19
    assert all(c.actual is None for c in cut)


def test_budget_cut_lemma_check_is_undecided():
    # the four order-18 graphs land in scan.indeterminate, not in 0
    # counterexamples
    checks = verify_paper_artifacts(SearchBudget(max_nodes=5))
    lemma = [c for c in checks if c.name == "all are counterexamples"]
    assert [(c.expected, c.actual) for c in lemma] == [(4, None)]
