"""Acceptance gate: one pass/fail line per top-level criterion.

Each test prints "PASS criterion-N: ..." or "FAIL criterion-N: ..." so the
verbose run reads as a checklist; the assertion carries the same verdict.
"""

import hashlib
import random
import sys
from fractions import Fraction
from itertools import combinations, permutations

import pytest

from cubicml.graph import (
    Graph,
    is_cubic,
    vertex_connectivity_capped,
    write_graph6,
)
from cubicml.hamsearch import has_ham_path
from cubicml.isomorphism import are_isomorphic, canonical_form
from cubicml.exact import min_leaf_number, path_cover_number
from cubicml.cover import run_cover_procedure
from cubicml.constructions import (
    MultiGraph,
    complete_graph,
    cycle_of_edge_deleted_petersen,
    edge_expansion,
    jcell_ring,
    named_graph,
    substitute_p_star,
    theta_multigraph,
)
from cubicml.generate import generate_cubic
from cubicml.census import (
    lemma_short_scan,
    load_fixtures,
    nontraceable_census,
)
from conftest import random_cubic_graph, random_connected_graph
from jcell import is_jcell
from oracles import count_spanning_trees, enumerate_spanning_trees, group_elements


def report(ok: bool, label: str, detail: str = "") -> None:
    verdict = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"{verdict} {label}{suffix}", file=sys.stderr)
    assert ok, f"{label}{suffix}"


def test_criterion_1_fixture_verification():
    """Each embedded 28-/30-vertex graph verifies order, connectivity,
    exhaustive non-traceability, and minimum leaf number 3."""
    problems = []
    fixtures = [f for f in load_fixtures() if f.family != "order18_no_deg2_start"]
    for f in fixtures:
        if f.graph.n != f.order or not is_cubic(f.graph):
            problems.append(f"{f.id}: order/degree")
        if vertex_connectivity_capped(f.graph, 3) != f.connectivity:
            problems.append(f"{f.id}: connectivity")
        if not has_ham_path(f.graph).is_no:
            problems.append(f"{f.id}: traceability")
        if min_leaf_number(f.graph).value != 3:
            problems.append(f"{f.id}: ml")
    report(len(fixtures) == 19 and not problems,
           "criterion-1: 19 embedded fixtures verify "
           "order/connectivity/non-traceability/ml=3",
           "; ".join(problems))


def test_criterion_2_uniqueness_construction():
    """The vertex substitution on K4 matches the unique 3-connected
    28-vertex fixture; the connectivity-2 fixtures are pairwise distinct."""
    g28 = substitute_p_star(complete_graph(4), [0, 1, 2])
    target = load_fixtures("nontraceable_28_conn3")[0].graph
    ok = are_isomorphic(g28, target)
    conn2 = [f.graph for f in load_fixtures("nontraceable_28_conn2")]
    forms = {canonical_form(g) for g in conn2}
    ok = ok and len(forms) == 9
    ok = ok and canonical_form(target) not in forms
    report(ok, "criterion-2: substitution construction matches the "
               "3-connected fixture; the nine 2-connected fixtures distinct")


def _oracle_maxdeg3_classes(n: int) -> list[Graph]:
    """Independent generate-and-dedup enumeration, max degree <= 3."""
    level = [Graph.from_edges(1, [])]
    for k in range(1, n):
        forms: set[bytes] = set()
        nxt: list[Graph] = []
        for g in level:
            low = [v for v in range(k) if g.degree(v) < 3]
            for size in range(1, min(3, len(low)) + 1):
                for combo in combinations(low, size):
                    adj = list(g.adj) + [0]
                    for v in combo:
                        adj[v] |= 1 << k
                        adj[k] |= 1 << v
                    child = Graph(k + 1, tuple(adj))
                    f = canonical_form(child)
                    if f not in forms:
                        forms.add(f)
                        nxt.append(child)
        level = nxt
    return level


def test_criterion_3_desk_scale_census():
    """In-repo generation and traceability scan: no non-traceable
    2-connected cubic graph up to order 14 (order 16+ is exercised
    separately as a slow test); generator counts match the dedup oracle."""
    ok = True
    details = []
    for n in (4, 6, 8, 10):
        oracle = sum(1 for g in _oracle_maxdeg3_classes(n) if is_cubic(g))
        got = generate_cubic(n)
        if got != oracle:
            ok = False
            details.append(f"n={n}: generator {got} != oracle {oracle}")
    lines: list[bytes] = []
    for n in (4, 6, 8, 10, 12, 14):
        generate_cubic(n, sink=lambda g: lines.append(write_graph6(g)))
    records, diagnostics = nontraceable_census(lines)
    if diagnostics or any(
            r.conn2 or r.conn3 or r.indeterminate for r in records):
        ok = False
        details.append("unexpected non-traceable or indeterminate entries")
    report(ok, "criterion-3: census n<=14 has zero non-traceable "
               "2-connected cubic graphs; counts match the dedup oracle",
           "; ".join(details))


# sha256 of the ``generate 16`` graph6 lines, one per line
_GENERATE_16_SHA256 = ("346e694623ac1db4649e7538fc50ae5a20e2cee7dca4dbd61a329a"
                       "bc604c3fd1")


@pytest.mark.slow
def test_criterion_3_census_extension_n16():
    """All 4,060 connected cubic graphs on 16 vertices (OEIS A002851), as
    pinned, and none of them is non-traceable and 2-connected."""
    lines: list[bytes] = []
    generate_cubic(16, sink=lambda g: lines.append(write_graph6(g)))
    digest = hashlib.sha256(b"".join(line + b"\n" for line in lines))
    records, diagnostics = nontraceable_census(lines)
    ok = (not diagnostics and digest.hexdigest() == _GENERATE_16_SHA256
          and [r.total for r in records] == [4060] and all(
              r.conn2 == 0 and r.conn3 == 0 and r.indeterminate == 0
              for r in records))
    report(ok, "criterion-3-slow: census extension to n=16 clean; 4060 "
               "graphs, output pinned")


def test_criterion_4_lemma_short():
    """Exhaustive degree-{2,3} scan to order 12 finds no counterexample;
    the four 18-vertex fixtures all are counterexamples."""
    from cubicml.generate import generate_degree23

    def all_small():
        for n in range(3, 13):
            batch: list[Graph] = []
            generate_degree23(n, batch.append)
            yield from batch

    scan = lemma_short_scan(all_small())
    ok = scan.counterexamples == [] and scan.indeterminate == []
    fixtures = load_fixtures("order18_no_deg2_start")
    fscan = lemma_short_scan(f.graph for f in fixtures)
    ok = ok and len(fscan.counterexamples) == 4 and fscan.indeterminate == []
    forms = {canonical_form(g) for g in fscan.counterexamples}
    ok = ok and len(forms) == 4
    report(ok, "criterion-4: no degree-2-start counterexample up to "
               "order 12; all four order-18 witnesses confirmed distinct")


def test_criterion_5_construction_formulas():
    """Order and minimum-leaf values of the construction families."""
    ok = True
    details = []

    g = edge_expansion(MultiGraph.from_graph(complete_graph(4)),
                       named_graph("k4_minus_edge"))
    if g.n != 28 or min_leaf_number(g).value != 3:
        ok = False
        details.append("edge expansion of K4")
    g = edge_expansion(theta_multigraph(), named_graph("k4_minus_edge"))
    if g.n != 14 or min_leaf_number(g).value != 2:
        ok = False
        details.append("edge expansion of theta")
    if min_leaf_number(jcell_ring(3)).value != 2:
        ok = False
        details.append("ring of 3 cells")
    g = cycle_of_edge_deleted_petersen(3)
    ml = min_leaf_number(g).value
    if not (-(-g.n // 10) <= ml <= 4):
        ok = False
        details.append(f"cycle of deleted-edge blocks: ml={ml}")
    report(ok, "criterion-5: construction family orders and leaf numbers",
           "; ".join(details))


def test_criterion_5_ring_of_five_cells():
    report(min_leaf_number(jcell_ring(5)).value == 3,
           "criterion-5-slow: ring of 5 cells has ml=3")


def test_criterion_6_terminal_quadruple_recognition():
    """Brute force over all ordered quadruples of the 8-vertex gadget:
    the canonical labeling is accepted and the accepted set is exactly
    one automorphism orbit."""
    from cubicml.isomorphism import canonical_data

    gadget = named_graph("smallest_jcell")
    h = gadget.graph
    accepted = {quad for quad in permutations(range(8), 4)
                if is_jcell(h, *quad) == 0}
    ok = tuple(gadget.attach) in accepted
    autos = group_elements(canonical_data(h).automorphisms)
    orbit = {tuple(perm[v] for v in gadget.attach) for perm in autos}
    ok = ok and accepted == orbit
    report(ok, "criterion-6: quadruple recognition accepts exactly the "
               f"automorphism orbit of the canonical terminals "
               f"({len(accepted)} of 1680)")


def test_criterion_7_random_corpus_properties():
    """500 random 2-connected cubic graphs, orders 18-24: sandwich,
    n/6 + 1/3 and 13n/85 envelopes, the ml=2mu implication, and the
    cover-procedure audit."""
    rng = random.Random(2024)
    violations = []
    certified = 0
    for i in range(500):
        n = rng.choice((18, 20, 22, 24))
        g = random_cubic_graph(rng, n, min_conn=2)
        ml = min_leaf_number(g).value
        mu = path_cover_number(g).value
        if not (mu + 1 <= ml <= 2 * mu) and not (mu == 1 and ml == 2):
            violations.append(f"#{i}: sandwich ml={ml} mu={mu}")
        if Fraction(ml) > Fraction(n, 6) + Fraction(1, 3):
            violations.append(f"#{i}: n/6+1/3 envelope")
        if Fraction(ml) > Fraction(13 * n, 85):
            violations.append(f"#{i}: 13n/85 envelope")
        if ml == 2 * mu and mu > Fraction(n, 18):
            violations.append(f"#{i}: ml=2mu implication")
        rep = run_cover_procedure(g, exact_mu=mu)
        if not rep.tree.validate(g) or rep.leaf_count < ml:
            violations.append(f"#{i}: cover tree invalid")
        if rep.certified:
            certified += 1
            if rep.leaf_count > rep.bound_s_plus_2l or \
                    Fraction(rep.bound_s_plus_2l) > Fraction(13 * n, 85):
                violations.append(f"#{i}: certified audit")
    report(not violations and certified > 0,
           "criterion-7: 500-graph random corpus satisfies all bounds "
           f"({certified} certified cover runs)",
           "; ".join(violations[:5]))


def _oracle_traceable(g: Graph) -> bool:
    """Vertex-ordering enumeration with prefix-adjacency pruning."""
    n = g.n
    adj = g.adj

    def extend(last: int, used: int, depth: int) -> bool:
        if depth == n:
            return True
        for v in range(n):
            if not used >> v & 1 and adj[last] >> v & 1:
                if extend(v, used | 1 << v, depth + 1):
                    return True
        return False

    return any(extend(s, 1 << s, 1) for s in range(n))


def test_criterion_8_oracle_equivalence():
    """Spanning-tree enumeration equals the determinant count; the path
    search agrees with ordering enumeration on all connected graphs
    through order 8."""
    ok = True
    details = []

    petersen = Graph.from_edges(
        10,
        [(i, (i + 1) % 5) for i in range(5)]
        + [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
        + [(i, 5 + i) for i in range(5)])
    fixed = {
        "K4": (complete_graph(4), 16),
        "C5": (Graph.from_edges(5, [(i, (i + 1) % 5) for i in range(5)]), 5),
        "Petersen": (petersen, 2000),
    }
    for name, (g, expected) in fixed.items():
        trees = sum(1 for _ in enumerate_spanning_trees(g))
        if trees != expected or count_spanning_trees(g) != expected:
            ok = False
            details.append(f"{name} count")

    rng = random.Random(88)
    for i in range(200):
        g = random_connected_graph(rng, rng.randint(2, 10), 0.45)
        if sum(1 for _ in enumerate_spanning_trees(g)) != \
                count_spanning_trees(g):
            ok = False
            details.append(f"random #{i}")

    scanned = 0
    mismatches = 0
    level = [Graph.from_edges(1, [])]
    for k in range(1, 8):
        forms: set[bytes] = set()
        nxt: list[Graph] = []
        for g in level:
            for size in range(1, k + 1):
                for combo in combinations(range(k), size):
                    adj = list(g.adj) + [0]
                    for v in combo:
                        adj[v] |= 1 << k
                        adj[k] |= 1 << v
                    child = Graph(k + 1, tuple(adj))
                    f = canonical_form(child)
                    if f not in forms:
                        forms.add(f)
                        nxt.append(child)
        level = nxt
        for g in level:
            scanned += 1
            if has_ham_path(g).is_yes != _oracle_traceable(g):
                mismatches += 1
    # connected graph counts for orders 2..8
    if mismatches or scanned != 1 + 2 + 6 + 21 + 112 + 853 + 11117:
        ok = False
        details.append(f"path search scan: {mismatches} mismatches "
                       f"over {scanned} graphs")
    report(ok, "criterion-8: determinant/enumeration and path-search/"
               f"ordering oracles agree ({scanned} graphs scanned)",
           "; ".join(details))
