"""Fixture verification, the short-graph lemma scan, and the census core.

The embedded fixtures are the published example graphs this toolkit
reproduces: nineteen non-traceable cubic graphs on 28 and 30 vertices and
four 18-vertex graphs witnessing that the traceable-from-a-degree-2-vertex
guarantee stops at order 17.  Each fixture carries its expected properties
and is re-verified from scratch by ``verify_paper_artifacts``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from importlib import resources
from typing import Iterable

from .graph import (
    Graph,
    GraphError,
    bits,
    cut_vertices,
    is_cubic,
    mask_of,
    parse_graph6,
    pieces,
)
from .hamsearch import SearchBudget, Status, UNLIMITED, has_ham_path, has_ham_path_from
from .exact import analyze
from .isomorphism import canonical_form


@dataclass(frozen=True)
class Fixture:
    id: str
    family: str
    graph: Graph
    order: int
    connectivity: int | None  # None: not pinned for this family
    traceable: bool
    ml: int | None


_FAMILIES = (
    # (family, id stem, count, order, connectivity, traceable, ml)
    ("nontraceable_28_conn2", "nontraceable_28_c2", 9, 28, 2, False, 3),
    ("nontraceable_28_conn3", "nontraceable_28_c3", 1, 28, 3, False, 3),
    ("nontraceable_30_conn3", "nontraceable_30_c3", 9, 30, 3, False, 3),
    ("order18_no_deg2_start", "order18_no_deg2_start", 4, 18, None, True, None),
)


def load_fixtures(family: str | None = None) -> list[Fixture]:
    """Load embedded fixtures, optionally restricted to one family: one
    graph6 line each in ``data/fixtures.g6``, in ``_FAMILIES`` order."""
    lines = resources.files("cubicml").joinpath(
        "data/fixtures.g6").read_bytes().splitlines()
    if len(lines) != sum(row[2] for row in _FAMILIES):
        raise GraphError(f"fixtures.g6 has {len(lines)} lines")
    out: list[Fixture] = []
    for fam, stem, count, order, conn, traceable, ml in _FAMILIES:
        part, lines = lines[:count], lines[count:]
        if family in (None, fam):
            for i, line in enumerate(part, start=1):
                fid = stem if count == 1 else f"{stem}_{i:02d}"
                out.append(Fixture(fid, fam, parse_graph6(line), order,
                                   conn, traceable, ml))
    if not out:
        raise ValueError(f"unknown fixture family {family!r}")
    return out


# --- short-graph lemma ----------------------------------------------------


def lemma_short_hypotheses(g: Graph,
                           budget: SearchBudget = UNLIMITED,
                           ) -> tuple[bool | None, str | None]:
    """Hypotheses for the degree-2-start traceability guarantee.

    Connected, all degrees in {2, 3}, at least two degree-2 vertices,
    every cut vertex leaves a degree-2 vertex in each component, and the
    graph is traceable.  Returns (ok, failing clause); ok is None when the
    budget cut the traceability search.  Each cut vertex v that one DFS
    finds is tried (a non-cut v passes, as there are two degree-2 vertices):
    v fails when fewer components of ``g`` - v hold a degree-2 vertex than
    hold a neighbour of v, which every component does.
    """
    degs = g.degrees()
    if g.n == 0 or any(d not in (2, 3) for d in degs):
        return False, "degrees not within {2,3}"
    if not g.connected:
        return False, "not connected"
    if degs.count(2) < 2:
        return False, "fewer than two degree-2 vertices"
    full = g.full_mask()
    deg2_mask = mask_of(v for v, d in enumerate(degs) if d == 2)
    for v in bits(cut_vertices(g.adj, full)):
        rest = full ^ 1 << v
        if pieces(g.adj, deg2_mask, rest) < pieces(g.adj, g.adj[v], rest):
            return False, f"cut vertex {v}: a component has no degree-2 vertex"
    r = has_ham_path(g, budget)
    if r.status is Status.INDETERMINATE:
        return None, "traceability indeterminate under budget"
    if r.is_no:
        return False, "not traceable"
    return True, None


@dataclass
class ScanResult:
    counterexamples: list[Graph] = field(default_factory=list)
    indeterminate: list[Graph] = field(default_factory=list)
    scanned: int = 0
    hypotheses_failed: int = 0


def lemma_short_scan(graphs: Iterable[Graph],
                     budget: SearchBudget = UNLIMITED) -> ScanResult:
    """Find graphs meeting the hypotheses with no hamiltonian path starting
    at any degree-2 vertex.  Budget-truncated searches are collected apart,
    never silently dropped."""
    result = ScanResult()
    for g in graphs:
        result.scanned += 1
        ok, _ = lemma_short_hypotheses(g, budget)
        if ok is None:
            result.indeterminate.append(g)
            continue
        if not ok:
            result.hypotheses_failed += 1
            continue
        unresolved = False
        found = False
        for v in (v for v, d in enumerate(g.degrees()) if d == 2):
            r = has_ham_path_from(g, v, budget)
            if r.is_yes:
                found = True
                break
            if r.status is Status.INDETERMINATE:
                unresolved = True
        if found:
            continue
        if unresolved:
            result.indeterminate.append(g)
        else:
            result.counterexamples.append(g)
    return result


# --- the non-traceable census ---------------------------------------------


@dataclass
class CensusRecord:
    n: int
    conn2: int = 0
    conn3: int = 0
    total: int = 0
    indeterminate: int = 0


def census_graph(g: Graph, budget: SearchBudget = UNLIMITED) -> tuple[str, int]:
    """Classify one cubic graph: returns (kind, connectivity) where kind is
    'traceable', 'nontraceable' or 'indeterminate'."""
    a = analyze(g, budget)
    kind = {True: "traceable", False: "nontraceable", None: "indeterminate"}
    return kind[a.traceable], a.connectivity


def nontraceable_census(graphs: Iterable[Graph],
                        budget: SearchBudget = UNLIMITED) -> list[CensusRecord]:
    """Count non-traceable cubic graphs by order and connectivity class.

    Records are counts per order, so the census of a stream split into
    parts is the sum of the parts' records.  A graph that is not cubic
    raises ``GraphError``: the census never counts one silently.
    """
    records: dict[int, CensusRecord] = {}
    for g in graphs:
        if not is_cubic(g):
            raise GraphError(f"census counts cubic graphs only, got {g!r}")
        kind, conn = census_graph(g, budget)
        rec = records.setdefault(g.n, CensusRecord(g.n))
        rec.total += 1
        if kind == "indeterminate":
            rec.indeterminate += 1
        elif kind == "nontraceable":
            if conn == 2:
                rec.conn2 += 1
            elif conn == 3:
                rec.conn3 += 1
    return sorted(records.values(), key=lambda r: r.n)


# --- full published-artifact verification ---------------------------------


def _distinct(forms: list[bytes]) -> bool:
    """No two graphs with these canonical forms are isomorphic."""
    return len(set(forms)) == len(forms)


@dataclass(frozen=True)
class Check:
    fixture: str
    name: str
    expected: object
    actual: object

    @property
    def ok(self) -> bool:
        return self.expected == self.actual


def verify_paper_artifacts(budget: SearchBudget = UNLIMITED) -> list[Check]:
    """Re-verify every embedded fixture and the construction match.

    Checks, per census fixture: order, connectivity class, exhaustive
    non-traceability, and minimum leaf number 3.  The 28-vertex
    connectivity-3 graph must equal the vertex-substitution construction on
    K4 up to isomorphism, and each fixture family must be pairwise
    non-isomorphic.  The 18-vertex graphs must pass the lemma hypotheses
    yet admit no hamiltonian path from any degree-2 vertex.
    """
    from .constructions import complete_graph, substitute_p_star

    checks: list[Check] = []
    form: dict[str, bytes] = {}  # canonical forms by fixture id
    fixtures = load_fixtures()
    census_fixtures = [f for f in fixtures
                       if f.family != "order18_no_deg2_start"]
    for f in census_fixtures:
        checks.append(Check(f.id, "order", f.order, f.graph.n))
        checks.append(Check(f.id, "cubic", True, is_cubic(f.graph)))
        a = analyze(f.graph, budget, ml=True)
        checks.append(Check(f.id, "connectivity", f.connectivity,
                            a.connectivity))
        checks.append(Check(f.id, "traceable", f.traceable, a.traceable))
        checks.append(Check(f.id, "ml", f.ml, a.ml.value))
        form[f.id] = (canonical_form(f.graph) if a.labeling is None
                      else a.labeling.form)

    g28 = substitute_p_star(complete_graph(4), [0, 1, 2])
    target = next(f for f in census_fixtures if f.family == "nontraceable_28_conn3")
    checks.append(Check(
        target.id, "matches substitution construction", True,
        canonical_form(g28) == form[target.id]))

    for fam in ("nontraceable_28_conn2", "nontraceable_30_conn3"):
        checks.append(Check(fam, "pairwise non-isomorphic", True, _distinct(
            [form[f.id] for f in census_fixtures if f.family == fam])))
    conn2 = {form[f.id] for f in census_fixtures
             if f.family == "nontraceable_28_conn2"}
    checks.append(Check(
        "nontraceable_28_conn2", "distinct from connectivity-3 graph", True,
        form[target.id] not in conn2))

    lemma_fixtures = [f for f in fixtures
                      if f.family == "order18_no_deg2_start"]
    scan = lemma_short_scan((f.graph for f in lemma_fixtures), budget=budget)
    checks.append(Check(
        "order18_no_deg2_start", "all are counterexamples",
        len(lemma_fixtures),
        None if scan.indeterminate else len(scan.counterexamples)))
    checks.append(Check(
        "order18_no_deg2_start", "pairwise non-isomorphic", True,
        _distinct([canonical_form(f.graph) for f in lemma_fixtures])))
    return checks
