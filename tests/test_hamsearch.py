"""Hamiltonian path/cycle and leg cover search, and the J-cell recognizer
of ``tests/jcell.py`` that is built on it.  Fixed-pair queries go through
``jcell.ham_path_between`` and are checked against the permutation
oracle."""

import os
import random
import subprocess
import sys
from itertools import permutations
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cubicml
from cubicml import hamsearch
from cubicml.census import load_fixtures
from cubicml.graph import (
    Graph, GraphError, WitnessError, induced_subgraph, is_connected,
    parse_graph6)
from cubicml.hamsearch import (
    UNLIMITED,
    SearchBudget,
    Status,
    check_path_witness,
    has_ham_cycle,
    has_ham_path,
    has_ham_path_from,
    has_leg_cover,
)
from cubicml.constructions import (
    cycle_of_edge_deleted_petersen, jcell_ring, named_graph)
from conftest import (
    bridged_prisms, gadget_caterpillar, prism, random_connected_graph,
    random_cubic_graph, random_graph, relabel, shuffled_copy)
from jcell import ham_path_between, is_jcell, two_path_pairing
from oracles import ham_path_without_orbits, table_free


def cycle(n: int) -> Graph:
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def path_graph(n: int) -> Graph:
    return Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


def petersen() -> Graph:
    outer = [(i, (i + 1) % 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    spokes = [(i, 5 + i) for i in range(5)]
    return Graph.from_edges(10, outer + inner + spokes)


def oracle_ham_path(g: Graph, start: int | None = None,
                    end: int | None = None) -> bool:
    """Permutation-enumeration oracle for hamiltonian paths."""
    for perm in permutations(range(g.n)):
        if start is not None and perm[0] != start:
            continue
        if end is not None and perm[-1] != end:
            continue
        if all(g.adj[perm[i]] >> perm[i + 1] & 1 for i in range(g.n - 1)):
            return True
    return False


def oracle_ham_cycle(g: Graph) -> bool:
    if g.n == 0:
        return False
    for perm in permutations(range(1, g.n)):
        seq = (0, *perm)
        if all(g.adj[seq[i]] >> seq[i + 1] & 1 for i in range(g.n - 1)) \
                and g.adj[seq[-1]] >> 0 & 1:
            return True
    return False


def test_witness_checker():
    g = path_graph(4)
    assert check_path_witness(g, (0, 1, 2, 3))
    assert not check_path_witness(g, (0, 1, 1, 3))
    assert not check_path_witness(g, (0, 2, 1, 3))
    # a correct path that misses a vertex is not hamiltonian
    assert not check_path_witness(Graph.from_edges(3, [(0, 1), (1, 2)]), (0, 1))


def test_path_and_cycle_basics():
    assert has_ham_path(path_graph(6)).is_yes
    assert not has_ham_cycle(path_graph(6)).is_yes
    r = has_ham_cycle(cycle(7))
    assert r.is_yes and len(r.witness) == 7
    # Petersen: traceable, hypohamiltonian (no hamiltonian cycle)
    assert has_ham_path(petersen()).is_yes
    assert has_ham_cycle(petersen()).is_no


def test_fixed_endpoint_queries():
    g = path_graph(5)
    assert has_ham_path_from(g, 0).is_yes
    assert has_ham_path_from(g, 2).is_no
    assert ham_path_between(g, 0, 4) == (0, 1, 2, 3, 4)
    assert ham_path_between(g, 0, 2) is None
    with pytest.raises(GraphError):
        has_ham_path_from(g, 9)


def test_witnesses_respect_constraints():
    g = cycle(8)
    r = has_ham_path_from(g, 3)
    assert r.witness[0] == 3 and check_path_witness(g, r.witness)
    # in a cycle, hamiltonian-path endpoints must be adjacent
    w = ham_path_between(g, 2, 3)
    assert (w[0], w[-1]) == (2, 3) and check_path_witness(g, w)
    assert ham_path_between(g, 2, 5) is None


def test_matches_permutation_oracle_on_random_graphs():
    rng = random.Random(11)
    for _ in range(40):
        n = rng.randint(3, 7)
        g = random_connected_graph(rng, n, 0.4)
        assert has_ham_path(g).is_yes == oracle_ham_path(g)
        assert has_ham_cycle(g).is_yes == oracle_ham_cycle(g)
        v = rng.randrange(n)
        assert has_ham_path_from(g, v).is_yes == oracle_ham_path(g, start=v)
        w = (v + 1) % n
        path = ham_path_between(g, v, w)
        assert (path is not None) == oracle_ham_path(g, start=v, end=w)
        assert path is None or check_path_witness(g, path) and (
            path[0], path[-1]) == (v, w)


def test_budget_truncation_is_reported():
    g = petersen()
    r = has_ham_cycle(g, SearchBudget(max_nodes=3))
    assert r.status is Status.INDETERMINATE
    assert not r.is_yes and not r.is_no


def oracle_two_paths(g: Graph, p1, p2) -> bool:
    """Brute-force two-path cover oracle via vertex bipartitions."""
    a, b = p1
    c, d = p2
    for mask in range(1 << g.n):
        if not all(mask >> v & 1 for v in (a, b)):
            continue
        if any(mask >> v & 1 for v in (c, d)):
            continue
        part1 = [v for v in range(g.n) if mask >> v & 1]
        part2 = [v for v in range(g.n) if not mask >> v & 1]
        if _path_through(g, part1, a, b) and _path_through(g, part2, c, d):
            return True
    return False


def _path_through(g: Graph, vertices, s, t) -> bool:
    if len(vertices) == 1:
        return s == t == vertices[0]
    if s == t:
        return False
    rest = [v for v in vertices if v not in (s, t)]
    for perm in permutations(rest):
        seq = (s, *perm, t)
        if all(g.adj[seq[i]] >> seq[i + 1] & 1 for i in range(len(seq) - 1)):
            return True
    return False


def test_spanning_two_paths_square():
    # C4 is covered by the paths 0-1 and 2-3, never by 0..2 and 1..3, so
    # the pairing read off the witness must be the one that exists.
    assert two_path_pairing(cycle(4), 0, 1, 2, 3) == "ab|cd"
    assert two_path_pairing(cycle(4), 0, 2, 1, 3) == "ac|bd"
    # P4 0-1-2-3: only 0-1 with 2-3, which neither pairing of (0,2,3,1) is.
    assert two_path_pairing(path_graph(4), 0, 2, 3, 1) is None


def test_spanning_two_paths_matches_oracle():
    rng = random.Random(12)
    for _ in range(25):
        n = rng.randint(4, 7)
        g = random_connected_graph(rng, n, 0.5)
        a, b, c, d = rng.sample(range(n), 4)
        found = two_path_pairing(g, a, b, c, d)
        ab_cd = oracle_two_paths(g, (a, b), (c, d))
        ac_bd = oracle_two_paths(g, (a, c), (b, d))
        assert (found is not None) == (ab_cd or ac_bd)
        assert found != "ab|cd" or ab_cd
        assert found != "ac|bd" or ac_bd


def oracle_is_jcell(h: Graph, a: int, b: int, c: int, d: int) -> int:
    """The first J-cell condition that (a, b, c, d) fails in h, by brute
    force; 0 when all three hold."""
    singles = [(a, b), (c, d), (a, c), (b, d)]
    doubles = [((a, b), (c, d)), ((a, c), (b, d))]

    def good(g, back, deleted):
        return any(oracle_ham_path(g, back[s], back[t])
                   for s, t in singles if deleted not in (s, t)) or \
            deleted not in (a, b, c, d) and any(
                oracle_two_paths(g, (back[p], back[q]), (back[r], back[t]))
                for (p, q), (r, t) in doubles)

    if not (oracle_ham_path(h, a, d) and oracle_ham_path(h, b, c)):
        return 1
    if good(h, list(range(h.n)), None):
        return 2
    for v in range(h.n):
        sub, mapping = induced_subgraph(h, [u for u in range(h.n) if u != v])
        if not good(sub, {orig: i for i, orig in enumerate(mapping)}, v):
            return 3
    return 0


def test_jcell_matches_brute_force():
    """Random quadruples of random graphs rarely get past condition 2, so
    every other case is the smallest J-cell, relabelled, its terminals
    shuffled and, half the time, one edge toggled."""
    rng = random.Random(0)
    gadget = named_graph("smallest_jcell")
    seen = set()
    for i in range(40):
        if i % 2:
            n = rng.randint(5, 8)
            h = random_connected_graph(rng, n, rng.choice((0.5, 0.7)))
            quad = rng.sample(range(n), 4)
        else:
            adj = list(gadget.graph.adj)
            u, v = rng.sample(range(8), 2)
            if rng.random() < 0.5:
                adj[u] ^= 1 << v
                adj[v] ^= 1 << u
            h, perm = shuffled_copy(rng, Graph(8, tuple(adj)))
            quad = [perm[t] for t in gadget.attach]
            rng.shuffle(quad)
            if not is_connected(h):
                continue
        expected = oracle_is_jcell(h, *quad)
        seen.add(expected)
        assert is_jcell(h, *quad) == expected
    assert seen == {0, 1, 2, 3}


def test_smallest_terminal_quadruple_accepted():
    gadget = named_graph("smallest_jcell")
    a, b, c, d = gadget.attach
    assert is_jcell(gadget.graph, a, b, c, d) == 0


def test_quadruple_conditions_reject_plain_cycle():
    assert is_jcell(cycle(8), 0, 1, 2, 3) != 0


_BROKEN_WITNESS_CHECK = """
import cubicml.hamsearch as hs
from cubicml.graph import Graph, WitnessError
if __debug__:
    raise SystemExit("not running under -O")
hs.check_path_witness = lambda g, path: False
hs.check_legs_witness = lambda g, legs, p, attached: False
star = Graph.from_edges(4, [(0, 1), (0, 2), (0, 3)])
for query in (lambda: hs.has_ham_path(Graph.from_edges(3, [(0, 1), (1, 2)])),
              lambda: hs.has_leg_cover(star, 2),
              lambda: hs.has_leg_cover(star, 2, True)):
    try:
        query()
    except WitnessError:
        continue
    raise SystemExit("invalid witness returned")
"""


def test_witness_check_survives_optimize_flag():
    src = os.path.dirname(os.path.dirname(os.path.abspath(cubicml.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-O", "-c", _BROKEN_WITNESS_CHECK],
                          env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr


# The search tree is part of the contract: node counts and witnesses below
# were recorded on earlier versions of the engine, and any change to
# pruning or child order shows up here.
_PINNED_32 = ("_I?G@C?_???_?@CQ?C@???C?G?Q???_@_C?g??_cC???E???`???AA?O?O??O"
              "??C?A@?C?_A?????gG???R?")


def test_search_tree_pinned_on_refutation():
    g = next(f.graph for f in load_fixtures("nontraceable_30_conn3")
             if f.id == "nontraceable_30_c3_01")
    r = has_ham_path(g)
    # 16,508 nodes before the dead-state table
    assert r.status is Status.NO and r.nodes == 14_866
    # the same answer again, kept in the cache or searched afresh
    assert has_ham_path(g) == r
    assert has_ham_path(g, SearchBudget(14_866)) == r
    cut = has_ham_path(g, SearchBudget(14_865))
    assert cut.status is Status.INDETERMINATE and cut.nodes == 14_866


def test_fixed_start_refutations_pinned():
    # every degree-2 start of the lemma counterexamples, as lemma_short_scan
    # searches them
    nodes = []
    for f in load_fixtures("order18_no_deg2_start"):
        for v in range(f.graph.n):
            if f.graph.degree(v) == 2:
                r = has_ham_path_from(f.graph, v)
                assert r.status is Status.NO
                nodes.append(r.nodes)
    assert nodes == [43] * 4 + [383] * 2 + [351] * 2 + [175] * 2


def test_search_tree_pinned_beyond_64_vertices():
    # n = 66: a path key whose one-hot cur field started at bit 64, not at
    # bit n, would let cur 0 and 1 collide with vertices 64 and 65 of rest,
    # and here skip a live state
    r = has_ham_path_from(random_cubic_graph(random.Random(36), 66), 50)
    assert r.status is Status.YES and r.nodes == 2_664


def test_split_rest_kills_the_root():
    # vertex 8 joins two K4s; no vertex of either has residual degree <= 1,
    # so only the connectivity check refutes the start, at the root
    k4 = [(a, b) for a in range(4) for b in range(a + 1, 4)]
    g = Graph.from_edges(9, k4 + [(a + 4, b + 4) for a, b in k4]
                         + [(8, 0), (8, 4)])
    r = has_ham_path_from(g, 8)
    assert r.status is Status.NO and r.nodes == 1


def test_fixture_refutations_pinned():
    results = [has_ham_path(f.graph) for f in load_fixtures()
               if not f.traceable]
    assert len(results) == 19 and all(r.is_no for r in results)
    # 452,644 nodes before the dead-state table
    assert sum(r.nodes for r in results) == 383_261


@pytest.mark.parametrize("query, nodes, witness", [
    (lambda g: has_ham_path(g), 771,
     (0, 9, 16, 20, 5, 11, 24, 27, 4, 17, 28, 10, 25, 31, 22, 6, 7, 13, 3,
      1, 2, 15, 19, 14, 8, 23, 30, 29, 18, 21, 12, 26)),
    (lambda g: has_ham_cycle(g), 522,
     (0, 9, 16, 20, 5, 11, 24, 27, 4, 17, 28, 10, 25, 31, 22, 6, 7, 13, 3,
      1, 2, 15, 19, 14, 8, 23, 30, 29, 18, 21, 12, 26)),
    (lambda g: has_ham_path_from(g, 5), 112,
     (5, 4, 17, 15, 2, 1, 3, 19, 14, 20, 16, 25, 31, 22, 6, 7, 13, 10, 28,
      27, 24, 11, 12, 26, 0, 9, 23, 8, 29, 18, 21, 30)),
])
def test_search_tree_pinned_on_yes(query, nodes, witness):
    r = query(parse_graph6(_PINNED_32))
    assert r.status is Status.YES
    assert (r.nodes, r.witness) == (nodes, witness)


@st.composite
def small_graphs(draw, min_n: int = 1, max_n: int = 9) -> Graph:
    n = draw(st.integers(min_n, max_n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    keep = draw(st.lists(st.booleans(), min_size=len(pairs),
                         max_size=len(pairs)))
    return Graph.from_edges(n, [e for e, k in zip(pairs, keep) if k])


_QUERIES = {
    "path": has_ham_path,
    "cycle": has_ham_cycle,
    "from": lambda g, b: has_ham_path_from(g, 0, b),
    "free legs": lambda g, b: has_leg_cover(g, 2, False, b),
    "attached legs": lambda g, b: has_leg_cover(g, 2, True, b),
}


@settings(max_examples=150, deadline=None)
@given(g=small_graphs(min_n=3), query=st.sampled_from(sorted(_QUERIES)),
       budget=st.integers(0, 60), extra=st.integers(1, 1000))
def test_budget_monotonicity(g, query, budget, extra):
    run = _QUERIES[query]
    r = run(g, SearchBudget(budget))
    if r.status is Status.INDETERMINATE:
        assert r.nodes == budget + 1
        return
    assert run(g, SearchBudget(budget + extra)) == r
    assert run(g, SearchBudget()) == r


@settings(max_examples=150, deadline=None)
@given(data=st.data(), g=small_graphs())
def test_verdict_and_witness_survive_relabeling(data, g):
    perm = data.draw(st.permutations(range(g.n)))
    h = relabel(g, perm)
    for query in (has_ham_path, has_ham_cycle):
        if query is has_ham_cycle and g.n < 3:
            continue
        before, after = query(g), query(h)
        assert before.status is after.status
        if after.is_yes:
            w = after.witness
            assert sorted(w) == list(range(h.n))
            assert check_path_witness(h, w)
            if query is has_ham_cycle:
                assert h.has_edge(w[-1], w[0])


def test_long_prism_needs_no_recursion():
    g = prism(1000)
    r = has_ham_path(g)
    assert r.is_yes
    assert sorted(r.witness) == list(range(g.n))
    assert check_path_witness(g, r.witness)


# --- the caches under has_ham_path and has_leg_cover ----------------------


def _fresh(query, g, budget):
    """``query(g, budget)`` searched afresh, past the caches."""
    with mock.patch.object(hamsearch, "_ham_path",
                           hamsearch._ham_path.__wrapped__), \
            mock.patch.object(hamsearch, "_legs", hamsearch._legs.__wrapped__):
        return query(g, budget)


@settings(max_examples=150, deadline=None)
@given(g=small_graphs(min_n=3),
       budgets=st.lists(st.one_of(st.none(), st.integers(0, 80)),
                        min_size=1, max_size=6))
def test_memo_serves_what_a_fresh_search_returns(g, budgets):
    # an unlimited search first, then each budget, small ones included
    for query in (has_ham_path, has_ham_cycle, _QUERIES["free legs"],
                  _QUERIES["attached legs"]):
        for max_nodes in [None, *budgets]:
            budget = SearchBudget(max_nodes)
            assert query(g, budget) == _fresh(query, g, budget)


def test_memo_hit_checks_the_witness(monkeypatch):
    g = prism(5)
    real = hamsearch.check_path_witness
    for query in (has_ham_path, has_ham_cycle):
        calls = []

        def check_once(h, w):
            calls.append(w)
            return len(calls) == 1 and real(h, w)

        monkeypatch.setattr(hamsearch, "check_path_witness", check_once)
        assert query(g).is_yes
        with pytest.raises(WitnessError):
            query(g)
        assert len(calls) == 2


def test_memo_is_bounded():
    for n in range(3, 103):
        assert has_ham_path(cycle(n)).is_yes
        assert has_ham_path(cycle(n), SearchBudget()).is_yes  # one key
    info = hamsearch._ham_path.cache_info()
    assert (info.hits, info.misses, info.maxsize, info.currsize) == (
        100, 100, 16, 16)
    has_ham_path(cycle(3))  # dropped long ago
    assert hamsearch._ham_path.cache_info().misses == 101


def test_fixed_end_witness_is_checked(monkeypatch):
    # a hamiltonian path of P4, but from the wrong end
    monkeypatch.setattr(hamsearch._Engine, "search",
                        lambda self, path, end_mask: (3, 2, 1, 0))
    g = path_graph(4)
    assert check_path_witness(g, (3, 2, 1, 0))
    with pytest.raises(WitnessError):
        has_ham_path_from(g, 0)


# --- starts skipped by automorphism orbits ---------------------------------


def _agrees_without_orbits(g: Graph, budgets=(0, 1, 2, 10, 100)) -> None:
    """``has_ham_path`` finds the witness the orbit-free driver finds, or
    refutes what it refutes, in no more nodes, under every budget."""
    ref = ham_path_without_orbits(g)
    r = has_ham_path(g)
    assert (r.status, r.witness) == (ref.status, ref.witness)
    assert r.nodes <= ref.nodes
    for max_nodes in {*budgets, ref.nodes // 2, r.nodes - 1}:
        if max_nodes < 0:
            continue
        budget = SearchBudget(max_nodes)
        cut, ref_cut = has_ham_path(g, budget), ham_path_without_orbits(g, budget)
        assert cut.nodes <= ref_cut.nodes
        if cut.status is Status.INDETERMINATE:
            assert ref_cut.status is Status.INDETERMINATE
            assert cut.nodes == max_nodes + 1
        else:
            assert (cut.status, cut.witness) == (ref.status, ref.witness)


def test_orbit_skip_agrees_on_random_graphs():
    rng = random.Random(14)
    for _ in range(300):
        n = rng.randint(1, 10)
        _agrees_without_orbits(
            random_connected_graph(rng, n, rng.choice((0.25, 0.4, 0.6))))


def test_orbit_skip_agrees_on_fixtures():
    for f in load_fixtures():
        _agrees_without_orbits(f.graph, budgets=(0, 10, 1000))


def test_orbit_skip_agrees_on_symmetric_graphs():
    rng = random.Random(15)
    for g in [prism(k) for k in range(3, 9)] + [
            petersen(), cycle_of_edge_deleted_petersen(3)]:
        _agrees_without_orbits(g)
        _agrees_without_orbits(shuffled_copy(rng, g)[0])


def _count_labeling(monkeypatch) -> list[int]:
    """Route ``has_ham_path``'s labeling through a wrapper that records
    every unit of work it steps."""
    real = hamsearch.canonical_steps
    units: list[int] = []

    def counted(g, colors=None):
        steps = real(g, colors)
        while True:
            try:
                unit = next(steps)
            except StopIteration as stop:
                return stop.value
            units.append(unit)
            yield unit

    monkeypatch.setattr(hamsearch, "canonical_steps", counted)
    return units


def test_labeling_is_paid_for_by_search_nodes(monkeypatch):
    units = _count_labeling(monkeypatch)
    g = bridged_prisms()
    r = has_ham_path(g, SearchBudget(20_000))
    assert r.status is Status.INDETERMINATE and r.nodes == 20_001
    assert 0 < sum(units) <= r.nodes + g.n
    rng = random.Random(16)
    graphs = [f.graph for f in load_fixtures()]
    graphs += [random_connected_graph(rng, rng.randint(3, 10), 0.3)
               for _ in range(100)]
    for g in graphs:
        for budget in (SearchBudget(), SearchBudget(500)):
            units.clear()
            r = has_ham_path(g, budget)
            assert sum(units) <= r.nodes + g.n


# --- the dead-state table ----------------------------------------------------

_TABLE_QUERIES = {
    "path": has_ham_path,
    "cycle": has_ham_cycle,
    "from 0": lambda g, b: has_ham_path_from(g, 0, b),
    "from last": lambda g, b: has_ham_path_from(g, g.n - 1, b),
    **{f"{'attached' if attached else 'free'} legs p={p}":
       (lambda g, b, p=p, attached=attached: has_leg_cover(g, p, attached, b))
       for p in (1, 2, 3) for attached in (False, True)},
}


def _agrees_with_table_free(g: Graph, budgets, skip=()) -> None:
    """Every query kind with the table answers as the table-free engine
    does under each budget: the same status and witness when the reference
    decides, INDETERMINATE only where the reference is, and never more
    nodes.  A budget of None means none."""
    for name, query in _TABLE_QUERIES.items():
        if name in skip or name == "cycle" and g.n < 3:
            continue
        answers = set()
        for max_nodes in budgets:
            budget = SearchBudget(max_nodes)
            r, ref = _fresh(query, g, budget), table_free(query, g, budget)
            assert r.nodes <= ref.nodes, (name, max_nodes)
            if r.status is Status.INDETERMINATE:
                assert ref.status is Status.INDETERMINATE, (name, max_nodes)
                assert r.nodes == max_nodes + 1
            else:
                answers.add((r.status, r.witness))
            if ref.status is not Status.INDETERMINATE:
                answers.add((ref.status, ref.witness))
        assert len(answers) <= 1, name


# The table keeps only states with large subtrees, which graphs this small
# seldom have, so these tests also run with every refuted state kept.
_DEAD_MINS = pytest.mark.parametrize("dead_min", [0, hamsearch._DEAD_MIN])


@_DEAD_MINS
def test_table_agrees_with_table_free_on_random_graphs(monkeypatch, dead_min):
    monkeypatch.setattr(hamsearch, "_DEAD_MIN", dead_min)
    rng = random.Random(27)
    for i in range(150):
        n = rng.randint(1, 12)
        g = (random_connected_graph(rng, n, rng.uniform(0.2, 0.6)) if i % 5
             else random_graph(rng, n, rng.uniform(0.1, 0.5)))
        _agrees_with_table_free(g, (None, 0, 1, 5, 30, 100, 500))


def test_table_agrees_with_table_free_on_fixtures():
    # a one-leg cover of a non-traceable fixture takes about 10^5 nodes, so
    # those two queries run under budgets only
    legs1 = ("free legs p=1", "attached legs p=1")
    for f in load_fixtures():
        _agrees_with_table_free(f.graph, (None, 0, 10, 1000), skip=legs1)
        _agrees_with_table_free(f.graph, (0, 10, 1000, 20_000),
                                skip=set(_TABLE_QUERIES) - set(legs1))


@_DEAD_MINS
def test_table_agrees_with_table_free_beyond_64_vertices(monkeypatch,
                                                          dead_min):
    monkeypatch.setattr(hamsearch, "_DEAD_MIN", dead_min)
    # more than 64 vertices, where a key field of fixed width (6 bits for a
    # vertex, or a one-hot field from bit 64) would collide with the next
    rng = random.Random(28)
    graphs = [prism(33), cycle_of_edge_deleted_petersen(7),
              gadget_caterpillar(12), jcell_ring(9)]
    for g in graphs + [shuffled_copy(rng, g)[0] for g in graphs]:
        _agrees_with_table_free(g, (0, 100, 2_000, 10_000))


def test_table_does_not_outlive_its_query():
    # two identical queries past the caches search alike: a table kept
    # between them would let the second skip what the first refuted
    g = next(f.graph for f in load_fixtures("nontraceable_30_conn3")
             if f.id == "nontraceable_30_c3_01")
    t6 = gadget_caterpillar(6)
    for query, h in ((has_ham_path, g),
                     (lambda h, b: has_leg_cover(h, 4, True, b), t6)):
        first = _fresh(query, h, UNLIMITED)
        assert first.is_no and _fresh(query, h, UNLIMITED) == first
