"""Hamiltonian path/cycle search, two-path spanning queries, terminal quadruples."""

import os
import random
import subprocess
import sys
from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cubicml
from cubicml.census import load_fixtures
from cubicml.graph import Graph, GraphError, parse_graph6
from cubicml.hamsearch import (
    SearchBudget,
    Status,
    check_path_witness,
    has_ham_cycle,
    has_ham_path,
    has_ham_path_between,
    has_ham_path_from,
    has_spanning_two_paths,
    is_jcell,
)
from cubicml.constructions import named_graph
from conftest import prism, random_connected_graph, relabel


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
    assert has_ham_path_between(g, 0, 4).is_yes
    assert has_ham_path_between(g, 0, 2).is_no
    with pytest.raises(GraphError):
        has_ham_path_between(g, 1, 1)
    with pytest.raises(GraphError):
        has_ham_path_from(g, 9)


def test_witnesses_respect_constraints():
    g = cycle(8)
    r = has_ham_path_from(g, 3)
    assert r.witness[0] == 3 and check_path_witness(g, r.witness)
    # in a cycle, hamiltonian-path endpoints must be adjacent
    r = has_ham_path_between(g, 2, 3)
    assert {r.witness[0], r.witness[-1]} == {2, 3}
    assert has_ham_path_between(g, 2, 5).is_no


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
        assert has_ham_path_between(g, v, w).is_yes == \
            oracle_ham_path(g, start=v, end=w)


def test_budget_truncation_is_reported():
    g = petersen()
    r = has_ham_cycle(g, SearchBudget(max_nodes=3))
    assert r.status is Status.INDETERMINATE
    assert not r.is_yes and not r.is_no


def test_spanning_two_paths_square():
    g = cycle(4)
    assert has_spanning_two_paths(g, (0, 1), (2, 3)).is_yes
    assert has_spanning_two_paths(g, (0, 2), (1, 3)).is_no


def test_spanning_two_paths_rejects_overlap():
    g = cycle(4)
    with pytest.raises(GraphError):
        has_spanning_two_paths(g, (0, 1), (1, 2))
    with pytest.raises(GraphError):
        has_spanning_two_paths(g, (0, 0), (1, 2))


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


def test_spanning_two_paths_matches_oracle():
    rng = random.Random(12)
    for _ in range(25):
        n = rng.randint(4, 7)
        g = random_connected_graph(rng, n, 0.5)
        pairs = rng.sample(range(n), 4)
        p1, p2 = (pairs[0], pairs[1]), (pairs[2], pairs[3])
        assert has_spanning_two_paths(g, p1, p2).is_yes == \
            oracle_two_paths(g, p1, p2)


def test_smallest_terminal_quadruple_accepted():
    gadget = named_graph("smallest_jcell")
    a, b, c, d = gadget.attach
    report = is_jcell(gadget.graph, a, b, c, d)
    assert report.is_jcell and report.failing_condition is None


def test_quadruple_conditions_reject_plain_cycle():
    report = is_jcell(cycle(8), 0, 1, 2, 3)
    assert not report.is_jcell
    assert report.failing_condition is not None


_BROKEN_WITNESS_CHECK = """
import cubicml.hamsearch as hs
from cubicml.graph import Graph, WitnessError
if __debug__:
    raise SystemExit("not running under -O")
hs.check_path_witness = lambda g, path: False
try:
    hs.has_ham_path(Graph.from_edges(3, [(0, 1), (1, 2)]))
except WitnessError:
    raise SystemExit(0)
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
# were recorded before the engine's per-node work was made local, and any
# change to pruning or child order shows up here.
_PINNED_32 = ("_I?G@C?_???_?@CQ?C@???C?G?Q???_@_C?g??_cC???E???`???AA?O?O??O"
              "??C?A@?C?_A?????gG???R?")


def test_search_tree_pinned_on_refutation():
    g = next(f.graph for f in load_fixtures("nontraceable_30_conn3")
             if f.id == "nontraceable_30_c3_01")
    r = has_ham_path(g)
    assert r.status is Status.NO and r.nodes == 98_600


@pytest.mark.parametrize("query, nodes, witness", [
    (lambda g: has_ham_path(g), 771,
     (0, 9, 16, 20, 5, 11, 24, 27, 4, 17, 28, 10, 25, 31, 22, 6, 7, 13, 3,
      1, 2, 15, 19, 14, 8, 23, 30, 29, 18, 21, 12, 26)),
    (lambda g: has_ham_cycle(g), 521,
     (0, 9, 16, 20, 5, 11, 24, 27, 4, 17, 28, 10, 25, 31, 22, 6, 7, 13, 3,
      1, 2, 15, 19, 14, 8, 23, 30, 29, 18, 21, 12, 26)),
    (lambda g: has_ham_path_between(g, 0, 31), 2329,
     (0, 22, 6, 7, 13, 3, 19, 14, 20, 5, 4, 17, 15, 2, 1, 18, 21, 30, 29, 8,
      23, 9, 16, 25, 10, 28, 27, 24, 11, 12, 26, 31)),
    (lambda g: has_spanning_two_paths(g, (0, 31), (5, 20)), 14052,
     (0, 22, 6, 7, 13, 3, 1, 2, 15, 19, 14, 8, 29, 18, 21, 30, 23, 9, 16, 25,
      10, 28, 17, 4, 27, 24, 11, 12, 26, 31, 5, 20)),
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
    "between": lambda g, b: has_ham_path_between(g, 0, g.n - 1, b),
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
