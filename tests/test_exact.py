"""Exact spanning-tree counting/enumeration, minimum leaf number, path covers."""

import random
from itertools import combinations

import pytest

from cubicml import cover, exact, hamsearch
from cubicml.census import load_fixtures
from cubicml.graph import Graph, GraphError, is_connected, parse_graph6
from cubicml.hamsearch import SearchBudget, Status, has_ham_path, has_leg_cover
from cubicml.exact import (
    SpanningTree,
    analyze,
    has_path_cover_le_k,
    has_tree_le_k_leaves,
    min_leaf_number,
    path_cover_number,
)
from conftest import (
    bridged_prisms,
    gadget_caterpillar,
    random_connected_graph,
    random_graph,
)
from oracles import (
    count_spanning_trees,
    enumerate_spanning_trees,
    mu_lower_bound_deletion,
    tree_edges,
    tree_root,
)


def complete(n: int) -> Graph:
    return Graph.from_edges(n, list(combinations(range(n), 2)))


def cycle(n: int) -> Graph:
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def star(n: int) -> Graph:
    return Graph.from_edges(n, [(0, i) for i in range(1, n)])


def petersen() -> Graph:
    outer = [(i, (i + 1) % 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    spokes = [(i, 5 + i) for i in range(5)]
    return Graph.from_edges(10, outer + inner + spokes)


def oracle_min_leaves(g: Graph) -> int:
    """Exhaustive-enumeration oracle for the minimum leaf number."""
    return min(t.leaf_count for t in enumerate_spanning_trees(g))


def oracle_path_cover(g: Graph) -> int:
    """Brute-force path cover oracle: try all ordered vertex sequences
    split into k runs, ascending k."""
    from itertools import permutations

    n = g.n
    for k in range(1, n + 1):
        for perm in permutations(range(n)):
            if _splittable(g, perm, k):
                return k
    raise AssertionError("unreachable")


def _splittable(g: Graph, perm, k: int) -> bool:
    # can perm be cut into at most k consecutive-adjacent runs?
    cuts = 1
    for i in range(len(perm) - 1):
        if not g.adj[perm[i]] >> perm[i + 1] & 1:
            cuts += 1
            if cuts > k:
                return False
    return True


def test_spanning_tree_type():
    t = SpanningTree.from_edges(4, [(0, 1), (1, 2), (1, 3)])
    assert tree_root(t) == 0
    assert t.leaf_count == 3
    assert sorted(tree_edges(t)) == [(0, 1), (1, 2), (1, 3)]
    g = Graph.from_edges(4, [(0, 1), (1, 2), (1, 3), (2, 3)])
    assert t.validate(g)
    assert not t.validate(cycle(4))  # edge (1,3) absent there


def test_spanning_tree_leaf_counts():
    # a path rooted at one end has 2 leaves even though the root has degree 1
    t = SpanningTree.from_edges(3, [(0, 1), (1, 2)])
    assert t.leaf_count == 2


def test_count_known_values():
    assert count_spanning_trees(complete(4)) == 16
    assert count_spanning_trees(cycle(5)) == 5
    assert count_spanning_trees(petersen()) == 2000
    assert count_spanning_trees(complete(5)) == 125  # Cayley: 5^3
    assert count_spanning_trees(Graph.from_edges(2, [(0, 1)])) == 1
    assert count_spanning_trees(Graph.from_edges(2, [])) == 0


def test_enumeration_matches_determinant():
    rng = random.Random(21)
    for _ in range(30):
        n = rng.randint(2, 7)
        g = random_graph(rng, n, 0.5)
        trees = list(enumerate_spanning_trees(g))
        if is_connected(g):
            assert len(trees) == count_spanning_trees(g)
        else:
            assert trees == []
        seen = {tuple(sorted(tree_edges(t))) for t in trees}
        assert len(seen) == len(trees)  # no duplicates
        for t in trees:
            assert t.validate(g)


def test_enumeration_early_stop():
    count = 0

    def visit(_t) -> bool:
        nonlocal count
        count += 1
        return count < 3

    list(enumerate_spanning_trees(complete(5), visit))
    assert count == 3


def test_min_leaf_number_known_values():
    assert min_leaf_number(cycle(6)).value == 2
    assert min_leaf_number(star(6)).value == 5
    assert min_leaf_number(complete(4)).value == 2
    # Petersen is traceable, so a 2-leaf (path) spanning tree exists
    ml = min_leaf_number(petersen())
    assert ml.value == 2 and ml.tree.leaf_count == 2


def test_min_leaf_number_matches_enumeration_oracle():
    rng = random.Random(22)
    for _ in range(200):
        n = rng.randint(2, 9)
        g = random_connected_graph(rng, n, rng.uniform(0.2, 0.6))
        result = min_leaf_number(g)
        assert result.status is Status.YES
        assert result.value == oracle_min_leaves(g)
        assert result.tree.validate(g)
        assert result.tree.leaf_count == result.value


def test_has_tree_le_k_leaves_bounds():
    g = star(5)
    assert has_tree_le_k_leaves(g, 3)[0] is Status.NO
    assert has_tree_le_k_leaves(g, 4)[0] is Status.YES
    with pytest.raises(GraphError):
        has_tree_le_k_leaves(g, 1)
    disconnected = Graph.from_edges(4, [(0, 1), (2, 3)])
    assert has_tree_le_k_leaves(disconnected, 3)[0] is Status.NO


def test_path_cover_number_known_values():
    assert path_cover_number(cycle(6)).value == 1
    assert path_cover_number(star(6)).value == 4  # hub serves one path; 2 extra leaves each
    assert path_cover_number(petersen()).value == 1
    disconnected = Graph.from_edges(4, [(0, 1), (2, 3)])
    assert path_cover_number(disconnected).value == 2
    isolated = Graph.from_edges(3, [])
    assert path_cover_number(isolated).value == 3


def test_path_cover_matches_brute_force():
    rng = random.Random(23)
    for _ in range(150):
        n = rng.randint(2, 7)
        g = random_graph(rng, n, rng.uniform(0.2, 0.6))
        result = path_cover_number(g)
        assert result.value == oracle_path_cover(g)
        covered = sorted(v for p in result.paths for v in p)
        assert covered == list(range(n))
        for p in result.paths:
            assert all(g.adj[p[i]] >> p[i + 1] & 1 for i in range(len(p) - 1))


def test_has_path_cover_le_k_monotone():
    g = star(6)
    verdicts = [has_path_cover_le_k(g, k)[0] for k in range(1, 7)]
    assert verdicts == [Status.NO, Status.NO, Status.NO,
                        Status.YES, Status.YES, Status.YES]


def test_sandwich_bounds_on_random_connected_graphs():
    # path cover number + 1 <= minimum leaf number <= 2 * path cover number
    # (for non-traceable graphs; traceable ones have ml = 2, mu = 1)
    rng = random.Random(24)
    for _ in range(40):
        n = rng.randint(3, 8)
        g = random_connected_graph(rng, n, 0.4)
        ml = min_leaf_number(g).value
        mu = path_cover_number(g).value
        if mu == 1:
            assert ml == 2
        else:
            assert mu + 1 <= ml <= 2 * mu


def test_mu_lower_bound_deletion():
    assert mu_lower_bound_deletion(star(6), [0]) == 4
    assert mu_lower_bound_deletion(cycle(6), [0, 3]) == 1
    assert mu_lower_bound_deletion(cycle(6), []) == 1


def test_budget_propagates_to_indeterminate():
    g = petersen()
    r = min_leaf_number(g, SearchBudget(max_nodes=2))
    assert r.status is Status.INDETERMINATE
    assert r.value is None and r.lower_bound is not None


def test_random_connected_graph_gives_up_on_a_tiny_edge_probability():
    with pytest.raises(ValueError, match="n=9 with p=0.02"):
        random_connected_graph(random.Random(1), 9, 0.02)


# --- rungs decided by one leg cover ----------------------------------------

# A relabeled cycle_of_edge_deleted_petersen(3) from the analyze-stream
# benchmark: its 2-path cover found first does not join into a 3-leaf tree.
_PETERSEN_CYCLE = ("]?C?C@@??C_`o?O????K???GGO@__@O@?O?_@?O@??H?G@?_?A??G??_?O"
                   "?g?A_??@??CA??OG")


def test_ml_of_a_petersen_cycle_within_budget():
    g = parse_graph6(_PETERSEN_CYCLE)
    r = min_leaf_number(g, SearchBudget(200_000))
    assert r.status is Status.YES and r.value == 3
    assert r.tree.validate(g) and r.tree.leaf_count == 3


@pytest.mark.parametrize("leaves", [5, 6])
def test_mu_of_gadget_caterpillars_within_budget(leaves):
    g = gadget_caterpillar(leaves)
    r = path_cover_number(g, SearchBudget(200_000))
    assert r.status is Status.YES and r.value == 3
    assert sorted(v for p in r.paths for v in p) == list(range(g.n))


@pytest.mark.parametrize("leaves", [5, 6, 7])
def test_two_leg_refutation_of_gadget_caterpillars_pinned(leaves):
    # pinned, like the single-path search trees: a change to the leg
    # search's pruning or child order shows up here
    # 3,543 nodes before the dead-state table
    r = has_leg_cover(gadget_caterpillar(leaves), 2)
    assert r.status is Status.NO and r.nodes == 518


def test_deep_ml_refutation_of_a_gadget_caterpillar_pinned():
    # ml(T_6) <= 5 as five attached legs: 653,959 nodes before the
    # dead-state table
    r = has_leg_cover(gadget_caterpillar(6), 4, True)
    assert r.status is Status.NO and r.nodes == 70_903


def test_ml_and_mu_of_t7_within_budget():
    # ml <= 6 was INDETERMINATE at 3M nodes before the dead-state table
    g = gadget_caterpillar(7)
    ml = min_leaf_number(g, SearchBudget(2_000_000))
    assert ml.status is Status.YES and ml.value == 7
    assert ml.tree.validate(g) and ml.tree.leaf_count == 7
    assert path_cover_number(g).value == 4


def test_bridged_long_prisms_need_no_recursion():
    g = bridged_prisms()
    status, tree = has_tree_le_k_leaves(g, 3)
    assert status is Status.YES and tree.leaf_count == 3 and tree.validate(g)
    status, paths = has_path_cover_le_k(g, 2)
    assert status is Status.YES and len(paths) == 2


# --- one analysis per graph ------------------------------------------------


def _answer(solve, *args):
    """``solve(*args)``, or the message of the GraphError it raised."""
    try:
        return solve(*args)
    except GraphError as exc:
        return str(exc)


def _message(res):
    return str(res) if isinstance(res, GraphError) else res


def test_analysis_agrees_with_the_ladders():
    # values, witnesses, lower bounds and refusals, connected or not, with
    # budgets that cut the bottom rungs and the ones above them
    rng = random.Random(31)
    cases = [(random_graph(rng, rng.randint(0, 9), rng.uniform(0.15, 0.7)),
              (0, 1, 3, 10, 30, 100, 1000, None)) for _ in range(150)]
    cases += [(f.graph, (0, 1000, None)) for f in load_fixtures()]
    for g, budgets in cases:
        for max_nodes in budgets:
            budget = SearchBudget(max_nodes)
            a = analyze(g, budget, ml=True, mu=True)
            assert _message(a.ml) == _answer(min_leaf_number, g, budget)
            assert _message(a.mu) == _answer(path_cover_number, g, budget)
            r = has_ham_path(g, budget)
            assert a.traceable == (None if r.status is Status.INDETERMINATE
                                   else r.is_yes)


def test_analysis_reports_only_what_is_asked():
    a = analyze(complete(4))
    assert (a.connectivity, a.traceable, a.ml, a.mu) == (3, True, None, None)
    assert list(a.seconds) == ["connectivity", "traceable"]
    a = analyze(Graph.from_edges(2, []), ml=True, mu=True)
    assert str(a.ml) == "minimum leaf number needs a connected non-empty graph"
    assert a.mu.value == 2
    assert list(a.seconds) == ["connectivity", "traceable", "mu", "ml"]


def _engine_nodes(monkeypatch):
    """Node counts of every search the engine runs from here on."""
    counts = []
    real = hamsearch._run

    def run(*args, **kwargs):
        r = real(*args, **kwargs)
        counts.append(r.nodes)
        return r

    monkeypatch.setattr(hamsearch, "_run", run)
    return counts


def test_a_budget_cut_costs_one_budget(monkeypatch):
    # the bottom rungs take the cut traceability answer; no search repeats it
    g = next(f.graph for f in load_fixtures("nontraceable_28_conn2")
             if f.id == "nontraceable_28_c2_01")
    counts = _engine_nodes(monkeypatch)
    a = analyze(g, SearchBudget(1000), ml=True, mu=True)
    assert a.traceable is None and counts == [1001]
    assert a.ml == exact.MlResult(Status.INDETERMINATE, lower_bound=2)
    assert a.mu == exact.MuResult(Status.INDETERMINATE, lower_bound=1)


def _cache_traffic() -> tuple[tuple[int, int], tuple[int, int]]:
    """(hits, misses) of the hamiltonian path cache, then the leg cover's."""
    return tuple((i.hits, i.misses) for i in (
        hamsearch._ham_path.cache_info(), hamsearch._legs.cache_info()))


def test_cache_traffic_pinned():
    # asked one by one, as ``analyze --ml --mu`` asked before ``analyze``
    # passed its answers down, traceability is served twice from the cache;
    # ``analyze`` asks each question once
    g = load_fixtures("nontraceable_28_conn3")[0].graph
    budget = SearchBudget(200_000)
    assert has_ham_path(g, budget).is_no
    assert min_leaf_number(g, budget).value == 3
    mu = path_cover_number(g, budget).value
    cover.run_cover_procedure(g, exact_mu=mu, budget=budget)
    assert _cache_traffic() == ((2, 1), (0, 2))
    hamsearch._ham_path.cache_clear()
    hamsearch._legs.cache_clear()
    a = analyze(g, budget, ml=True, mu=True)
    assert (a.ml.value, a.mu.value) == (3, 2)
    assert _cache_traffic() == ((0, 1), (0, 2))


def test_ml_ladder_starts_above_mu(monkeypatch):
    # T_5 has mu = 3, so ml >= 4: the ml <= 3 rung is never asked
    asked = []
    real = exact.has_tree_le_k_leaves

    def rung(g, k, budget):
        asked.append(k)
        return real(g, k, budget)

    monkeypatch.setattr(exact, "has_tree_le_k_leaves", rung)
    a = analyze(gadget_caterpillar(5), ml=True, mu=True)
    assert (a.traceable, a.mu.value, a.ml.value) == (False, 3, 5)
    assert asked == [4, 5]
