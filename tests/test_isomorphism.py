"""Colour refinement, isomorphism, canonical forms, automorphism orbits."""

import random
from itertools import combinations, permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cubicml import generate
from cubicml.census import load_fixtures
from cubicml.constructions import cycle_of_edge_deleted_petersen, jcell_ring
from cubicml.generate import generate_cubic
from cubicml.graph import Graph, bits
from cubicml.isomorphism import (
    _leaf_form,
    are_isomorphic,
    canonical_data,
    canonical_form,
    canonical_steps,
    pair_seeds,
    seeded_colors,
)
from conftest import bridged_prisms, random_graph, shuffled_copy
from oracles import find_isomorphism, full_canonical_data, \
    full_round_refine, group_elements, pairwise_leaf_form, \
    sorted_profile_seeds


def cycle(n: int) -> Graph:
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def petersen() -> Graph:
    outer = [(i, (i + 1) % 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    spokes = [(i, 5 + i) for i in range(5)]
    return Graph.from_edges(10, outer + inner + spokes)


def brute_isomorphic(g1: Graph, g2: Graph) -> bool:
    if g1.n != g2.n or g1.edge_count != g2.edge_count:
        return False
    for perm in permutations(range(g1.n)):
        if all(g2.adj[perm[u]] >> perm[v] & 1
               for u, v in g1.edges):
            return True
    return False


def test_color_refine_splits_by_degree():
    g = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])  # path
    colors = seeded_colors(g, g.degrees())
    assert colors[0] == colors[3] and colors[1] == colors[2]
    assert colors[0] != colors[1]


def test_color_refine_regular_graph_single_class():
    assert len(set(seeded_colors(cycle(6), cycle(6).degrees()))) == 1


def test_color_refine_matches_full_rounds():
    """Cell-local refinement gives the ids of rounds that sign every
    vertex, from any initial colouring: unnormalised, negative, on empty
    and one-vertex graphs, disconnected sparse ones and dense ones."""
    rng = random.Random(21)
    graphs = [Graph.from_edges(0, []), Graph.from_edges(1, [])]
    graphs += [random_graph(rng, rng.randint(2, 30),
                            rng.choice((0.05, 0.1, 0.2, 0.5, 0.8)))
               for _ in range(400)]
    top = 0
    for g in graphs:
        colors = tuple(rng.randint(-4, 4) * 5 for _ in range(g.n))
        assert seeded_colors(g, g.degrees()) == full_round_refine(g)
        assert seeded_colors(g, colors) == full_round_refine(g, colors)
        seeds = pair_seeds(g)
        assert seeded_colors(g, seeds) == full_round_refine(g, tuple(seeds))
        top = max(top, 0, *g.degrees())
    assert top > 3


def _bounded_degree_graph(rng: random.Random, n: int,
                          max_degree: int) -> Graph:
    """Random graph on ``n`` vertices: the pairs in random order, each
    kept with probability 1/2 while both ends have degree below
    ``max_degree``."""
    pairs = list(combinations(range(n), 2))
    rng.shuffle(pairs)
    degs = [0] * n
    edges = []
    for u, v in pairs:
        if degs[u] < max_degree and degs[v] < max_degree and \
                rng.random() < 0.5:
            degs[u] += 1
            degs[v] += 1
            edges.append((u, v))
    return Graph.from_edges(n, edges)


def test_seeded_colors_keep_the_first_round_order():
    """Two vertices of equal seed whose sorted neighbour seeds differ get
    refined colours in the order of those lists, from arbitrary int seeds
    and from pair seeds: the generator decides its colour test from this
    first round alone."""
    rng = random.Random(29)
    pairs = top = 0
    for i in range(1_500):
        g = _bounded_degree_graph(rng, rng.randint(2, 16), 4)
        if i % 3:
            values = [rng.randint(-10 ** 15, 10 ** 15) for _ in range(3)]
            seeds = [rng.choice(values) for _ in range(g.n)]
        else:
            seeds = pair_seeds(g)
        colors = seeded_colors(g, seeds)
        sig = [sorted([seeds[w] for w in bits(a)]) for a in g.adj]
        for u, v in combinations(range(g.n), 2):
            if seeds[u] == seeds[v] and sig[u] != sig[v]:
                pairs += 1
                assert (colors[u] < colors[v]) == (sig[u] < sig[v])
                assert colors[u] != colors[v]
        top = max(top, *g.degrees())
    assert pairs > 5_000 and top == 4


def test_pair_seeds_separate_nonsimilar_vertices():
    # triangle with a pendant: all four vertices pairwise distinguishable
    # except the two triangle vertices not carrying the pendant
    g = Graph.from_edges(4, [(0, 1), (1, 2), (2, 0), (0, 3)])
    seeds = pair_seeds(g)
    assert seeds[1] == seeds[2]
    assert len({seeds[0], seeds[1], seeds[3]}) == 3


def test_pair_seeds_order_vertices_as_sorted_profiles():
    """The integer form orders and ties vertices exactly as the sorted
    profiles do, on sparse graphs and on dense ones of degree above 3, and
    on both sides of the base change at 32 vertices."""
    rng = random.Random(17)
    top = 0
    orders = set()
    for _ in range(300):
        g = random_graph(rng, rng.randint(1, 40),
                         rng.choice((0.15, 0.3, 0.6, 0.9)))
        new, old = pair_seeds(g), sorted_profile_seeds(g)
        for u in range(g.n):
            for v in range(g.n):
                assert (new[u] < new[v]) == (old[u] < old[v])
                assert (new[u] == new[v]) == (old[u] == old[v])
        top = max(top, *g.degrees())
        orders.add(g.n >= 32)
    assert top > 3 and orders == {False, True}


def test_isomorphic_to_relabeling():
    rng = random.Random(1)
    for n in (5, 8, 10):
        g = random_graph(rng, n, 0.5)
        h, _ = shuffled_copy(rng, g)
        assert are_isomorphic(g, h)
        mapping = find_isomorphism(g, h)
        assert mapping is not None
        for u in range(n):
            for v in range(n):
                assert (g.adj[u] >> v & 1) == (h.adj[mapping[u]] >> mapping[v] & 1)


def test_non_isomorphic_pairs():
    assert not are_isomorphic(cycle(5), cycle(6))
    # same degree sequence, different structure: C6 vs two triangles
    two_triangles = Graph.from_edges(
        6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)])
    assert not are_isomorphic(cycle(6), two_triangles)
    assert find_isomorphism(cycle(6), two_triangles) is None


def test_agrees_with_brute_force_on_random_pairs():
    rng = random.Random(2)
    for _ in range(60):
        n = rng.randint(2, 6)
        g1 = random_graph(rng, n, 0.5)
        g2 = random_graph(rng, n, 0.5)
        expected = brute_isomorphic(g1, g2)
        assert are_isomorphic(g1, g2) == expected
        assert (find_isomorphism(g1, g2) is not None) == expected


def test_canonical_form_invariant_under_relabeling():
    rng = random.Random(3)
    for n in (6, 9, 12):
        g = random_graph(rng, n, 0.4)
        h, _ = shuffled_copy(rng, g)
        assert canonical_form(g) == canonical_form(h)


def test_canonical_form_separates_classes_exhaustively():
    # all graphs on 4 vertices: distinct canonical forms iff non-isomorphic
    pairs = list(combinations(range(4), 2))
    by_form: dict[bytes, Graph] = {}
    for mask in range(1 << 6):
        edges = [pairs[i] for i in range(6) if mask >> i & 1]
        g = Graph.from_edges(4, edges)
        f = canonical_form(g)
        if f in by_form:
            assert brute_isomorphic(by_form[f], g)
        else:
            by_form[f] = g
    assert len(by_form) == 11  # graphs on 4 vertices up to isomorphism


def test_automorphism_groups_of_known_graphs():
    k4 = Graph.from_edges(4, list(combinations(range(4), 2)))
    assert len(group_elements(canonical_data(k4).automorphisms)) == 24
    assert len(group_elements(canonical_data(cycle(5)).automorphisms)) == 10
    assert len(group_elements(canonical_data(petersen()).automorphisms)) == 120


def test_automorphisms_are_valid_and_orbits_correct():
    g = Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4)])  # path
    data = canonical_data(g)
    for perm in data.automorphisms:
        for u, v in g.edges:
            assert g.adj[perm[u]] >> perm[v] & 1
    assert data.orbit[0] == data.orbit[4]
    assert data.orbit[1] == data.orbit[3]
    assert data.orbit[2] not in (data.orbit[0], data.orbit[1])


def test_leaf_form_matches_pairwise_reference():
    """Random graphs on 0 to 40 vertices under random labelings, and on
    16 vertices, where the 120 pairs fill exactly 15 bytes."""
    rng = random.Random(25)
    orders = [rng.randint(0, 40) for _ in range(2_000)] + [16] * 200
    for n in orders:
        g = random_graph(rng, n, rng.choice((0.0, 0.1, 0.5, 0.9, 1.0)))
        lab = list(range(n))
        rng.shuffle(lab)
        pos = [0] * n
        for i, v in enumerate(lab):
            pos[v] = i
        nbrs = [tuple(bits(a)) for a in g.adj]
        assert _leaf_form(nbrs, pos) == pairwise_leaf_form(g, lab), (n, lab)


def _assert_matches_oracle(g: Graph, colors=None) -> None:
    got = canonical_data(g, colors)
    want = full_canonical_data(g, colors)
    assert got.form == want.form
    assert got.labeling == want.labeling
    assert got.orbit == want.orbit
    assert group_elements(got.automorphisms) == set(want.automorphisms)


def test_pruned_labeling_matches_full_enumeration_on_random_graphs():
    """Complete and empty graphs stop at n = 8: the oracle visits all n!
    leaves, about 20 s at n = 9."""
    for n in range(1, 9):
        _assert_matches_oracle(Graph.from_edges(n, []))
        _assert_matches_oracle(Graph.from_edges(n, combinations(range(n), 2)))
    rng = random.Random(12)
    for _ in range(150):
        g = random_graph(rng, rng.randint(2, 9), rng.choice((0.2, 0.5, 0.8)))
        _assert_matches_oracle(g)
        _assert_matches_oracle(g, seeded_colors(g, pair_seeds(g)))


def test_pruned_labeling_matches_full_enumeration_on_fixtures():
    fixtures = load_fixtures()
    assert len(fixtures) == 23
    for f in fixtures:
        _assert_matches_oracle(f.graph)


def test_pruned_labeling_matches_full_enumeration_in_generator(monkeypatch):
    calls = []
    labeling = generate.canonical_data

    def recording(g, colors=None):
        calls.append((g, colors))
        return labeling(g, colors)

    monkeypatch.setattr(generate, "canonical_data", recording)
    assert generate_cubic(10) == 19
    assert calls
    for g, colors in calls:
        _assert_matches_oracle(g, colors)


def _labeling_steps(g: Graph) -> int:
    return sum(1 for _ in canonical_steps(g))


# the steps canonical_steps yields per fixture: hamsearch steps the
# labeling by its own search nodes, so these fix when the orbits arrive
_STEPS_PER_FIXTURE = {
    "nontraceable_28_c2_01": 54, "nontraceable_28_c2_02": 100,
    "nontraceable_28_c2_03": 96, "nontraceable_28_c2_04": 101,
    "nontraceable_28_c2_05": 133, "nontraceable_28_c2_06": 121,
    "nontraceable_28_c2_07": 83, "nontraceable_28_c2_08": 90,
    "nontraceable_28_c2_09": 84, "nontraceable_28_c3": 70,
    "nontraceable_30_c3_01": 62, "nontraceable_30_c3_02": 94,
    "nontraceable_30_c3_03": 83, "nontraceable_30_c3_04": 70,
    "nontraceable_30_c3_05": 80, "nontraceable_30_c3_06": 85,
    "nontraceable_30_c3_07": 78, "nontraceable_30_c3_08": 62,
    "nontraceable_30_c3_09": 84, "order18_no_deg2_start_01": 15,
    "order18_no_deg2_start_02": 15, "order18_no_deg2_start_03": 15,
    "order18_no_deg2_start_04": 21,
}


def test_labeling_steps_per_fixture():
    assert {f.id: _labeling_steps(f.graph)
            for f in load_fixtures()} == _STEPS_PER_FIXTURE


@pytest.mark.slow
def test_labeling_steps_bridged_prisms():
    assert _labeling_steps(bridged_prisms()) == 1_029


def test_generators_of_large_groups_are_automorphisms():
    ring = jcell_ring(6)
    for g in (cycle_of_edge_deleted_petersen(6), ring):
        for perm in canonical_data(g).automorphisms:
            assert sorted(perm) == list(range(g.n))
            assert all(g.adj[perm[u]] >> perm[v] & 1 for u, v in g.edges)
    assert len(group_elements(canonical_data(ring).automorphisms)) == 768


def test_canonical_labeling_reproduces_form():
    rng = random.Random(4)
    g = random_graph(rng, 8, 0.5)
    data = canonical_data(g)
    assert sorted(data.labeling) == list(range(8))


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 9), st.randoms(use_true_random=False))
def test_relabeling_preserves_canonical_form_property(n, rng):
    g = random_graph(rng, n, 0.5)
    h, _ = shuffled_copy(rng, g)
    assert canonical_form(g) == canonical_form(h)
    assert are_isomorphic(g, h)
