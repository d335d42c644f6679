"""Shared helpers for the test suite."""

from __future__ import annotations

import random
from itertools import combinations

import pytest

from cubicml import hamsearch
from cubicml.graph import Graph, is_connected


@pytest.fixture(autouse=True)
def fresh_search_caches():
    """Start every test with empty ``has_ham_path`` and ``has_leg_cover``
    caches, so that no answer kept by an earlier test is served."""
    hamsearch._ham_path.cache_clear()
    hamsearch._legs.cache_clear()


def random_graph(rng: random.Random, n: int, p: float = 0.5) -> Graph:
    edges = [e for e in combinations(range(n), 2) if rng.random() < p]
    return Graph.from_edges(n, edges)


MAX_DRAWS = 10_000


def random_connected_graph(rng: random.Random, n: int, p: float = 0.5) -> Graph:
    """First connected draw of ``random_graph(rng, n, p)``; raises after
    ``MAX_DRAWS`` disconnected ones, since a small p may never connect."""
    for _ in range(MAX_DRAWS):
        g = random_graph(rng, n, p)
        if is_connected(g):
            return g
    raise ValueError(f"no connected graph on n={n} with p={p} "
                     f"in {MAX_DRAWS} draws")


def relabel(g: Graph, perm: list[int]) -> Graph:
    """Image of g under the vertex permutation v -> perm[v]."""
    adj = [0] * g.n
    for u in range(g.n):
        for v in range(g.n):
            if g.adj[u] >> v & 1:
                adj[perm[u]] |= 1 << perm[v]
    return Graph(g.n, tuple(adj))


def shuffled_copy(rng: random.Random, g: Graph) -> tuple[Graph, list[int]]:
    perm = list(range(g.n))
    rng.shuffle(perm)
    return relabel(g, perm), perm


def random_cubic_graph(rng: random.Random, n: int, min_conn: int = 2) -> Graph:
    """Random connected cubic graph by the pairing model with rejection."""
    from cubicml.graph import vertex_connectivity_capped

    assert n % 2 == 0 and n >= 4
    while True:
        stubs = [v for v in range(n) for _ in range(3)]
        rng.shuffle(stubs)
        pairs = {(min(a, b), max(a, b))
                 for a, b in zip(stubs[::2], stubs[1::2])}
        if any(a == b for a, b in pairs) or len(pairs) != 3 * n // 2:
            continue
        g = Graph.from_edges(n, pairs)
        if any(d != 3 for d in g.degrees()):
            continue
        if vertex_connectivity_capped(g, min(min_conn, 3)) >= min_conn:
            return g


def prism(k: int) -> Graph:
    """Two k-cycles joined by a perfect matching: cubic, 2k vertices."""
    return Graph.from_edges(2 * k, [(i, (i + 1) % k) for i in range(k)]
                            + [(k + i, k + (i + 1) % k) for i in range(k)]
                            + [(i, k + i) for i in range(k)])


def bridged_prisms() -> Graph:
    """A centre joined by bridges to three prisms on 498 vertices, each with
    the edge (0, 1) subdivided: cubic, 1-connected, n = 1,498."""
    edges = []
    n = 1
    for _ in range(3):
        edges += [(n + a, n + b) for a, b in prism(249).edges if (a, b) != (0, 1)]
        s = n + 498
        edges += [(n, s), (n + 1, s), (0, s)]
        n = s + 1
    return Graph.from_edges(n, edges)


def gadget_caterpillar(leaves: int) -> Graph:
    """T_L for L = ``leaves`` >= 3: a caterpillar with L leaves whose L - 2
    spine vertices have degree 3, each leaf replaced by a K4 with one edge
    subdivided and hung from the subdivision vertex by a bridge.  Cubic and
    1-connected on 6L - 2 vertices; every gadget holds a leaf of each
    spanning tree and an end of each path cover, so ml >= L and
    mu >= ceil(L / 2)."""
    assert leaves >= 3
    spine = leaves - 2
    edges = [(i, i + 1) for i in range(spine - 1)]
    n = spine
    for hook in range(spine):
        for _ in range(3 - (hook > 0) - (hook < spine - 1)):
            s, a, b, c, d = range(n, n + 5)
            edges += [(hook, s), (s, a), (s, b), (a, c), (a, d), (b, c),
                      (b, d), (c, d)]
            n += 5
    return Graph.from_edges(n, edges)
