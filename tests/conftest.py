"""Shared helpers for the test suite."""

from __future__ import annotations

import random
from itertools import combinations

from cubicml.graph import Graph, is_connected


def random_graph(rng: random.Random, n: int, p: float = 0.5) -> Graph:
    edges = [e for e in combinations(range(n), 2) if rng.random() < p]
    return Graph.from_edges(n, edges)


def random_connected_graph(rng: random.Random, n: int, p: float = 0.5) -> Graph:
    while True:
        g = random_graph(rng, n, p)
        if is_connected(g):
            return g


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
