"""Benchmark-side validation of the package's answers.

Nothing here imports the package: witnesses are read as plain tuples and
checked against adjacency bitmasks parsed by ``streams.parse_graph6``.
Each function returns a list of problems; an empty list means the answer
holds.
"""

from __future__ import annotations


def _adjacent(adj: list[int], u: int, v: int) -> bool:
    return bool(adj[u] >> v & 1)


def path_problems(adj: list[int], path) -> list[str]:
    """A hamiltonian path: every vertex once, consecutive ones adjacent."""
    n = len(adj)
    if path is None:
        return ["YES without a witness path"]
    if sorted(path) != list(range(n)):
        return ["witness path does not visit every vertex exactly once"]
    if not all(_adjacent(adj, u, v) for u, v in zip(path, path[1:])):
        return ["witness path uses a non-edge"]
    return []


def cover_problems(adj: list[int], paths, size: int) -> list[str]:
    """``size`` vertex-disjoint paths covering every vertex."""
    if paths is None:
        return ["path cover without witness paths"]
    problems = []
    if len(paths) != size:
        problems.append(f"witness has {len(paths)} paths, value says {size}")
    if sorted(v for p in paths for v in p) != list(range(len(adj))):
        problems.append("witness paths do not partition the vertices")
    if not all(_adjacent(adj, u, v) for p in paths for u, v in zip(p, p[1:])):
        problems.append("witness path uses a non-edge")
    return problems


def tree_leaves(adj: list[int], parent) -> tuple[int | None, list[str]]:
    """Leaf count of a spanning tree given as a parent array
    (``parent[root] == root``), or ``None`` with the problems found."""
    n = len(adj)
    if parent is None or len(parent) != n:
        return None, ["spanning tree does not cover every vertex"]
    roots = [v for v in range(n) if parent[v] == v]
    if len(roots) != 1:
        return None, [f"spanning tree has {len(roots)} roots"]
    degree = [0] * n
    for v in range(n):
        p = parent[v]
        if p == v:
            continue
        if not 0 <= p < n or not _adjacent(adj, v, p):
            return None, ["spanning tree uses a non-edge"]
        degree[v] += 1
        degree[p] += 1
    # n - 1 edges that reach the root from every vertex form a tree
    for v in range(n):
        seen = 0
        while parent[v] != v:
            v = parent[v]
            seen += 1
            if seen > n:
                return None, ["spanning tree has a cycle"]
    if n == 1:
        return 0, []
    return sum(1 for d in degree if d == 1), []
