"""Exact minimum leaf number and path cover number, as ladders of rungs.

``min_leaf_number`` asks "is there a spanning tree with at most k leaves?"
for ascending k, and ``path_cover_number`` asks "can p vertex-disjoint
paths cover V?" for ascending p.  The first YES is the optimum, and each NO
below it a certified lower bound.  Rungs ml <= 2 and mu <= 1 ask
``hamsearch.has_ham_path``.  Every other rung is one
``hamsearch.has_leg_cover`` query for at most p legs: mu <= p under the
free start rule, ml <= k with p = k - 1 under the attached one.  The tree
is the attached legs plus one edge from each later leg's start to an
earlier neighbour.  That rung is exact for any connected graph:
  * A tree gives legs.  Root a spanning tree with l leaves at 0.  It splits
    into a leg through 0 that ends at two leaves (or starts at 0 when 0 is
    a leaf).  The rest splits into l - 2 legs, each hanging from earlier
    vertices and ending at its own leaf.
  * Legs give a tree.  Conversely, p attached legs form a tree with at most
    p + 1 leaves: the first leg gives at most two leaves, and each later
    leg at most one.
Every YES is checked again; a tree must validate with at most k leaves.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graph import (
    Graph,
    GraphError,
    connected_components,
    is_connected,
    mask_of,
    require_witness,
)
from .hamsearch import (
    SearchBudget,
    Status,
    UNLIMITED,
    has_ham_path,
    has_leg_cover,
)


@dataclass(frozen=True)
class SpanningTree:
    """Spanning tree as a parent array; ``parent[root] == root``."""

    parent: tuple[int, ...]

    @property
    def root(self) -> int:
        for v, p in enumerate(self.parent):
            if p == v:
                return v
        raise GraphError("parent array has no root")

    @property
    def leaf_count(self) -> int:
        n = len(self.parent)
        child_count = [0] * n
        for v, p in enumerate(self.parent):
            if p != v:
                child_count[p] += 1
        root = self.root
        leaves = 0
        for v in range(n):
            if child_count[v] == 0 and v != root:
                leaves += 1
        # a root with a single child is a leaf of the underlying tree
        if child_count[root] == 1:
            leaves += 1
        return leaves

    @classmethod
    def from_edges(cls, n: int, edges: list[tuple[int, int]],
                   root: int = 0) -> "SpanningTree":
        if len(edges) != n - 1:
            raise GraphError(f"spanning tree on {n} vertices needs {n - 1} edges")
        adj: list[list[int]] = [[] for _ in range(n)]
        for u, v in edges:
            adj[u].append(v)
            adj[v].append(u)
        parent = [-1] * n
        parent[root] = root
        stack = [root]
        seen = 1
        while stack:
            u = stack.pop()
            for w in adj[u]:
                if parent[w] == -1:
                    parent[w] = u
                    seen += 1
                    stack.append(w)
        if seen != n:
            raise GraphError("edges do not form a spanning tree")
        return cls(tuple(parent))

    def validate(self, g: Graph) -> bool:
        """True iff every non-root parent edge is an edge of ``g``."""
        return all(
            p == v or g.has_edge(v, p) for v, p in enumerate(self.parent)
        )

    def edges(self) -> list[tuple[int, int]]:
        return [
            (min(v, p), max(v, p))
            for v, p in enumerate(self.parent)
            if p != v
        ]


@dataclass(frozen=True)
class MlResult:
    status: Status
    value: int | None = None
    tree: SpanningTree | None = None
    lower_bound: int | None = None  # meaningful when status is indeterminate


@dataclass(frozen=True)
class MuResult:
    status: Status
    value: int | None = None
    paths: tuple[tuple[int, ...], ...] | None = None
    lower_bound: int | None = None


# --- minimum leaf number ---------------------------------------------------


def _tree_search_le_k(g: Graph, k: int,
                      budget: SearchBudget) -> tuple[Status, SpanningTree | None, int]:
    """Spanning tree with <= k leaves: k - 1 attached legs, joined by an
    edge from each later leg's start to its smallest earlier neighbour."""
    r = has_leg_cover(g, k - 1, True, budget)
    if not r.is_yes:
        return r.status, None, r.nodes
    edges: list[tuple[int, int]] = []
    seen = 0
    for leg in r.witness:
        edges += zip(leg, leg[1:])
        if seen:
            links = g.adj[leg[0]] & seen
            edges.append((leg[0], (links & -links).bit_length() - 1))
        seen |= mask_of(leg)
    tree = SpanningTree.from_edges(g.n, edges)
    require_witness(tree.validate(g) and tree.leaf_count <= k,
                    f"spanning tree with at most {k} leaves")
    return Status.YES, tree, r.nodes


def has_tree_le_k_leaves(g: Graph, k: int,
                         budget: SearchBudget = UNLIMITED) -> tuple[Status, SpanningTree | None]:
    """Decide whether some spanning tree of ``g`` has at most ``k`` leaves."""
    if k < 2:
        raise GraphError("a tree on >= 2 vertices has at least 2 leaves")
    if g.n == 0:
        raise GraphError("empty graph has no spanning tree")
    if not is_connected(g):
        return Status.NO, None
    if k == 2:
        r = has_ham_path(g, budget)
        if r.status is Status.YES:
            assert r.witness is not None
            edges = list(zip(r.witness, r.witness[1:]))
            return Status.YES, SpanningTree.from_edges(g.n, edges)
        return r.status, None
    status, tree, _ = _tree_search_le_k(g, k, budget)
    return status, tree


def min_leaf_number(g: Graph, budget: SearchBudget = UNLIMITED) -> MlResult:
    """Minimum number of leaves over all spanning trees of ``g``.

    Ascending-k decision: the first k with a witness is the optimum, and
    every refuted k below it is a certified lower bound.  An exhausted
    budget reports the best lower bound reached.
    """
    if g.n == 0 or not is_connected(g):
        raise GraphError("minimum leaf number needs a connected non-empty graph")
    if g.n <= 2:
        tree = SpanningTree((0,)) if g.n == 1 else SpanningTree((0, 0))
        return MlResult(Status.YES, max(0, g.n - 1) + (1 if g.n == 2 else 0),
                        tree)
    for k in range(2, g.n):
        status, tree = has_tree_le_k_leaves(g, k, budget)
        if status is Status.YES:
            assert tree is not None
            require_witness(tree.validate(g), "spanning tree")
            return MlResult(Status.YES, tree.leaf_count, tree)
        if status is Status.INDETERMINATE:
            return MlResult(Status.INDETERMINATE, lower_bound=k)
    raise GraphError("unreachable: the star from any vertex bounds ml by n-1")


# --- path cover number ------------------------------------------------------


def has_path_cover_le_k(g: Graph, k: int,
                        budget: SearchBudget = UNLIMITED
                        ) -> tuple[Status, tuple[tuple[int, ...], ...] | None]:
    """Decide whether ``k`` vertex-disjoint paths can cover V(g)."""
    if k < 1:
        raise GraphError("a path cover needs at least one path")
    if g.n == 0:
        raise GraphError("path cover of the empty graph is undefined")
    if k >= g.n:
        return Status.YES, tuple((v,) for v in range(g.n))
    if k == 1:
        r = has_ham_path(g, budget)
        return r.status, (r.witness,) if r.is_yes else None
    r = has_leg_cover(g, k, False, budget)
    return r.status, r.witness


def path_cover_number(g: Graph, budget: SearchBudget = UNLIMITED) -> MuResult:
    """Fewest vertex-disjoint paths covering all vertices."""
    if g.n == 0:
        raise GraphError("path cover of the empty graph is undefined")
    lo = max(1, len(connected_components(g)))
    for k in range(lo, g.n + 1):
        status, paths = has_path_cover_le_k(g, k, budget)
        if status is Status.YES:
            assert paths is not None
            return MuResult(Status.YES, len(paths), paths)
        if status is Status.INDETERMINATE:
            return MuResult(Status.INDETERMINATE, lower_bound=k)
    raise GraphError("unreachable: singleton paths always cover")
