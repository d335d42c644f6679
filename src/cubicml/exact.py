"""Exact spanning-tree leaf minimisation and path cover computations.

``min_leaf_number`` answers "is there a spanning tree with at most k
leaves?" for ascending k.  The k = 2 case is exactly traceability and is
delegated to the hamiltonian engine.  A larger k first asks for a cover by
k - 1 vertex-disjoint paths: NO settles the rung, since any such tree splits
into that many paths.  On YES the cover's paths are joined by anchor edges
into a tree with at most k leaves when they can be; only when neither
settles the rung does a spanning-tree backtracking (``_tree_search_le_k``)
grow the tree one vertex at a time, pruning as soon as the committed leaves
exceed k.

``path_cover_number`` reduces "can k vertex-disjoint paths cover V?" to a
hamiltonian cycle question on the graph augmented with k mutually
non-adjacent universal vertices.

Spanning-tree counting (Kirchhoff, fraction-free elimination) and full
enumeration (contraction/deletion) back the correctness tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator

from .graph import (
    Graph,
    GraphError,
    bits,
    connected_components,
    is_connected,
    require_witness,
    spread,
)
from .hamsearch import (
    SearchBudget,
    Status,
    UNLIMITED,
    has_ham_cycle,
    has_ham_path,
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


# --- counting and enumeration ---------------------------------------------


def count_spanning_trees(g: Graph) -> int:
    """Kirchhoff's theorem via fraction-free integer elimination.

    Any cofactor of the Laplacian works; we drop the last row and column
    and run Bareiss elimination, which stays in exact big integers.
    """
    n = g.n
    if n == 0:
        raise GraphError("spanning tree count of the empty graph is undefined")
    if n == 1:
        return 1
    m = [[0] * (n - 1) for _ in range(n - 1)]
    for v in range(n - 1):
        m[v][v] = g.degree(v)
        for w in bits(g.adj[v]):
            if w < n - 1:
                m[v][w] = -1
    prev = 1
    for k in range(n - 2):
        if m[k][k] == 0:
            swap = next((i for i in range(k + 1, n - 1) if m[i][k] != 0), None)
            if swap is None:
                return 0
            m[k], m[swap] = m[swap], m[k]
            for row in m:
                row[k], row[swap] = row[swap], row[k]
        for i in range(k + 1, n - 1):
            for j in range(k + 1, n - 1):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return m[n - 2][n - 2]


def enumerate_spanning_trees(
    g: Graph, visit: Callable[[SpanningTree], bool] | None = None
) -> Iterator[SpanningTree]:
    """Yield every spanning tree exactly once.

    Classic contraction/deletion branching on one edge at a time: each tree
    either uses the pivot edge or does not, and the two branches never
    produce the same tree.  If ``visit`` is given it is called on each tree
    and a False return stops the enumeration early.
    """
    if not is_connected(g) or g.n == 0:
        return
    trees: list[SpanningTree] = []

    # work on a mutable multigraph of (endpoint labels of contracted blobs)
    def recurse(edges: list[tuple[int, int, tuple[int, int]]],
                chosen: list[tuple[int, int]], nblobs: int) -> bool:
        # edges: (blob_u, blob_v, original_edge); labels: blob id per vertex
        if nblobs == 1:
            trees.append(SpanningTree.from_edges(g.n, list(chosen)))
            return visit is None or visit(trees[-1])
        u0, v0, orig = edges[0]
        # branch 1: contract the pivot (tree uses orig)
        new_edges = []
        for (a, b, e) in edges[1:]:
            if a == v0:
                a = u0
            if b == v0:
                b = u0
            if a != b:
                new_edges.append((a, b, e))
        chosen.append(orig)
        if not recurse(new_edges, chosen, nblobs - 1):
            return False
        chosen.pop()
        # branch 2: delete the pivot; only sound if still connected
        rest = edges[1:]
        if _blob_connected(rest, nblobs):
            if not recurse(rest, chosen, nblobs):
                return False
        return True

    def _blob_connected(edges: list[tuple[int, int, tuple[int, int]]],
                        nblobs: int) -> bool:
        present = {b for (a, c, _) in edges for b in (a, c)}
        if len(present) < nblobs:
            return False
        adjm: dict[int, set[int]] = {b: set() for b in present}
        for a, b, _ in edges:
            adjm[a].add(b)
            adjm[b].add(a)
        start = next(iter(present))
        seen = {start}
        stack = [start]
        while stack:
            x = stack.pop()
            for y in adjm[x]:
                if y not in seen:
                    seen.add(y)
                    stack.append(y)
        return len(seen) == nblobs

    base = [(u, v, (u, v)) for u, v in g.edges]
    recurse(base, [], g.n)
    yield from trees


# --- minimum leaf number ---------------------------------------------------


def _tree_search_le_k(g: Graph, k: int,
                      budget: SearchBudget) -> tuple[Status, SpanningTree | None, int]:
    """Spanning tree with <= k leaves, by tip expansion from vertex 0.

    The partial tree always contains vertex 0.  At each step a forced
    vertex adjacent to the tree either attaches through one of its tree
    neighbours, or all its current edges into the tree are forbidden and it
    must enter later through a vertex not yet in the tree.  The forced
    vertex is a deterministic function of the search state (the smallest
    outside neighbour of the most recently added vertex that still has
    one, else of earlier vertices), so any target tree determines every
    choice uniquely (a second tree edge into the partial subtree would
    close a cycle) and each spanning tree is reached by exactly one branch
    sequence.  Growing from the newest tip keeps the partial tree
    path-like, which makes the committed-leaf budget bite early.

    A tree vertex is a committed leaf once it has no children and no
    surviving edge to the outside; more than k of those kills the branch.
    """
    n = g.n
    full = g.full_mask()
    radj = list(g.adj)  # live adjacency; forbidden edges get removed
    parent = [-1] * n
    parent[0] = 0
    child_count = [0] * n
    added = [0]  # insertion order, newest last
    nodes = 0
    max_nodes = budget.max_nodes
    out: list[SpanningTree] = []
    exhausted = False

    def committed_leaves(in_tree: int) -> int:
        cnt = 0
        for v in bits(in_tree):
            if child_count[v] == 0 and radj[v] & ~in_tree == 0 and v != 0:
                cnt += 1
        if child_count[0] == 1 and radj[0] & ~in_tree == 0:
            cnt += 1
        return cnt

    def extend(in_tree: int) -> bool:
        nonlocal nodes, exhausted
        nodes += 1
        if max_nodes is not None and nodes > max_nodes:
            exhausted = True
            return False
        if in_tree == full:
            tree = SpanningTree(tuple(parent))
            if tree.leaf_count <= k:
                out.append(tree)
                return True
            return False
        if committed_leaves(in_tree) > k:
            return False
        if spread(radj, in_tree, full) != full:
            return False
        cand = 0
        for u in reversed(added):
            cand = radj[u] & ~in_tree
            if cand:
                break
        v = (cand & -cand).bit_length() - 1
        links = radj[v] & in_tree
        added.append(v)
        for p in bits(links):
            parent[v] = p
            child_count[p] += 1
            if extend(in_tree | 1 << v):
                return True
            child_count[p] -= 1
            parent[v] = -1
            if exhausted:
                added.pop()
                return False
        added.pop()
        # forbid branch: v must enter through a future (outside) neighbour
        if radj[v] & ~in_tree & ~(1 << v):
            radj[v] &= ~links
            for p in bits(links):
                radj[p] &= ~(1 << v)
            ok = extend(in_tree)
            radj[v] |= links
            for p in bits(links):
                radj[p] |= 1 << v
            if ok:
                return True
        return False

    if extend(1):
        return Status.YES, out[0], nodes
    if exhausted:
        return Status.INDETERMINATE, None, nodes
    return Status.NO, None, nodes


def _tree_from_cover(g: Graph,
                     paths: tuple[tuple[int, ...], ...]) -> SpanningTree | None:
    """Join cover paths into a tree by endpoint anchor edges, if possible.

    Each anchor runs from an endpoint of one path to any vertex of a path
    in another component, so a successful assembly of p paths has at most
    p + 1 leaves."""
    n = g.n
    owner = {v: i for i, p in enumerate(paths) for v in p}
    comp = list(range(len(paths)))

    def find(i: int) -> int:
        while comp[i] != i:
            comp[i] = comp[comp[i]]
            i = comp[i]
        return i

    edges = [(u, v) for p in paths for u, v in zip(p, p[1:])]
    anchored: set[tuple[int, int]] = set()
    for _ in range(len(paths) - 1):
        done = False
        for i, p in enumerate(paths):
            for e in (p[0], p[-1]):
                if (i, e) in anchored:
                    continue
                for w in g.neighbors(e):
                    j = owner[w]
                    if find(j) != find(i):
                        edges.append((e, w))
                        anchored.add((i, e))
                        comp[find(i)] = find(j)
                        done = True
                        break
                if done:
                    break
            if done:
                break
        if not done:
            return None
    return SpanningTree.from_edges(n, edges)


def has_tree_le_k_leaves(g: Graph, k: int,
                         budget: SearchBudget = UNLIMITED) -> tuple[Status, SpanningTree | None]:
    """Decide whether some spanning tree of ``g`` has at most ``k`` leaves."""
    if k < 2:
        raise GraphError("a tree on >= 2 vertices has at least 2 leaves")
    if g.n == 0:
        raise GraphError("empty graph has no spanning tree")
    if not is_connected(g):
        return Status.NO, None
    if g.n == 1:
        return Status.YES, SpanningTree((0,))
    if g.n == 2:
        return Status.YES, SpanningTree((0, 0))
    if k == 2:
        r = has_ham_path(g, budget)
        if r.status is Status.YES:
            assert r.witness is not None
            edges = list(zip(r.witness, r.witness[1:]))
            return Status.YES, SpanningTree.from_edges(g.n, edges)
        return r.status, None
    # A spanning tree with at most k leaves splits into at most k - 1
    # vertex-disjoint covering paths, so the path-cover reduction settles
    # the negative side outright and usually hands over a witness too.
    status, paths = has_path_cover_le_k(g, k - 1, budget)
    if status is Status.NO:
        return Status.NO, None
    if status is Status.YES:
        assert paths is not None
        tree = _tree_from_cover(g, paths)
        if tree is not None and tree.leaf_count <= k:
            return Status.YES, tree
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


def _augment_with_universal(g: Graph, k: int) -> Graph:
    """Add ``k`` mutually non-adjacent vertices adjacent to all of V(g)."""
    n = g.n
    extra_mask = ((1 << k) - 1) << n
    adj = [a | extra_mask for a in g.adj]
    adj.extend([g.full_mask()] * k)
    return Graph(n + k, tuple(adj))


def _cover_from_cycle(g: Graph, cycle: tuple[int, ...],
                      k: int) -> tuple[tuple[int, ...], ...]:
    """Cut the augmented hamiltonian cycle at the k universal vertices."""
    n = g.n
    m = len(cycle)
    paths: list[tuple[int, ...]] = []
    cur: list[int] = []
    # rotate so the cycle starts right after a universal vertex
    start = next(i for i, v in enumerate(cycle) if v >= n)
    for i in range(1, m + 1):
        v = cycle[(start + i) % m]
        if v >= n:
            if cur:
                paths.append(tuple(cur))
                cur = []
        else:
            cur.append(v)
    if cur:
        paths.append(tuple(cur))
    require_witness(
        len(paths) <= k and sorted(v for p in paths for v in p) == list(range(n)),
        "path cover")
    return tuple(paths)


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
        if r.status is Status.YES:
            return Status.YES, (r.witness,)
        return r.status, None
    comps = connected_components(g)
    if len(comps) > k:
        return Status.NO, None
    aug = _augment_with_universal(g, k)
    r = has_ham_cycle(aug, budget)
    if r.status is Status.YES:
        assert r.witness is not None
        return Status.YES, _cover_from_cycle(g, r.witness, k)
    return r.status, None


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


def mu_lower_bound_deletion(g: Graph, deleted: Iterator[int] | list[int]) -> int:
    """Component-count bound: deleting d vertices that splits the graph into
    c components forces at least c - d paths in any cover."""
    dset = list(deleted)
    from .graph import components_after_deletion

    c = components_after_deletion(g, dset)
    return max(1, c - len(dset))
