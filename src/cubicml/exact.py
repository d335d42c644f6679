"""Exact minimum leaf number and path cover number, as ladders of rungs.

``min_leaf_number`` asks "is there a spanning tree with at most k leaves?"
for ascending k, and ``path_cover_number`` asks "can p vertex-disjoint
paths cover V?" for ascending p.  The first YES is the optimum, and each NO
below it a certified lower bound.  Each rung asks for at most p legs: mu <= p
under the free start rule, ml <= k with p = k - 1 under the attached one.
One leg is a ``hamsearch.has_ham_path`` query, more legs one
``hamsearch.has_leg_cover`` query.  The tree is the attached legs plus one
edge from each later leg's start to an earlier neighbour.  That rung is
exact for any connected graph:
  * A tree gives legs.  Root a spanning tree with l leaves at 0.  It splits
    into a leg through 0 that ends at two leaves (or starts at 0 when 0 is
    a leaf).  The rest splits into l - 2 legs, each hanging from earlier
    vertices and ending at its own leaf.
  * Legs give a tree.  Conversely, p attached legs form a tree with at most
    p + 1 leaves: the first leg gives at most two leaves, and each later
    leg at most one.
Every YES is checked again; a tree must validate with at most k leaves.

``analyze`` asks ``has_ham_path`` once per graph.  A YES gives mu = 1 and
ml from the witness path.  An INDETERMINATE leaves both undecided at their
bottom rungs, since the deterministic engine would cut the same search
again.  A NO starts mu at 2 and ml at mu + 1 (at least 3): the l - 1 legs of
a tree with l leaves are paths covering V, so mu <= ml - 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from time import perf_counter
from typing import Any, Callable

from .graph import (
    Graph,
    GraphError,
    mask_of,
    pieces,
    require_witness,
    vertex_connectivity_capped,
)
from .hamsearch import (
    SearchBudget,
    SearchResult,
    Status,
    UNLIMITED,
    has_ham_path,
    has_leg_cover,
)
from .isomorphism import CanonicalData


@dataclass(frozen=True)
class SpanningTree:
    """Spanning tree as a parent array; ``parent[root] == root``."""

    parent: tuple[int, ...]

    @cached_property
    def leaf_count(self) -> int:  # kept, not a field: ==, hash, repr skip it
        """Vertices of degree 1 in the tree, a root with one child too."""
        degree = [0] * len(self.parent)
        for v, p in enumerate(self.parent):
            if p != v:
                degree[v] += 1
                degree[p] += 1
        return degree.count(1)

    @classmethod
    def from_edges(cls, n: int,
                   edges: list[tuple[int, int]]) -> "SpanningTree":
        """The tree on ``edges``, rooted at vertex 0."""
        if len(edges) != n - 1:
            raise GraphError(f"spanning tree on {n} vertices needs {n - 1} edges")
        adj: list[list[int]] = [[] for _ in range(n)]
        for u, v in edges:
            adj[u].append(v)
            adj[v].append(u)
        parent = [0] + [-1] * (n - 1)
        stack = [0]
        while stack:
            u = stack.pop()
            for w in adj[u]:
                if parent[w] == -1:
                    parent[w] = u
                    stack.append(w)
        if -1 in parent:
            raise GraphError("edges do not form a spanning tree")
        return cls(tuple(parent))

    def validate(self, g: Graph) -> bool:
        """True iff every non-root parent edge is an edge of ``g``."""
        adj = g.adj
        return all(p == v or adj[v] >> p & 1 for v, p in enumerate(self.parent))


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


@dataclass(frozen=True)
class Analysis:
    """One graph's report.  ``ml`` and ``mu`` are None unless asked for, and
    the GraphError that refused them on a graph that has none."""

    connectivity: int
    traceable: bool | None
    ml: MlResult | GraphError | None
    mu: MuResult | GraphError | None
    seconds: dict[str, float]  # per phase, in the order they ran
    labeling: CanonicalData | None = None  # from the traceability search


# --- minimum leaf number ---------------------------------------------------


def _tree_search_le_k(g: Graph, k: int, budget: SearchBudget,
                      r: SearchResult | None = None
                      ) -> tuple[Status, SpanningTree | None]:
    """Spanning tree with <= k leaves: k - 1 attached legs, joined by an
    edge from each later leg's start to its smallest earlier neighbour.  At
    k = 2 the one leg is a hamiltonian path, ``r`` when it is given."""
    if k > 2:
        r = has_leg_cover(g, k - 1, True, budget)
    elif r is None:
        r = has_ham_path(g, budget)
    if not r.is_yes:
        return r.status, None
    edges: list[tuple[int, int]] = []
    seen = 0
    for leg in r.witness if k > 2 else (r.witness,):
        edges += zip(leg, leg[1:])
        if seen:
            links = g.adj[leg[0]] & seen
            edges.append((leg[0], (links & -links).bit_length() - 1))
        seen |= mask_of(leg)
    tree = SpanningTree.from_edges(g.n, edges)
    require_witness(tree.validate(g) and tree.leaf_count <= k,
                    f"spanning tree with at most {k} leaves")
    return Status.YES, tree


def has_tree_le_k_leaves(g: Graph, k: int,
                         budget: SearchBudget = UNLIMITED) -> tuple[Status, SpanningTree | None]:
    """Decide whether some spanning tree of ``g`` has at most ``k`` leaves."""
    if k < 2:
        raise GraphError("a tree on >= 2 vertices has at least 2 leaves")
    if g.n == 0:
        raise GraphError("empty graph has no spanning tree")
    if not g.connected:
        return Status.NO, None
    return _tree_search_le_k(g, k, budget)


def min_leaf_number(g: Graph, budget: SearchBudget = UNLIMITED) -> MlResult:
    """Minimum number of leaves over all spanning trees of ``g``.

    Ascending-k decision: the first k with a witness is the optimum, and
    every refuted k below it is a certified lower bound.  An exhausted
    budget reports the best lower bound reached.
    """
    return _ladder(g, budget, True, 2)


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
    return _ladder(g, budget, False, 1)


# --- the ladders, and one analysis per graph -------------------------------


def _ladder(g: Graph, budget: SearchBudget, ml: bool, k: int,
            r: SearchResult | None = None) -> Any:
    """The ml ladder of ``g`` (else the mu ladder) from rung k.  ``r``, a
    ``has_ham_path`` answer, decides the bottom rung (ml <= 2, mu <= 1)."""
    if ml and (g.n == 0 or not g.connected):
        raise GraphError("minimum leaf number needs a connected non-empty graph")
    if g.n == 0:
        raise GraphError("path cover of the empty graph is undefined")
    result, bottom = (MlResult, 2) if ml else (MuResult, 1)
    if not ml and not g.connected:  # one path per component at least
        k = max(k, pieces(g.adj, g.full_mask(), g.full_mask()))
    while True:
        if k > bottom or r is None:
            rung = has_tree_le_k_leaves if ml else has_path_cover_le_k
            status, witness = rung(g, k, budget)
        elif ml:
            status, witness = _tree_search_le_k(g, 2, budget, r)
        else:
            status, witness = r.status, (r.witness,) if r.is_yes else None
        if status is Status.YES:
            return result(status, witness.leaf_count if ml else len(witness),
                          witness)
        if status is Status.INDETERMINATE:
            return result(status, lower_bound=k)
        k += 1


def analyze(g: Graph, budget: SearchBudget = UNLIMITED, ml: bool = False,
            mu: bool = False) -> Analysis:
    """Connectivity class and traceability of ``g``, and its minimum leaf
    number and path cover number when asked (see the module docstring).
    ``labeling`` is the ``CanonicalData`` that the traceability search
    finished, or None."""
    seconds: dict[str, float] = {}

    def timed(phase: str, solve: Callable[..., Any], *args: Any) -> Any:
        start = perf_counter()
        try:
            return solve(*args)
        except GraphError as exc:  # ml or mu of a graph that has none
            return exc
        finally:
            seconds[phase] = perf_counter() - start

    connectivity = timed("connectivity", vertex_connectivity_capped, g, 3)
    r = timed("traceable", has_ham_path, g, budget)
    mu_res = timed("mu", _ladder, g, budget, False, 1, r) if mu else None
    lo = 2 if r.is_no else 1  # mu is at least lo
    if isinstance(mu_res, MuResult):
        lo = mu_res.value or mu_res.lower_bound
    ml_res = timed("ml", _ladder, g, budget, True, lo + 1, r) if ml else None
    traceable = None if r.status is Status.INDETERMINATE else r.is_yes
    return Analysis(connectivity, traceable, ml_res, mu_res, seconds,
                    r.labeling)
