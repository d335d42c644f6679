"""Path-cover optimisation and spanning-tree assembly for cubic graphs.

Pipeline: peel a greedy vertex-disjoint path cover, improve it by merges
and by the quadratic exchange (transfer a segment from a path P to a path
Q with |P| <= |Q| whenever an endvertex of Q reaches into P; this strictly
increases the sum of squared path lengths), then reroute each short path so
it can hang off another path by a single edge, and read off a spanning
tree.  With exact cover cardinality supplied, the assembled tree has at
most s + 2*l leaves (s short paths, l long ones), which for 2-connected
cubic graphs is certified against the 13n/85 budget.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .graph import Graph, GraphError, induced_subgraph, require_witness
from .exact import SpanningTree, has_path_cover_le_k
from .hamsearch import (SearchBudget, Status, UNLIMITED, check_legs_witness,
                        has_ham_path_from)

SHORT_THRESHOLD = 18  # a path is long when it has at least this many vertices


class CoverError(GraphError):
    pass


class LongPathError(CoverError):
    """reroute_short_path called on a path that is not short."""


class NoAttachmentError(CoverError):
    """No hamiltonian reroute of the short path reaches an external anchor."""


@dataclass(frozen=True)
class VdpCover:
    """Vertex-disjoint paths covering all of V(G)."""

    paths: tuple[tuple[int, ...], ...]

    @property
    def short_count(self) -> int:
        return sum(1 for p in self.paths if len(p) < SHORT_THRESHOLD)

    @property
    def long_count(self) -> int:
        return len(self.paths) - self.short_count

    @property
    def sum_squares(self) -> int:
        return sum(len(p) ** 2 for p in self.paths)

    def validate(self, g: Graph) -> bool:
        return check_legs_witness(g, self.paths, len(self.paths), False)


@dataclass(frozen=True)
class AttachmentPlan:
    """Rerouted path plus the edge hooking its first vertex to another path."""

    path: tuple[int, ...]
    anchor: tuple[int, int]  # (path[0], external vertex)


@dataclass(frozen=True)
class CoverReport:
    initial_size: int
    final_size: int
    sum_squares: int
    tree: SpanningTree
    bound_s_plus_2l: int
    bound_13_85: Fraction
    certified: bool
    attachment_failures: int = 0

    @property
    def leaf_count(self) -> int:
        return self.tree.leaf_count


def initial_vdp_cover(g: Graph) -> VdpCover:
    """Greedy path peeling: walk from the smallest uncovered vertex, always
    to the smallest uncovered neighbour, extending both ends.

    No two paths of the result join end to end: a finished path's ends
    have no uncovered neighbour, and every later path is made of vertices
    still uncovered then, so no later path touches them.
    """
    if g.n == 0 or not g.connected:
        raise CoverError("path cover procedure needs a connected non-empty graph")
    covered = 0
    paths: list[tuple[int, ...]] = []
    full = g.full_mask()
    while covered != full:
        start = (~covered & full & -(~covered & full)).bit_length() - 1
        path = [start]
        covered |= 1 << start
        for grow_front in (False, True):
            while True:
                tip = path[0] if grow_front else path[-1]
                free = g.adj[tip] & ~covered
                if not free:
                    break
                v = (free & -free).bit_length() - 1
                covered |= 1 << v
                if grow_front:
                    path.insert(0, v)
                else:
                    path.append(v)
        paths.append(tuple(path))
    cover = VdpCover(tuple(paths))
    require_witness(cover.validate(g), "initial path cover")
    return cover


def _merge_once(g: Graph, paths: list[tuple[int, ...]]) -> bool:
    """Concatenate one pair of paths adjacent endpoint-to-endpoint."""
    for i in range(len(paths)):
        for j in range(i + 1, len(paths)):
            p, q = paths[i], paths[j]
            for pe in (p, p[::-1]):
                for qe in (q, q[::-1]):
                    if g.has_edge(pe[-1], qe[0]):
                        paths[i] = pe + qe
                        del paths[j]
                        return True
    return False


def _exchange_once(g: Graph, paths: list[tuple[int, ...]]) -> bool:
    """Apply one quadratic exchange: endvertex of Q adjacent to a vertex of
    a shorter-or-equal path P hands the larger reachable segment of P to Q."""
    for j, q in enumerate(paths):
        for y in (q[0], q[-1]):
            for i, p in enumerate(paths):
                if i == j or len(p) > len(q):
                    continue
                best_k = 0
                best: tuple[tuple[int, ...], tuple[int, ...]] | None = None
                for pos, x in enumerate(p):
                    if not g.has_edge(y, x):
                        continue
                    # transfer the front segment p[:pos+1] or the back
                    # segment p[pos:]; keep the path count, so the residue
                    # must stay non-empty
                    for seg, rest in (
                        (p[: pos + 1][::-1], p[pos + 1:]),
                        (p[pos:], p[:pos]),
                    ):
                        if rest and len(seg) > best_k:
                            best_k = len(seg)
                            best = (seg, rest)
                if best is not None:
                    seg, rest = best
                    paths[i] = rest
                    paths[j] = q[::-1] + seg if y == q[0] else q + seg
                    return True
    return False


def optimize_cover(g: Graph, c: VdpCover,
                   exact_mu: int | None = None,
                   budget: SearchBudget = UNLIMITED) -> VdpCover:
    """Merge to the smallest reachable cardinality, then exhaust exchanges.

    When ``exact_mu`` is given and merging stalls above it, an exact
    minimum cover replaces the heuristic one before the exchange phase, so
    the result genuinely has minimum cardinality.
    """
    if not c.validate(g):
        raise CoverError("cover does not partition the graph into paths")
    paths = list(c.paths)
    while _merge_once(g, paths):
        pass
    if exact_mu is not None and len(paths) > exact_mu:
        status, exact_paths = has_path_cover_le_k(g, exact_mu, budget)
        if status is Status.YES and exact_paths is not None:
            paths = list(exact_paths)
    while _merge_once(g, paths) or _exchange_once(g, paths):
        pass
    out = VdpCover(tuple(paths))
    require_witness(out.validate(g), "optimized path cover")
    return out


def reroute_short_path(g: Graph, c: VdpCover, i: int,
                       budget: SearchBudget = UNLIMITED,
                       avoid=None) -> AttachmentPlan:
    """Reroute short path ``i`` so its first vertex anchors to another path.

    Candidate reroutes are hamiltonian paths of the induced subgraph on
    V(path) starting at a vertex of induced degree <= 2 (which, in a cubic
    host, therefore has an outside neighbour).  The original path is reused
    when its own endpoint qualifies.  Among the feasible anchors, the one
    landing on the longest other path wins, ties to the smallest path
    index, then the smallest anchor vertex.  An anchor vertex for which
    ``avoid``, if given, is true loses to every other anchor (the tree
    assembly avoids anchors that would close a cycle).
    """
    if not (0 <= i < len(c.paths)):
        raise CoverError(f"path index {i} out of range")
    p = c.paths[i]
    if len(p) >= SHORT_THRESHOLD:
        raise LongPathError(
            f"path {i} has {len(p)} vertices, not short (< {SHORT_THRESHOLD})")
    sub, vmap = induced_subgraph(g, p)
    back = {orig: k for k, orig in enumerate(vmap)}
    owner = {v: j for j, q in enumerate(c.paths) for v in q}

    starts: list[int] = []
    for v in (p[0], p[-1], *p):
        if v not in starts and sub.degree(back[v]) <= 2:
            starts.append(v)
    best: tuple[tuple[bool, int, int, int, int], AttachmentPlan] | None = None
    for order, v in enumerate(starts):
        if v == p[0]:
            route = p
        elif v == p[-1]:
            route = p[::-1]
        else:
            r = has_ham_path_from(sub, back[v], budget)
            if not r.is_yes:
                continue
            route = tuple(vmap[w] for w in r.witness)
        external = [w for w in g.neighbors(v) if w not in back]
        for ext in external:
            j = owner[ext]
            key = (avoid is not None and avoid(ext),
                   -len(c.paths[j]), j, ext, order)
            if best is None or key < best[0]:
                best = (key, AttachmentPlan(route, (v, ext)))
    if best is None:
        raise NoAttachmentError(
            f"short path {i} admits no rerouted attachment")
    return best[1]


def cover_to_tree(g: Graph, c: VdpCover,
                  initial_size: int | None = None,
                  budget: SearchBudget = UNLIMITED) -> CoverReport:
    """Assemble a spanning tree from the cover and audit the leaf budget.

    Short paths are attached in increasing length order through rerouted
    hamiltonian paths; any leftover components are joined by arbitrary
    edges.  Certified means: every short path attached via the reroute, the
    tree has at most s + 2*l leaves, and s + 2*l fits under 13n/85.
    """
    if not c.validate(g):
        raise CoverError("cover does not partition the graph into paths")
    n = g.n
    comp = list(range(n))

    def find(v: int) -> int:
        while comp[v] != v:
            comp[v] = comp[comp[v]]
            v = comp[v]
        return v

    def union(u: int, v: int) -> bool:
        ru, rv = find(u), find(v)
        comp[ru] = rv
        return ru != rv

    paths = list(c.paths)
    for q in paths:
        for u, v in zip(q, q[1:]):
            union(u, v)

    anchors: list[tuple[int, int]] = []
    failures = 0
    # a lone path is a spanning tree already
    short = [] if len(c.paths) == 1 else [
        j for j, q in enumerate(c.paths) if len(q) < SHORT_THRESHOLD]
    for j in sorted(short, key=lambda j: (len(c.paths[j]), j)):
        home = find(c.paths[j][0])
        try:
            plan = reroute_short_path(
                g, c, j, budget, avoid=lambda ext: find(ext) == home)
        except NoAttachmentError:
            failures += 1
            continue
        # an anchor into its own part means an earlier anchor already
        # connected this path, so no edge is needed
        if union(*plan.anchor):
            paths[j] = plan.path
            anchors.append(plan.anchor)

    edges = [e for q in paths for e in zip(q, q[1:])] + anchors
    if len(edges) < n - 1:
        # arbitrary-edge joins for whatever is still split (and for failures)
        edges += [(u, v) for u, v in g.edges if union(u, v)]
    if len(edges) < n - 1:
        raise CoverError("graph is disconnected; no spanning tree exists")

    tree = SpanningTree.from_edges(n, edges)
    require_witness(tree.validate(g), "cover spanning tree")
    s, ell = c.short_count, c.long_count
    bound = s + 2 * ell
    frac = Fraction(13 * n, 85)
    certified = (
        failures == 0
        and tree.leaf_count <= bound
        and Fraction(bound) <= frac
    )
    return CoverReport(
        initial_size=len(c.paths) if initial_size is None else initial_size,
        final_size=len(c.paths),
        sum_squares=c.sum_squares,
        tree=tree,
        bound_s_plus_2l=bound,
        bound_13_85=frac,
        certified=certified,
        attachment_failures=failures,
    )


def run_cover_procedure(g: Graph, exact_mu: int | None = None,
                        budget: SearchBudget = UNLIMITED) -> CoverReport:
    """Full pipeline: peel, optimize, assemble, audit."""
    first = initial_vdp_cover(g)
    optimized = optimize_cover(g, first, exact_mu, budget)
    return cover_to_tree(g, optimized, initial_size=len(first.paths),
                         budget=budget)
