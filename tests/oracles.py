"""Oracles that only the tests use.

They answer the same questions as code in ``cubicml`` by independent
means, so a test can check one against the other.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Iterable, Iterator

from cubicml.cover import (
    SHORT_THRESHOLD,
    AttachmentPlan,
    CoverError,
    CoverReport,
    NoAttachmentError,
    VdpCover,
    _exchange_once,
    _merge_once,
)
from cubicml.exact import SpanningTree
from cubicml.graph import (
    Graph,
    GraphError,
    bits,
    connected_components,
    cut_vertices,
    degree_profile,
    induced_subgraph,
    is_connected,
    mask_of,
    require_witness,
)
from cubicml.hamsearch import (
    UNLIMITED,
    SearchBudget,
    SearchResult,
    Status,
    _checked,
    _run,
    has_ham_path,
    has_ham_path_from,
)
from cubicml.isomorphism import CanonicalData, _cells, _leaf_form, color_refine


def ham_path_without_orbits(g: Graph,
                            budget: SearchBudget = UNLIMITED) -> SearchResult:
    """``hamsearch.has_ham_path`` without the orbit skip and the memo: one
    search from every start s in ascending order, ending at some t > s."""
    if g.n == 0 or not is_connected(g):
        return SearchResult(Status.NO)
    if g.n <= 2:
        return SearchResult(Status.YES, tuple(range(g.n)))
    full = g.full_mask()

    def find(engine) -> tuple[int, ...] | None:
        for s in bits(full):
            end_mask = full >> s + 1 << s + 1
            if not end_mask:
                return None
            w = engine.search([s], end_mask)
            if w is not None:
                return w
        return None

    return _checked(g, ("path",), _run(g, budget, find))


def lemma_short_hypotheses_at_cut_vertices(
        g: Graph, budget: SearchBudget = UNLIMITED,
) -> tuple[bool | None, str | None]:
    """``census.lemma_short_hypotheses`` with the component clause tested
    only at the cut vertices one DFS finds."""
    degs, _, deg2 = degree_profile(g)
    if g.n == 0 or any(d not in (2, 3) for d in degs):
        return False, "degrees not within {2,3}"
    if not is_connected(g):
        return False, "not connected"
    if len(deg2) < 2:
        return False, "fewer than two degree-2 vertices"
    full = g.full_mask()
    deg2_mask = mask_of(deg2)
    for v in bits(cut_vertices(g.adj, full)):
        for comp in connected_components(g, full & ~(1 << v)):
            if comp & deg2_mask == 0:
                return False, f"cut vertex {v}: a component has no degree-2 vertex"
    r = has_ham_path(g, budget)
    if r.status is Status.INDETERMINATE:
        return None, "traceability indeterminate under budget"
    if r.is_no:
        return False, "not traceable"
    return True, None


def find_isomorphism(g1: Graph, g2: Graph) -> list[int] | None:
    """Explicit vertex mapping g1 -> g2 by refinement plus backtracking,
    or None.  Independent of the canonical-form machinery; intended for
    small graphs (regular inputs can degenerate)."""
    if g1.n != g2.n or g1.edge_count != g2.edge_count:
        return None
    c1 = color_refine(g1)
    c2 = color_refine(g2)
    if sorted(c1) != sorted(c2):
        return None
    cells2: dict[int, list[int]] = {}
    for v, c in enumerate(c2):
        cells2.setdefault(c, []).append(v)
    # Match most-constrained vertices first: small colour classes early.
    order = sorted(range(g1.n), key=lambda v: (len(cells2[c1[v]]), c1[v], v))
    image = [-1] * g1.n
    used = 0

    def extend(i: int) -> bool:
        nonlocal used
        if i == g1.n:
            return True
        v = order[i]
        nbr_imgs = 0
        for w in bits(g1.adj[v]):
            if image[w] >= 0:
                nbr_imgs |= 1 << image[w]
        for x in cells2[c1[v]]:
            if used >> x & 1:
                continue
            # x must be adjacent to exactly the images of v's mapped neighbours
            if g2.adj[x] & used != nbr_imgs:
                continue
            image[v] = x
            used |= 1 << x
            if extend(i + 1):
                return True
            used &= ~(1 << x)
            image[v] = -1
        return False

    return list(image) if extend(0) else None


def full_canonical_data(g: Graph,
                        initial_colors: tuple[int, ...] | None = None
                        ) -> CanonicalData:
    """``isomorphism.canonical_data`` without pruning: visits every leaf of
    the individualise-refine tree, so ``automorphisms`` is the whole group
    (identity last), and the form and labeling are the first maximal leaf's
    in the same depth-first order."""
    n = g.n
    if n == 0:
        return CanonicalData(b"", (), ((),), ())
    nbrs = [tuple(bits(a)) for a in g.adj]
    first_form: bytes | None = None
    first_lab: list[int] = []
    best_form: bytes | None = None
    best_lab: list[int] = []
    autos: list[tuple[int, ...]] = []

    def descend(colors: tuple[int, ...]) -> None:
        nonlocal first_form, best_form, first_lab, best_lab
        colors = color_refine(g, colors, nbrs)
        cells = _cells(colors)
        target = None
        for c in sorted(cells):
            if len(cells[c]) > 1:
                target = cells[c]
                break
        if target is None:
            lab = sorted(range(n), key=lambda v: colors[v])
            form = _leaf_form(g, lab)
            if first_form is None:
                first_form = form
                first_lab = lab
            elif form == first_form:
                perm = [0] * n
                for a, b in zip(first_lab, lab):
                    perm[a] = b
                autos.append(tuple(perm))
            if best_form is None or form > best_form:
                best_form = form
                best_lab = lab
            return
        for v in target:
            descend(tuple(n if u == v else c for u, c in enumerate(colors)))

    descend(color_refine(g, initial_colors, nbrs))
    autos.append(tuple(range(n)))
    orbit = [min(perm[v] for perm in autos) for v in range(n)]
    assert best_form is not None
    return CanonicalData(best_form, tuple(best_lab), tuple(autos),
                         tuple(orbit))


def sorted_profile_seeds(g: Graph) -> list[tuple[int, ...]]:
    """``isomorphism.pair_seeds`` as first written: the degree, then the
    sorted codes 2 * (common neighbours) + (adjacent) against every other
    vertex.  ``pair_seeds`` must order vertices exactly as these do."""
    adj = g.adj
    n = g.n
    profiles: list[list[int]] = [[] for _ in range(n)]
    for u in range(n):
        for v in range(u + 1, n):
            code = (adj[u] & adj[v]).bit_count() << 1 | (adj[u] >> v & 1)
            profiles[u].append(code)
            profiles[v].append(code)
    return [(adj[v].bit_count(), *sorted(profiles[v])) for v in range(n)]


def group_elements(gens: tuple[tuple[int, ...], ...]) -> set[tuple[int, ...]]:
    """Every element of the permutation group that the non-empty ``gens``
    generate, the identity included, by closure under composition."""
    ident = tuple(range(len(gens[0])))
    group = {ident}
    todo = [ident]
    while todo:
        p = todo.pop()
        for s in gens:
            q = tuple(s[x] for x in p)
            if q not in group:
                group.add(q)
                todo.append(q)
    return group


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


def tree_root(t: SpanningTree) -> int:
    """The vertex that is its own parent."""
    for v, p in enumerate(t.parent):
        if p == v:
            return v
    raise GraphError("parent array has no root")


def tree_edges(t: SpanningTree) -> list[tuple[int, int]]:
    """The tree's edges, each as (smaller end, larger end)."""
    return [(min(v, p), max(v, p)) for v, p in enumerate(t.parent) if p != v]


def is_bipartite(g: Graph) -> bool:
    color = [-1] * g.n
    for s in range(g.n):
        if color[s] != -1:
            continue
        color[s] = 0
        stack = [s]
        while stack:
            u = stack.pop()
            for w in bits(g.adj[u]):
                if color[w] == -1:
                    color[w] = color[u] ^ 1
                    stack.append(w)
                elif color[w] == color[u]:
                    return False
    return True


def components_after_deletion(g: Graph, deleted: Iterable[int]) -> int:
    dmask = mask_of(deleted)
    if dmask & ~g.full_mask():
        raise GraphError("deletion set out of vertex range")
    return len(connected_components(g, g.full_mask() & ~dmask))


def mu_lower_bound_deletion(g: Graph, deleted: Iterator[int] | list[int]) -> int:
    """Component-count bound: deleting d vertices that splits the graph into
    c components forces at least c - d paths in any cover."""
    dset = list(deleted)
    c = components_after_deletion(g, dset)
    return max(1, c - len(dset))


def has_exchange_join(g: Graph, c: VdpCover) -> bool:
    """True iff some path Q can still be joined to a path P with
    |P| <= |Q| at an endvertex of Q (merge or segment transfer)."""
    paths = list(c.paths)
    return _merge_once(g, list(paths)) or _exchange_once(g, list(paths))


def filtered_reroute(g: Graph, c: VdpCover, i: int,
                     budget: SearchBudget = UNLIMITED,
                     target_ok=None) -> AttachmentPlan:
    """``cover.reroute_short_path`` with a filter in place of ``avoid``: an
    anchor vertex that fails ``target_ok`` is never chosen, so no plan
    exists when every feasible anchor fails it."""
    p = c.paths[i]
    if len(p) >= SHORT_THRESHOLD:
        raise CoverError(f"path {i} is not short")
    sub, vmap = induced_subgraph(g, p)
    back = {orig: k for k, orig in enumerate(vmap)}
    owner = {v: j for j, q in enumerate(c.paths) for v in q}
    starts: list[int] = []
    for v in (p[0], p[-1], *p):
        if v not in starts and sub.degree(back[v]) <= 2:
            starts.append(v)
    best = None
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
        for ext in g.neighbors(v):
            if ext in back or (target_ok is not None and not target_ok(ext)):
                continue
            j = owner[ext]
            key = (-len(c.paths[j]), j, ext, order)
            if best is None or key < best[0]:
                best = (key, AttachmentPlan(route, (v, ext)))
    if best is None:
        raise NoAttachmentError(f"short path {i} admits no rerouted attachment")
    return best[1]


def retrying_cover_to_tree(g: Graph, c: VdpCover,
                           initial_size: int | None = None,
                           budget: SearchBudget = UNLIMITED) -> CoverReport:
    """``cover.cover_to_tree`` as two reroute searches per blocked short
    path and restarted joins: a path whose every allowed anchor lands in
    its own part is searched again unfiltered to tell "already connected"
    from a failure, rerouted paths are spliced into one flat edge list,
    and leftover parts are joined by rescanning ``g.edges`` from the start
    after every edge added."""
    n = g.n
    edges: list[tuple[int, int]] = []
    comp = list(range(n))

    def find(v: int) -> int:
        while comp[v] != v:
            v = comp[v]
        return v

    def union(u: int, v: int) -> None:
        ru, rv = find(u), find(v)
        if ru != rv:
            comp[ru] = rv

    for q in c.paths:
        for u, v in zip(q, q[1:]):
            edges.append((u, v))
            union(u, v)
    failures = 0
    order = sorted(
        (j for j, q in enumerate(c.paths) if len(q) < SHORT_THRESHOLD),
        key=lambda j: (len(c.paths[j]), j),
    )
    for j in order:
        if len(c.paths) == 1:
            break
        home = find(c.paths[j][0])
        try:
            plan = filtered_reroute(
                g, c, j, budget, target_ok=lambda ext: find(ext) != home)
        except NoAttachmentError:
            try:
                filtered_reroute(g, c, j, budget)
                continue
            except NoAttachmentError:
                failures += 1
                continue
        old = {frozenset(e) for e in zip(c.paths[j], c.paths[j][1:])}
        new = list(zip(plan.path, plan.path[1:]))
        keep = {frozenset(e) for e in new}
        if old != keep:
            own = set(c.paths[j])
            edges = [e for e in edges
                     if not (e[0] in own and e[1] in own) or frozenset(e) in keep]
            edges.extend(e for e in new if frozenset(e) not in old)
        edges.append(plan.anchor)
        union(*plan.anchor)
    while len({find(v) for v in range(n)}) > 1:
        for u, v in g.edges:
            if find(u) != find(v):
                edges.append((u, v))
                union(u, v)
                break
        else:
            raise CoverError("graph is disconnected; no spanning tree exists")
    tree = SpanningTree.from_edges(n, edges)
    require_witness(tree.validate(g), "cover spanning tree")
    bound = c.short_count + 2 * c.long_count
    frac = Fraction(13 * n, 85)
    return CoverReport(
        initial_size=len(c.paths) if initial_size is None else initial_size,
        final_size=len(c.paths),
        sum_squares=c.sum_squares,
        tree=tree,
        bound_s_plus_2l=bound,
        bound_13_85=frac,
        certified=(failures == 0 and tree.leaf_count <= bound
                   and Fraction(bound) <= frac),
        attachment_failures=failures,
    )
