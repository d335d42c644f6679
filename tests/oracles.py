"""Oracles that only the tests use.

They answer the same questions as code in ``cubicml`` by independent
means, so a test can check one against the other.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Iterable, Iterator
from unittest import mock

from cubicml import hamsearch
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
    GRAPH6_HEADER,
    GRAPH6_MAX_N,
    Graph,
    Graph6Error,
    GraphError,
    _g6_n_and_body,
    bits,
    cut_vertices,
    degree_profile,
    induced_subgraph,
    is_connected,
    mask_of,
    pieces,
    require_witness,
)
from cubicml.hamsearch import (
    UNLIMITED,
    SearchBudget,
    SearchResult,
    Status,
    _BudgetExhausted,
    _checked,
    _Engine,
    _low,
    _run,
    _split_trail,
    has_ham_path,
    has_ham_path_from,
)
from cubicml.isomorphism import CanonicalData


class TableFreeEngine(_Engine):
    """``hamsearch._Engine`` without the dead-state table: its path and
    leg searches as they were before the table, so every state is searched
    as often as the search reaches it."""

    def search(self, path: list[int],
               end_mask: int) -> tuple[int, ...] | None:
        """Extend ``path`` to a hamiltonian path of ``full``, or None.

        The path's vertices count as visited and its last vertex is where
        the search stands.  The path ends in ``end_mask``, so a rest that
        misses ``end_mask`` is dead.  The unvisited rest is scanned for
        low-degree vertices once, before the root; every node then only
        looks around the vertex just added (see the ``hamsearch``
        docstring).  Callers pass one vertex of a connected graph as
        ``path``.
        """
        adj = self.adj
        max_nodes = self.max_nodes
        nodes = self.nodes
        rest = self.full & ~mask_of(path)
        if rest == 0:
            return tuple(path)
        low = _low(adj, rest, rest)  # unvisited, residual degree <= 1
        cur = path[-1]
        stack: list[tuple[int, int, Iterator[tuple[int, int]]]] = []
        while True:
            nodes += 1
            if max_nodes is not None and nodes > max_nodes:
                self.nodes = nodes
                raise _BudgetExhausted
            cur_adj = adj[cur]
            nb = cur_adj & rest
            kids: list[tuple[int, int]] = []
            if not rest & (rest - 1):  # single vertex left
                if nb & end_mask:
                    path.append(rest.bit_length() - 1)
                    self.nodes = nodes
                    return tuple(path)
            elif rest & end_mask:
                # Residual degrees fall only around cur: refresh low there
                # and keep each neighbour's degree to order the children.
                m = nb
                while m:
                    b = m & -m
                    u = b.bit_length() - 1
                    d = (adj[u] & rest).bit_count()
                    if d <= 1:
                        low |= b
                    kids.append((d, u))
                    m ^= b
                # Low vertices must end the rest of the path: at most two,
                # one of them able to come first (next to cur) and the
                # other last.
                if low:
                    a = low & -low
                    z = low ^ a
                    if z:
                        if z & (z - 1) or not (a & cur_adj and z & end_mask
                                               or z & cur_adj and a & end_mask):
                            kids = []
                    elif not a & (cur_adj | end_mask):
                        kids = []
                if kids and nb & (nb - 1):
                    # The parent proved rest + cur connected, so rest is
                    # connected iff cur's neighbours in it share a component.
                    # That is pieces(adj, nb, rest) == 1, kept inline: a
                    # call at every node measured slower on verify-paper.
                    comp = nb & -nb
                    frontier = comp
                    unseen = rest ^ comp
                    while nb & unseen:
                        grow = 0
                        while frontier:
                            b = frontier & -frontier
                            grow |= adj[b.bit_length() - 1]
                            frontier ^= b
                        frontier = grow & unseen
                        if not frontier:
                            kids = []
                            break
                        unseen ^= frontier
                kids.sort()
            if kids:
                stack.append((rest, low, iter(kids)))
            else:
                path.pop()
            while stack:
                rest, low, it = stack[-1]
                kid = next(it, None)
                if kid is not None:
                    break
                stack.pop()
                path.pop()
            else:
                self.nodes = nodes
                return None
            cur = kid[1]
            path.append(cur)
            b = 1 << cur
            rest ^= b
            low &= ~b

    def legs(self, p: int, attached: bool) -> tuple[tuple[int, ...], ...] | None:
        """At most ``p`` legs covering ``full`` under the free or the
        attached start rule (see the ``hamsearch`` docstring).  ``trail``
        lists the visited vertices in order, with -1 where a leg turns back
        to its anchor u and -2 where a leg closes."""
        adj = self.adj
        max_nodes = self.max_nodes
        nodes = self.nodes
        rest = self.full & ~1
        low = _low(adj, rest, rest)
        comps = pieces(adj, rest, rest)
        reach = adj[0]
        left, phase, u, cur, a1 = p - 1, 1, 0, 0, -1
        trail = [0]
        stack: list[tuple] = []
        while True:
            nodes += 1
            if max_nodes is not None and nodes > max_nodes:
                self.nodes = nodes
                raise _BudgetExhausted
            if not rest:
                self.nodes = nodes
                return _split_trail(trail)
            # open ends: the current end, and u during a first half
            if phase:
                nb = adj[cur] & rest
                if phase == 2 and cur == u and a1 >= 0:
                    nb &= -2 << a1  # a second half starts above a1
                room = left + (nb != 0) + (phase == 1 and adj[u] & rest != 0)
            else:  # between legs: where the next one may start
                nb = reach & rest if attached else rest & -rest
                room = left
            kids: list[tuple[int, int]] = []
            if comps <= room and low.bit_count() <= 2 * room:
                kids = sorted([((adj[v] & rest).bit_count(), v)
                               for v in bits(nb)])
                if phase and (left or phase == 1 and cur != u):
                    kids.append((0, -1))  # end the half or the leg
            if kids:
                stack.append((rest, low, comps, reach, left, phase, u, a1,
                              cur, len(trail), iter(kids)))
            while stack:
                kid = next(stack[-1][-1], None)
                if kid is not None:
                    break
                stack.pop()
            else:
                self.nodes = nodes
                return None
            (rest, low, comps, reach, left, phase, u, a1, cur, depth,
             _) = stack[-1]
            del trail[depth:]
            v = kid[1]
            if v < 0:
                if phase == 1 and cur != u:  # turn back to grow from u
                    phase, cur = 2, u
                    trail.append(-1)
                else:  # close the leg
                    phase = 0
                    trail.append(-2)
                continue
            if not phase:
                left -= 1
                phase, u, a1 = 2 if attached else 1, v, -1
            elif phase == 1 and cur == u:
                a1 = v
            cur = v
            trail.append(v)
            rest ^= 1 << v
            low &= rest
            reach |= adj[v]
            nb = adj[v] & rest
            low |= _low(adj, nb, rest)
            comps += pieces(adj, nb, rest) - 1


def table_free(query: Callable[..., SearchResult], *args) -> SearchResult:
    """``query(*args)`` for a ``hamsearch`` query, searched afresh (past
    the caches) on a ``TableFreeEngine``."""
    with mock.patch.object(hamsearch, "_Engine", TableFreeEngine), \
            mock.patch.object(hamsearch, "_ham_path",
                              hamsearch._ham_path.__wrapped__), \
            mock.patch.object(hamsearch, "_legs", hamsearch._legs.__wrapped__):
        return query(*args)


def ham_path_without_orbits(g: Graph,
                            budget: SearchBudget = UNLIMITED) -> SearchResult:
    """``hamsearch.has_ham_path`` without the orbit skip, the memo and the
    dead-state table: one search from every start s in ascending order,
    ending at some t > s."""
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

    with mock.patch.object(hamsearch, "_Engine", TableFreeEngine):
        return _checked(g, ("path",), _run(g, budget, find))


def bitwise_parse_graph6(text: bytes | str) -> Graph:
    """``graph.parse_graph6`` as first written: one bit at a time over the
    column-major upper triangle, each bit's column found by a square root,
    each byte checked as it is read."""
    data = text.encode("utf-8") if isinstance(text, str) else bytes(text)
    data = data.strip()
    if data.startswith(GRAPH6_HEADER):
        data = data[len(GRAPH6_HEADER):]
    if not data.isascii():
        i = next(i for i, byte in enumerate(data) if byte > 127)
        raise Graph6Error(f"non-ASCII byte 0x{data[i]:02x}", i)
    n, body, base = _g6_n_and_body(data)
    if n > GRAPH6_MAX_N:
        raise Graph6Error(f"order {n} exceeds supported graph6 range", 0)
    nbits = n * (n - 1) // 2
    need = (nbits + 5) // 6
    if len(body) != need:
        raise Graph6Error(
            f"expected {need} body bytes for n={n}, got {len(body)}", base + len(body)
        )
    adj = [0] * n
    k = 0  # bit cursor over the column-major upper triangle
    for i, byte in enumerate(body):
        c = byte - 63
        if c < 0 or c > 63:
            raise Graph6Error(f"character {byte!r} out of graph6 range", base + i)
        for shift in range(5, -1, -1):
            if c >> shift & 1:
                if k >= nbits:
                    raise Graph6Error("nonzero padding bits", base + i)
                # smallest v with v(v-1)/2 > k, minus 1: the column of bit k
                v = int((2 * k) ** 0.5) + 2
                while v * (v - 1) // 2 > k:
                    v -= 1
                u = k - v * (v - 1) // 2
                adj[u] |= 1 << v
                adj[v] |= 1 << u
            k += 1
    return Graph(n, tuple(adj))


def bitwise_write_graph6(g: Graph) -> bytes:
    """``graph.write_graph6`` as first written: one bit at a time, column
    by column, six to a byte."""
    n = g.n
    if n <= 62:
        out = bytearray([n + 63])
    else:
        out = bytearray([126, (n >> 12 & 63) + 63, (n >> 6 & 63) + 63,
                         (n & 63) + 63])
    acc = 0
    nacc = 0
    for v in range(n):
        col = g.adj[v]
        for u in range(v):
            acc = acc << 1 | (col >> u & 1)
            nacc += 1
            if nacc == 6:
                out.append(acc + 63)
                acc = 0
                nacc = 0
    if nacc:
        out.append((acc << (6 - nacc)) + 63)
    return bytes(out)


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
        for comp in components(g, full & ~(1 << v)):
            if comp & deg2_mask == 0:
                return False, f"cut vertex {v}: a component has no degree-2 vertex"
    r = has_ham_path(g, budget)
    if r.status is Status.INDETERMINATE:
        return None, "traceability indeterminate under budget"
    if r.is_no:
        return False, "not traceable"
    return True, None


def full_round_refine(g: Graph, colors: tuple[int, ...] | None = None,
                      nbrs: list[tuple[int, ...]] | None = None
                      ) -> tuple[int, ...]:
    """``isomorphism.seeded_colors`` as first written: every round signs
    every vertex (colour, sorted neighbour colours) and numbers the
    distinct signatures in sorted order, until no cell splits."""
    n = g.n
    if nbrs is None:
        nbrs = [tuple(bits(a)) for a in g.adj]
    cur = colors if colors is not None else tuple(len(nb) for nb in nbrs)
    ncls = len(set(cur))
    while True:
        sigs = [(cur[v], *sorted([cur[w] for w in nbrs[v]]))
                for v in range(n)]
        order = {s: i for i, s in enumerate(sorted(set(sigs)))}
        nxt = tuple(order[s] for s in sigs)
        if len(order) == ncls:
            return nxt
        cur = nxt
        ncls = len(order)


def _cells(colors: tuple[int, ...]) -> dict[int, list[int]]:
    cells: dict[int, list[int]] = {}
    for v, c in enumerate(colors):
        cells.setdefault(c, []).append(v)
    return cells


def find_isomorphism(g1: Graph, g2: Graph) -> list[int] | None:
    """Explicit vertex mapping g1 -> g2 by refinement plus backtracking,
    or None.  Independent of the canonical-form machinery; intended for
    small graphs (regular inputs can degenerate)."""
    if g1.n != g2.n or g1.edge_count != g2.edge_count:
        return None
    c1 = full_round_refine(g1)
    c2 = full_round_refine(g2)
    if sorted(c1) != sorted(c2):
        return None
    cells2 = _cells(c2)
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


def pairwise_leaf_form(g: Graph, lab: list[int]) -> bytes:
    """``isomorphism._leaf_form`` as first written: every pair of positions
    j < i in turn, row by row, one bit each, packed into bytes from the
    most significant bit."""
    out = bytearray()
    acc = 0
    k = 0
    for i in range(g.n):
        ai = g.adj[lab[i]]
        for j in range(i):
            acc = acc << 1 | (ai >> lab[j] & 1)
            k += 1
            if k == 8:
                out.append(acc)
                acc = k = 0
    if k:
        out.append(acc << (8 - k))
    return bytes(out)


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
        colors = full_round_refine(g, colors, nbrs)
        cells = _cells(colors)
        target = None
        for c in sorted(cells):
            if len(cells[c]) > 1:
                target = cells[c]
                break
        if target is None:
            lab = sorted(range(n), key=lambda v: colors[v])
            form = pairwise_leaf_form(g, lab)
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

    descend(full_round_refine(g, initial_colors, nbrs))
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


def components(g: Graph, allowed: int) -> list[int]:
    """Components of the subgraph induced on ``allowed``, as masks, by a
    plain breadth-first search over vertex sets (``graph.pieces`` counts
    them with bitmask spreads that stop early)."""
    left = {v for v in range(g.n) if allowed >> v & 1}
    comps = []
    while left:
        queue = [left.pop()]
        for u in queue:
            joined = {w for w in left if g.adj[u] >> w & 1}
            left -= joined
            queue += joined
        comps.append(sum(1 << v for v in queue))
    return comps


def components_after_deletion(g: Graph, deleted: Iterable[int]) -> int:
    dmask = mask_of(deleted)
    if dmask & ~g.full_mask():
        raise GraphError("deletion set out of vertex range")
    return len(components(g, g.full_mask() & ~dmask))


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
