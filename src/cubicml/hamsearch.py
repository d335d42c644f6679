"""Exact hamiltonian path/cycle and path cover queries with structural
pruning.

One backtracking engine serves every query flavour: free endpoints, fixed
start, fixed endpoint pair, cycle closure, and path covers.  A path ends in
an end mask: every vertex after a fixed start, and b alone for a fixed pair
(a, b).  The J-cell recognizer asks only fixed-pair queries, on H, on H
minus a vertex, and on either plus one connector vertex.  Verdicts are
exact; a node budget can cut a search short, in which case the result is
indeterminate rather than wrong.

Free-endpoint paths and cycles share one anchored driver.  It searches
``prefix + [s, ..., t]`` for each choice s in ascending order and accepts
only a final t > s among the choices, so each path or cycle is found in
one direction only.  A cycle has prefix [0] and the neighbours of 0 as
choices.  A path is a cycle through a hub adjacent to every vertex, cut
open at the hub: empty prefix, every vertex a choice.  The hub stays
implicit, because a real one would add a bit to every mask.

A path also skips starts in the automorphism orbit of a failed one.  The
driver keeps a mask ``done``; each start joins it before its search, which
may end only outside it, so with no orbits known this is the rule t > s.
By induction no hamiltonian path ends in ``done``: the search from s
excluded every other end, so none ends at s, and an automorphism maps a
path ending at s to one ending at its image.  So once the orbits are known,
each orbit that meets ``done`` joins it and is never tried as a start.
Each search is the orbit-free driver's search from the same start, with
the same child order and a smaller end mask, so it only prunes more; a
skipped start would have failed there too.  Status and witness are
therefore the orbit-free driver's, reached in no more nodes.  The orbits
come from ``isomorphism.canonical_steps``, stepped after each failed start
by as many units (n per colour refinement) as that start's search took
nodes.  So the labeling costs at most the search's nodes plus one
refinement, and a search cut by its budget has not waited for it.  Cycles
take no labeling, so their trees are as before.

Pruning at every node (Rubin, JACM 1974; Vandegriend & Culberson, JAIR
1998):
  * the unvisited vertices must induce a connected graph;
  * unvisited vertices with residual degree <= 1 must be endpoints of the
    remaining path, so more than two of them (or an infeasible assignment
    of first/last roles) kills the branch;
  * children are tried in order of (residual degree, vertex).

Each node does only local work, so its cost does not grow with n.  The
mask of residual-degree-<=1 vertices is passed down the search: degrees
only fall, and only at the neighbours of the vertex just added, so a child
refreshes the mask there.  The parent has already shown that the rest plus
the current vertex is connected, so the rest is connected iff the current
vertex's neighbours in it share a component; a spread from one of them
stops once it has reached the others, and is skipped when there is at most
one.  Only the root of a search (whose rest may be disconnected) spreads
over the whole rest.  The search runs on an explicit stack, so path length
is not bounded by the interpreter's recursion limit.

A leg cover (``has_leg_cover``) covers V by at most p vertex-disjoint
paths ("legs"), built one after another under a start rule:
  * free: each leg contains u, the smallest unvisited vertex, and grows
    from u one way, then after an "end" choice from u the other way.  The
    second half needs a non-empty first half and a first vertex above the
    first half's, so each cover is found once;
  * attached (``exact`` joins the legs into a tree): the first leg is built
    the same way from vertex 0; every later leg starts at an unvisited
    neighbour of the visited vertices and grows one way.
Let L be the number of legs still to start and e the number of open ends
(none between legs; else the current end, and u during a first half, each
if it has an unvisited neighbour).  Each of them covers part of one component of the unvisited
rest and has at most two vertices of residual degree <= 1, so a node dies
when the rest has more than L + e components or more than 2(L + e) such
vertices.  Children go by (residual degree, vertex), then "end".  The
component count is kept like the low mask, around the vertex just added.

``has_ham_path`` and ``has_leg_cover`` keep their last 16 answers each
(``functools.lru_cache``), keyed by the exact question: the graph, the
budget and, for a leg cover, p and the start rule.  The engine is
deterministic, so a kept answer, INDETERMINATE included, is what a fresh
search would return.  Callers ask again within a few questions, and one
``verify_paper_artifacts`` pass asks 23 paths and 19 leg covers, so a
repeated pass searches again, as each CLI run does.  Every query returns
through ``_checked``, so each YES witness is checked, kept or fresh.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from typing import Callable, Generator, Iterator

from .graph import (
    Graph,
    GraphError,
    bits,
    induced_subgraph,
    is_connected,
    mask_of,
    require_witness,
    spread,
)
from .isomorphism import CanonicalData, canonical_steps


class Status(Enum):
    YES = "yes"
    NO = "no"
    INDETERMINATE = "indeterminate"


@dataclass(frozen=True)
class SearchBudget:
    """Optional cap on expanded search-tree nodes; absent means exhaustive."""

    max_nodes: int | None = None


UNLIMITED = SearchBudget()


@dataclass(frozen=True)
class SearchResult:
    status: Status
    witness: tuple | None = None  # a path, or the legs of a leg cover
    nodes: int = 0

    def __bool__(self) -> bool:
        return self.status is Status.YES

    @property
    def is_yes(self) -> bool:
        return self.status is Status.YES

    @property
    def is_no(self) -> bool:
        return self.status is Status.NO


class _BudgetExhausted(Exception):
    pass


def check_path_witness(g: Graph, path: tuple[int, ...]) -> bool:
    """Mechanical validation of a hamiltonian path: a cover by one leg."""
    return check_legs_witness(g, (path,), 1, False)


class _Engine:
    def __init__(self, g: Graph, budget: SearchBudget):
        self.adj = g.adj
        self.full = g.full_mask()
        self.max_nodes = budget.max_nodes
        self.nodes = 0

    def anchored(self, prefix: list[int], choices: int,
                 labeling: Generator[int, None, CanonicalData] | None = None
                 ) -> tuple[int, ...] | None:
        """Hamiltonian path ``prefix + [s, ..., t]`` with s and t in
        ``choices``, trying each s in ascending order and t only outside
        ``done``: the starts tried so far and, once ``labeling`` has
        finished, their orbits.  After each failed start the labeling is
        stepped by as many units as that start's search took nodes."""
        done = 0
        classes: list[int] | None = None  # orbit masks, once labelled
        credit = 0
        for s in bits(choices):
            if done >> s & 1:
                continue
            done |= 1 << s
            end_mask = choices & ~done
            if not end_mask:
                break
            before = self.nodes
            w = self.search(prefix + [s], end_mask)
            if w is not None:
                return w
            if labeling is not None and classes is None:
                credit += self.nodes - before
                try:
                    while credit > 0:
                        credit -= next(labeling)
                except StopIteration as stop:
                    classes = _orbit_masks(stop.value.orbit)
            if classes is not None:
                for c in classes:
                    if c & done:
                        done |= c
        return None

    def search(self, path: list[int],
               end_mask: int) -> tuple[int, ...] | None:
        """Extend ``path`` to a hamiltonian path of ``full``, or None.

        The path's vertices count as visited and its last vertex is where
        the search stands.  The path ends in ``end_mask``, so a rest that
        misses ``end_mask`` is dead.  The root node proves its unvisited
        rest connected by a full spread and scans it for low-degree
        vertices; every deeper node only looks around the vertex just added
        (see the module docstring).
        """
        adj = self.adj
        max_nodes = self.max_nodes
        nodes = self.nodes
        rest = self.full & ~mask_of(path)
        if rest == 0:
            return tuple(path)
        low = _low(adj, rest, rest)  # unvisited, residual degree <= 1
        cur = path[-1]
        root = True
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
                if kids and root:
                    if spread(adj, rest & -rest, rest) != rest:
                        kids = []
                elif kids and nb & (nb - 1):
                    # The parent proved rest + cur connected, so rest is
                    # connected iff cur's neighbours in it share a component.
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
            root = False
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
        attached start rule (see the module docstring).  ``trail`` lists
        the visited vertices in order, with -1 where a leg turns back to its
        anchor u and -2 where a leg closes."""
        adj = self.adj
        max_nodes = self.max_nodes
        nodes = self.nodes
        rest = self.full & ~1
        low = _low(adj, rest, rest)
        comps = _pieces(adj, rest, rest)
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
            comps += _pieces(adj, nb, rest) - 1


def _orbit_masks(orbit: tuple[int, ...]) -> list[int]:
    """The vertex mask of each orbit, from ``CanonicalData.orbit``."""
    masks: dict[int, int] = {}
    for v, root in enumerate(orbit):
        masks[root] = masks.get(root, 0) | 1 << v
    return list(masks.values())


def _pieces(adj: tuple[int, ...], nb: int, rest: int) -> int:
    """Number of components of ``rest`` that meet ``nb``.  A spread from
    one vertex of ``nb`` stops as soon as it has reached all the others."""
    count = 0
    while nb:
        count += 1
        frontier = nb & -nb
        unseen = rest ^ frontier
        while frontier and nb & unseen:
            grow = 0
            while frontier:
                b = frontier & -frontier
                grow |= adj[b.bit_length() - 1]
                frontier ^= b
            frontier = grow & unseen
            unseen ^= frontier
        nb &= unseen
    return count


def _low(adj: tuple[int, ...], among: int, rest: int) -> int:
    """The vertices of ``among`` with at most one neighbour in ``rest``."""
    low = 0
    while among:
        b = among & -among
        if (adj[b.bit_length() - 1] & rest).bit_count() <= 1:
            low |= b
        among ^= b
    return low


def _split_trail(trail: list[int]) -> tuple[tuple[int, ...], ...]:
    """The legs of a ``_Engine.legs`` trail, each in path order."""
    legs: list[tuple[int, ...]] = []
    leg: list[int] = []
    for v in trail + [-2]:
        if v == -2:
            legs.append(tuple(leg))
            leg = []
        elif v == -1:  # the second half grows on from u
            leg.reverse()
        else:
            leg.append(v)
    return tuple(legs)


def check_legs_witness(g: Graph, legs: tuple[tuple[int, ...], ...], p: int,
                       attached: bool) -> bool:
    """Mechanical validation of a leg cover: at most ``p`` paths of ``g``
    that partition V, each attached one starting next to an earlier leg."""
    if len(legs) > p or sorted(v for leg in legs for v in leg) != list(range(g.n)):
        return False
    seen = 0
    for leg in legs:
        if not all(g.has_edge(a, b) for a, b in zip(leg, leg[1:])):
            return False
        if attached and seen and not g.adj[leg[0]] & seen:
            return False
        seen |= mask_of(leg)
    return True


def _checked(g: Graph, kind: tuple, r: SearchResult) -> SearchResult:
    """``r``, once its witness is checked to answer ``kind``: ("path",),
    ("cycle",), ("from", s), ("between", a, b), or a leg cover
    ("free" or "attached", p)."""
    if not r.is_yes:
        return r
    w, rule = r.witness, kind[0]
    if rule in ("free", "attached"):
        ok = check_legs_witness(g, w, kind[1], rule == "attached")
    else:
        ok = check_path_witness(g, w) and (
            rule == "path"
            or rule == "cycle" and g.has_edge(w[-1], w[0])
            or rule == "from" and w[0] == kind[1]
            or rule == "between" and (w[0], w[-1]) == kind[1:])
    require_witness(ok, f"answer to {kind}")
    return r


def _run(g: Graph, budget: SearchBudget,
         find: Callable[[_Engine], tuple | None]) -> SearchResult:
    """``find`` on a fresh engine, as a result."""
    engine = _Engine(g, budget)
    try:
        w = find(engine)
    except _BudgetExhausted:
        return SearchResult(Status.INDETERMINATE, nodes=engine.nodes)
    if w is None:
        return SearchResult(Status.NO, nodes=engine.nodes)
    return SearchResult(Status.YES, w, engine.nodes)


def has_ham_path_from(g: Graph, start: int,
                      budget: SearchBudget = UNLIMITED) -> SearchResult:
    """Hamiltonian path with a prescribed first vertex."""
    if not (0 <= start < g.n):
        raise GraphError(f"start vertex {start} out of range")
    if not is_connected(g):
        return SearchResult(Status.NO)
    return _checked(g, ("from", start),
                    _run(g, budget, lambda e: e.search([start], -1)))


def has_ham_path_between(g: Graph, a: int, b: int,
                         budget: SearchBudget = UNLIMITED) -> SearchResult:
    """Hamiltonian path from ``a`` to ``b``."""
    if a == b:
        raise GraphError("endpoints must be distinct")
    if not (0 <= a < g.n and 0 <= b < g.n):
        raise GraphError("endpoint out of range")
    if not is_connected(g):
        return SearchResult(Status.NO)
    return _checked(g, ("between", a, b),
                    _run(g, budget, lambda e: e.search([a], 1 << b)))


def has_ham_path(g: Graph, budget: SearchBudget = UNLIMITED) -> SearchResult:
    """Hamiltonian path, endpoints free.

    The anchored cycle driver answers it as a cycle through an implicit hub
    adjacent to every vertex: from each start s in ascending order it
    accepts only an end t > s, which halves the refutation work without
    losing any witness, and it skips the starts in the orbit of a failed
    one once the graph is labelled (see the module docstring).  A real hub
    would shift every mask by one bit, moving vertex 29 of a 30-vertex
    graph into a second CPython integer digit, and measured slower.
    """
    return _checked(g, ("path",), _ham_path(g, budget))


@lru_cache(maxsize=16)
def _ham_path(g: Graph, budget: SearchBudget) -> SearchResult:
    if g.n == 0 or not is_connected(g):
        return SearchResult(Status.NO)
    if g.n <= 2:  # connected, so listed in order
        return SearchResult(Status.YES, tuple(range(g.n)))
    return _run(g, budget,
                lambda e: e.anchored([], g.full_mask(), canonical_steps(g)))


def has_ham_cycle(g: Graph, budget: SearchBudget = UNLIMITED) -> SearchResult:
    """Hamiltonian cycle; witness lists each vertex once, closure implied.

    Anchored at vertex 0; the symmetry second-vertex < last-vertex halves
    the traversal directions.
    """
    if g.n < 3:
        raise GraphError("hamiltonian cycle needs at least 3 vertices")
    if not is_connected(g):
        return SearchResult(Status.NO)
    return _checked(g, ("cycle",),
                    _run(g, budget, lambda e: e.anchored([0], g.adj[0])))


def has_leg_cover(g: Graph, p: int, attached: bool = False,
                  budget: SearchBudget = UNLIMITED) -> SearchResult:
    """At most ``p`` vertex-disjoint paths covering V(g), the first through
    vertex 0; with ``attached`` each later one starts next to an earlier
    one.  The witness lists the legs in the order they were built."""
    if p < 1 or g.n == 0:
        raise GraphError("a leg cover needs a vertex and at least one leg")
    return _checked(g, ("attached" if attached else "free", p),
                    _legs(g, p, attached, budget))


@lru_cache(maxsize=16)
def _legs(g: Graph, p: int, attached: bool,
          budget: SearchBudget) -> SearchResult:
    return _run(g, budget, lambda e: e.legs(p, attached))


# --- J-cells --------------------------------------------------------------

_JCELL_SINGLE = (("a", "b"), ("c", "d"), ("a", "c"), ("b", "d"))


@dataclass(frozen=True)
class JcellReport:
    is_jcell: bool
    failing_condition: str | None = None


def _with_connector(g: Graph, b: int, c: int) -> Graph:
    """``g`` plus a new vertex ``g.n`` adjacent to exactly ``b`` and ``c``."""
    x = 1 << g.n
    adj = list(g.adj)
    adj[b] |= x
    adj[c] |= x
    adj.append(1 << b | 1 << c)
    return Graph(g.n + 1, tuple(adj))


def is_jcell(h: Graph, a: int, b: int, c: int, d: int,
             budget: SearchBudget = UNLIMITED) -> JcellReport:
    """Hsu-Lin terminal-quadruple recognition.

    Condition 1: (a,d) and (b,c) joined by hamiltonian paths.
    Condition 2: none of (a,b),(c,d),(a,c),(b,d) is joined by a
    hamiltonian path, and V(H) is not covered by two disjoint paths with
    end pairs ((a,b),(c,d)) or ((a,c),(b,d)).
    Condition 3: after deleting any single vertex, one of the condition-2
    pairs becomes good; pairs that lost an endpoint to the deletion are
    skipped.

    The two path pairs are decided together, as one hamiltonian a-d path
    in H plus a connector vertex x adjacent to exactly b and c.  Such a
    path passes through x, which has degree 2, as b-x-c or c-x-b; cutting
    it at x leaves a-..-b and c-..-d, or a-..-c and b-..-d.  Conversely
    either pair of paths joins up through x.  The vertex next to x on the
    way from a names the pair found.
    """
    if len({a, b, c, d}) != 4:
        raise GraphError("J-cell terminals must be distinct")
    names = {"a": a, "b": b, "c": c, "d": d}

    for u, v in ((a, d), (b, c)):
        r = has_ham_path_between(h, u, v, budget)
        if r.status is Status.INDETERMINATE:
            return JcellReport(False, "indeterminate")
        if not r.is_yes:
            return JcellReport(False, f"condition 1: pair ({u},{v}) not good")
    for x, y in _JCELL_SINGLE:
        r = has_ham_path_between(h, names[x], names[y], budget)
        if r.status is Status.INDETERMINATE:
            return JcellReport(False, "indeterminate")
        if r.is_yes:
            return JcellReport(False, f"condition 2: pair ({x},{y}) is good")
    r = has_ham_path_between(_with_connector(h, b, c), a, d, budget)
    if r.status is Status.INDETERMINATE:
        return JcellReport(False, "indeterminate")
    if r.is_yes:
        w = r.witness
        pair = "((a,b),(c,d))" if w[w.index(h.n) - 1] == b else "((a,c),(b,d))"
        return JcellReport(False, f"condition 2: pair {pair} is good")

    for v in range(h.n):
        keep = [u for u in range(h.n) if u != v]
        sub, mapping = induced_subgraph(h, keep)
        back = {orig: i for i, orig in enumerate(mapping)}
        found = False
        for x, y in _JCELL_SINGLE:
            u1, u2 = names[x], names[y]
            if u1 == v or u2 == v:
                continue
            r = has_ham_path_between(sub, back[u1], back[u2], budget)
            if r.status is Status.INDETERMINATE:
                return JcellReport(False, "indeterminate")
            if r.is_yes:
                found = True
                break
        if not found and v not in names.values():
            r = has_ham_path_between(_with_connector(sub, back[b], back[c]),
                                     back[a], back[d], budget)
            if r.status is Status.INDETERMINATE:
                return JcellReport(False, "indeterminate")
            found = r.is_yes
        if not found:
            return JcellReport(False, f"condition 3: no good pair in H-{v}")
    return JcellReport(True, None)
