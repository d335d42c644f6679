"""Exact hamiltonian path/cycle and path cover queries with structural
pruning.

One backtracking engine serves every query flavour: free endpoints, fixed
start, cycle closure, and path covers.  A path ends in an end mask: any
vertex after a fixed start, a neighbour of vertex 0 for a cycle (a path
from 0 that ends next to 0), and a choice outside ``done`` in the anchored
driver below.  Verdicts are exact; a node budget can cut a search short,
in which case the result is indeterminate rather than wrong.

Free-endpoint paths take the anchored driver.  It searches [s, ..., t] for
each start s in ascending order and accepts only a final t > s, so each
path is found in one direction only.  This is a cycle through a hub
adjacent to every vertex, cut open at the hub; the hub stays implicit,
because a real one would add a bit to every mask.

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
refinement, and a search cut by its budget has not waited for it.

Pruning at every node (Rubin, JACM 1974; Vandegriend & Culberson, JAIR
1998):
  * the unvisited vertices must induce a connected graph;
  * unvisited vertices with residual degree <= 1 must be endpoints of the
    remaining path, so more than two of them (or an infeasible assignment
    of first/last roles) kills the branch;
  * children are tried in order of (residual degree, vertex).

The mask of residual-degree-<=1 vertices is passed down the search:
degrees only fall, and only at the neighbours of the vertex just added, so
a child refreshes the mask there.  Every search starts from one vertex of
a connected graph, and each node's parent has shown that the rest plus the
current vertex is connected, so the rest is connected iff the current
vertex's neighbours in it form one piece (``graph.pieces``, written out
inline): the spread stops once it has reached them all and is skipped
when there is at most one.  The kill is sound on any graph; only the
connected start makes it complete.  The spread is not local: on a ring of
blocks the only way round is often the whole ring, so the cost per node
grows with n.  Under a 50,000-node budget ``has_ham_path`` takes about
6 µs per node on ``cycle_of_edge_deleted_petersen(10)`` (n = 100, NO at
33,088 nodes) and about 35 µs on ``cycle_of_edge_deleted_petersen(100)``
(n = 1,000, INDETERMINATE), in CPU time on a 2-core Xeon under
CPython 3.11.  The search runs on an explicit stack, so path length is not
bounded by the recursion limit.

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
if it has an unvisited neighbour).  Each of them covers part of one
component of the unvisited rest and has at most two vertices of residual
degree <= 1, so a node dies when the rest has more than L + e components
or more than 2(L + e) such vertices.  Children go by (residual degree,
vertex), then "end".  The component count is kept like the low mask,
around the vertex just added, by ``pieces`` over its unvisited neighbours.

Each query keeps a table of dead states, whose whole subtree it has
searched without a witness: the subset DP of Bellman (JACM 1962) and Held &
Karp (SIAM J. 1962), run lazily inside the branch search.  A path search's
state is (rest, cur), the unvisited rest and the vertex it stands on; the
low mask, the connectivity check and every kill are functions of them and
of the end mask.  A leg search's state is (rest, left, phase, u, a1, cur);
``low``, ``comps`` and ``reach`` are functions of rest.  A search records a
state when it pops the state's node, and skips a child whose state is
recorded.  Budgets count expanded nodes, so a skipped child costs none, and
a budget cut unwinds the search without recording anything.  A key is one
int, and no two states share a key for any n: a path key is rest with cur
set as a one-hot field above it, ``rest | 1 << n + cur``, which a child's
key reaches from its parent's rest by one xor; a leg key puts rest above
(left, phase), packed in ``(3 p).bit_length()`` bits, and u, a1 + 1 and
cur, in ``n.bit_length()`` bits each.  Until a search has recorded
something, it looks nothing up.

The anchored driver keeps one table over its starts.  Each start's end mask
``choices & ~done`` lies inside the one before, and a search under a smaller
end mask is the same tree with more kills and fewer accepted leaves, so a
state dead under one end mask is dead under every later one.  The driver
skips nothing until the orbits are known, so until then it takes the nodes,
and pays the labeling the units, that it would take without the table; from
then on each start has the end mask it would have without the table.
Child order is unchanged and only exhausted subtrees are skipped, so every
query expands a subsequence of the nodes the table-free search expands: the
same status and witness, never more nodes, and INDETERMINATE only where the
table-free search is.  A NO is still the end of an exhaustive search.  (A
table that skipped from the first start could pay the labeling less per
start and so learn the orbits one start later: at the same threshold it
refuted ``nontraceable_28_c2_09`` in 2,992 nodes against 2,982 without the
table.)

A state is recorded only when at least ``_DEAD_MIN`` = 64 nodes were
expanded below it, because few recorded states are ever met again (367 of
12,918 over the 19 fixture refutations) and each costs memory until its
query ends.  Over one ``verify_paper_artifacts`` pass the table holds 3.4
entries per 100 expanded nodes, at most 2,234 in one query: a dict of 74 KB
plus 71 KB of keys.  A threshold of 32 cut the fixture refutations from
452,644 to 359,014 nodes (64: 383,261), but its largest table held 4,358
keys, and with a set for the table a perfbench ``verify-paper`` run read
1.4 % more peak RSS than without one (0.7 % at 64).  The table is a dict
with None values, not a set, because CPython grows a set fourfold and a
dict threefold: at 2,234 keys the dict takes 74 KB and a set 131 KB.

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
    is_connected,
    mask_of,
    pieces,
    require_witness,
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


_DEAD_MIN = 64  # nodes below a refuted state before the table keeps it


class _Engine:
    def __init__(self, g: Graph, budget: SearchBudget):
        self.adj = g.adj
        self.full = g.full_mask()
        self.max_nodes = budget.max_nodes
        self.nodes = 0
        self.dead: dict[int, None] = {}  # keys of refuted states
        self.skip = self.dead  # the keys a search skips

    def anchored(self, choices: int,
                 labeling: Generator[int, None, CanonicalData]
                 ) -> tuple[int, ...] | None:
        """Hamiltonian path [s, ..., t] with s and t in ``choices``, trying
        each s in ascending order and t only outside ``done``: the starts
        tried so far and, once ``labeling`` has finished, their orbits.
        After each failed start the labeling is stepped by as many units as
        that start's search took nodes.  The searches record dead states
        from the first start but skip them only once the orbits are known
        (see the module docstring)."""
        done = 0
        classes: list[int] | None = None  # orbit masks, once labelled
        credit = 0
        self.skip = {}  # nothing until the orbits are known
        for s in bits(choices):
            if done >> s & 1:
                continue
            done |= 1 << s
            end_mask = choices & ~done
            if not end_mask:
                break
            before = self.nodes
            w = self.search([s], end_mask)
            if w is not None:
                return w
            if classes is None:
                credit += self.nodes - before
                try:
                    while credit > 0:
                        credit -= next(labeling)
                except StopIteration as stop:
                    classes = _orbit_masks(stop.value.orbit)
                    self.skip = self.dead
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
        misses ``end_mask`` is dead.  The unvisited rest is scanned for
        low-degree vertices once, before the root; every node then only
        looks around the vertex just added (see the module docstring).
        Callers pass one vertex of a connected graph as ``path``.  Each
        frame keeps the node count at its expansion, so that a frame popped
        after ``_DEAD_MIN`` more nodes is recorded.
        """
        adj = self.adj
        max_nodes = self.max_nodes
        nodes = self.nodes
        dead = self.dead
        skip = self.skip
        dead_min = _DEAD_MIN
        n = len(adj)
        # rest ^ flip[v] moves v from rest to a one-hot field above it
        flip = [1 << v | 1 << n + v for v in range(n)]
        rest = self.full & ~mask_of(path)
        if rest == 0:
            return tuple(path)
        low = _low(adj, rest, rest)  # unvisited, residual degree <= 1
        cur = path[-1]
        stack: list[tuple[int, int, int, Iterator[tuple[int, int]]]] = []
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
                stack.append((rest, low, nodes, iter(kids)))
            else:
                path.pop()
            while stack:
                rest, low, start, it = stack[-1]
                kid = next(it, None)
                if kid is None:
                    stack.pop()
                    if nodes - start >= dead_min:
                        dead[rest | 1 << n + path.pop()] = None
                    else:
                        path.pop()
                    continue
                cur = kid[1]
                if not skip or rest ^ flip[cur] not in skip:
                    break
            else:
                self.nodes = nodes
                return None
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
        comps = pieces(adj, rest, rest)
        reach = adj[0]
        left, phase, u, cur, a1 = p - 1, 1, 0, 0, -1
        dead = self.dead
        dead_min = _DEAD_MIN
        w = len(adj).bit_length()  # holds any of 0 .. n
        # (left, phase, u, a1 + 1, cur) below rest, in this many bits
        lbits = (3 * p).bit_length() + 3 * w
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
                              cur, len(trail), nodes, iter(kids)))
            while stack:
                (rest, low, comps, reach, left, phase, u, a1, cur, depth,
                 start, it) = stack[-1]
                kid = next(it, None)
                if kid is None:
                    stack.pop()
                    if nodes - start >= dead_min:
                        dead[_leg_key(rest, left, phase, u, a1, cur, w,
                                      lbits)] = None
                    continue
                v = kid[1]
                if v < 0:
                    if phase == 1 and cur != u:  # turn back to grow from u
                        phase, cur = 2, u
                    else:  # close the leg
                        phase = 0
                else:
                    if not phase:
                        left -= 1
                        phase, u, a1 = 2 if attached else 1, v, -1
                    elif phase == 1 and cur == u:
                        a1 = v
                    cur = v
                    rest ^= 1 << v
                if not dead or _leg_key(rest, left, phase, u, a1, cur, w,
                                        lbits) not in dead:
                    break
            else:
                self.nodes = nodes
                return None
            del trail[depth:]
            if v < 0:
                trail.append(-1 if phase else -2)
                continue
            trail.append(v)
            low &= rest
            reach |= adj[v]
            nb = adj[v] & rest
            low |= _low(adj, nb, rest)
            comps += pieces(adj, nb, rest) - 1


def _leg_key(rest: int, left: int, phase: int, u: int, a1: int, cur: int,
             w: int, lbits: int) -> int:
    """One int for a leg search state: the small fields in ``lbits`` low
    bits, each vertex number (and a1 + 1) in ``w`` bits, rest above."""
    small = (((left * 3 + phase) << w | u) << w | a1 + 1) << w | cur
    return rest << lbits | small


def _orbit_masks(orbit: tuple[int, ...]) -> list[int]:
    """The vertex mask of each orbit, from ``CanonicalData.orbit``."""
    masks: dict[int, int] = {}
    for v, root in enumerate(orbit):
        masks[root] = masks.get(root, 0) | 1 << v
    return list(masks.values())


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
    ("cycle",), ("from", s), or a leg cover ("free" or "attached", p)."""
    if not r.is_yes:
        return r
    w, rule = r.witness, kind[0]
    if rule in ("free", "attached"):
        ok = check_legs_witness(g, w, kind[1], rule == "attached")
    else:
        ok = check_path_witness(g, w) and (
            rule == "path"
            or rule == "cycle" and g.has_edge(w[-1], w[0])
            or rule == "from" and w[0] == kind[1])
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


def has_ham_path(g: Graph, budget: SearchBudget = UNLIMITED) -> SearchResult:
    """Hamiltonian path, endpoints free.

    The anchored driver answers it as a cycle through an implicit hub
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
                lambda e: e.anchored(g.full_mask(), canonical_steps(g)))


def has_ham_cycle(g: Graph, budget: SearchBudget = UNLIMITED) -> SearchResult:
    """Hamiltonian cycle; witness lists each vertex once, closure implied.

    A hamiltonian path from vertex 0 that ends next to 0.
    """
    if g.n < 3:
        raise GraphError("hamiltonian cycle needs at least 3 vertices")
    if not is_connected(g):
        return SearchResult(Status.NO)
    return _checked(g, ("cycle",),
                    _run(g, budget, lambda e: e.search([0], g.adj[0])))


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

