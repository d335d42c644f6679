"""Exact hamiltonian path/cycle and path cover queries with structural
pruning.

One backtracking engine serves every query flavour: free endpoints, fixed
start, cycle closure, and path covers.  A path ends in an end mask: any
vertex after a fixed start, a neighbour of vertex 0 for a cycle (a path
from 0 that ends next to 0), and a choice outside ``done`` in the anchored
driver below.  Verdicts are exact; a node budget can cut a search short,
in which case the result is indeterminate rather than wrong.

Free-endpoint paths first take the rotation stage below, which can find a
path but never refutes one, and then, if it gives up, the anchored driver.
Fixed starts, cycles and leg covers take the engine alone.  The anchored
driver searches [s, ..., t] for each start s in ascending order and
accepts only a final t > s, so each path is found in one direction only.
This is a cycle through a hub adjacent to every vertex, cut open at the
hub; the hub stays implicit, because a real one would add a bit to every
mask.

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
until its units (n per colour refinement) cover the nodes the starts so far
would take without the dead-state table below.  So it runs at most one
refinement past the table-free nodes over n, though a refinement may sign
many times n vertices (see ``canonical_steps``), and a search cut by its
budget has not waited for it.  A labeling that finished comes back as
``SearchResult.labeling`` (else None), so a caller that needs the
canonical form need not label again.

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
5 µs per node on ``cycle_of_edge_deleted_petersen(10)`` (n = 100, NO at
25,963 nodes: 859 steps of the failed rotation stage, then 25,104 of the
anchored driver) and about 28 µs on ``cycle_of_edge_deleted_petersen(100)``
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
a budget cut unwinds the search without recording anything.  A leg key is
the state tuple.  A path key is one int, rest with cur set as a one-hot
field above it, ``rest | 1 << n + cur``, which a child's key reaches from
its parent's rest by one xor, and which no two states share for any n.
(rest, cur) tuples raised the ``verify-paper`` peak memory by 0.5 MB
(about 2.8 %) and gained no time.  Until a search has recorded something,
it looks nothing up.

A path state's value is its subtree size without the table.  Each frame
counts the nodes it expands plus the stored size of each state it skips
(``_Engine.credit`` sums those), and that count pays the labeling.  The
anchored driver keeps one table over its starts.  Each start's end mask
``full & ~done`` lies inside the one before, and a search under a smaller
end mask is the same tree with more kills and fewer accepted leaves, so a
state dead under one end mask is dead under every later one, though its
subtree there may be smaller.  So until the orbits are known, each start
records into and skips from a table of its own, merged into the query's
table once the start fails.  Every state it skips was then refuted under
its own end mask, and by induction on the order of recording each stored
size is exact: the start counts the nodes the table-free start takes, the
labeling finishes after the same start, and each start has the end mask
it would have without the table.  From then on the starts share the
table, and the sizes pay nothing.  Child order is unchanged and only
exhausted subtrees are skipped, so every query expands a subsequence of
the nodes the table-free search expands: the same status and witness,
never more nodes, and INDETERMINATE only where the table-free search is.
A NO is still the end of an exhaustive search.

A state is recorded only when at least ``_DEAD_MIN`` = 16 nodes, expanded
or credited, lie below it, because few recorded states are ever met again
(2,483 of 50,201 over the 19 fixture refutations) and each costs memory
until its query ends.  Over one ``verify_paper_artifacts`` pass the table
holds 16 entries per 100 expanded nodes, at most 8,531 in one query: a
dict of 288 KB plus 267 KB of keys and 16 KB of sizes above 256 (smaller
ones are shared).  The fixture refutations took 292,115 nodes at a
threshold of 0, 309,435 at 16, 339,638 at 32 and 371,211 at 64, whose
largest tables held 31,360, 8,531, 4,984 and 2,435 keys; 452,644 without
the table.  A leg state's value is None.  The ml ladder of the
caterpillar of 8 gadgets (n = 46, 2M nodes) refutes 6 attached legs in
1,488,790 nodes, leaving 108,361 keys, whose tuples cost about 57 bytes a
key (6 MB of its 44 MB peak) more than packed ints.

The rotation stage (``_Engine.rotations``) is Pósa's rotation-extension
(Discrete Math. 14, 1976).  Almost all cubic graphs are hamiltonian
(Robinson & Wormald, RSA 5, 1994), and on random ones it finds a path in
nearly linear time, where the anchored driver's backtracking is
heavy-tailed.  The path starts at vertex 0, and its end extends to the
unvisited neighbour with the fewest unvisited neighbours, the lowest on a
tie.  A stuck end v_k with a neighbour v_j, j < k - 1, rotates the path to
v_0 ... v_j v_k v_{k-1} ... v_{j+1}, whose end is v_{j+1}.  A rotation
whose new end has an unvisited neighbour is preferred, and a fixed xorshift
sequence picks among the candidates, so a graph always gets the same path.
When no rotation helps, the path is reversed; when the other end does not
help either, a rotation is picked among all.  After ``_TURNS`` * n = 8n
turns (rotations and reversals) the stage gives up, so it takes fewer than
9n steps.  Each extension and each turn is one node against the budget, so
a cut inside the stage is INDETERMINATE like any other, and the steps do
not pay the labeling.  When the stage gives up, the anchored driver runs
unchanged with the budget that is left, and the result's nodes are the
stage's steps plus the driver's.  A stage witness returns through
``_checked`` like any other.  The stage found a path on all 2,340 random
2-connected cubic graphs of the ``analyze-stream`` seeds 1-4 (n 20-44),
after a median of one turn and at most 170, and on every cubic graph of 4
to 14 vertices; random cubic graphs of 500-600 vertices took at most 3n
turns.  It gives up on the 19 non-traceable fixtures after 4,847 steps in
all, about 8 ms.

``has_ham_path`` keeps its last 16 answers (``functools.lru_cache``),
keyed by the graph and the budget.  The engine is deterministic, so a kept
answer, INDETERMINATE included, is what a fresh search would return, and
every query returns through ``_checked``, so each YES witness is checked,
kept or fresh.  One ``verify_paper_artifacts`` pass asks 23 paths, so a
repeated pass searches again, as each CLI run does.  No CLI command is
served from it, because ``analyze`` passes its answers down; callers that
ask layer by layer are.  Leg covers
are not kept: on a seeded stream of 594 cubic graphs (n 20-44), asked
layer by layer and then through the cover pipeline, the only repeated leg
question was the mu rung that ``run_cover_procedure`` asks after
``path_cover_number``, on 7 graphs at 30-2,938 nodes each, about 6 ms of
CPU time in all.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from functools import lru_cache
from typing import Callable, Iterator

from .graph import (
    Graph,
    GraphError,
    bits,
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
    """Optional cap on search nodes, the engine's expanded nodes and the
    rotation stage's steps; absent means exhaustive."""

    max_nodes: int | None = None


UNLIMITED = SearchBudget()


@dataclass(frozen=True)
class SearchResult:
    status: Status
    witness: tuple | None = None  # a path, or the legs of a leg cover
    nodes: int = 0
    # the labeling the anchored driver finished, else None; not compared
    labeling: CanonicalData | None = field(default=None, compare=False,
                                           repr=False)

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


_DEAD_MIN = 16  # nodes below a refuted state before the table keeps it
_TURNS = 8  # rotation-extension turns per vertex before it gives up
_XORSHIFT_SEED = 2463534242  # picks among rotations, the same each query


class _Engine:
    def __init__(self, g: Graph, budget: SearchBudget):
        self.g = g
        self.adj = g.adj
        self.full = g.full_mask()
        self.max_nodes = budget.max_nodes
        self.nodes = 0
        self.credit = 0  # nodes the skipped path states would have taken
        # refuted states; a path state's value is its table-free subtree size
        self.dead: dict[int | tuple, int | None] = {}
        self.labeling: CanonicalData | None = None  # once it has finished

    def anchored(self) -> tuple[int, ...] | None:
        """Hamiltonian path [s, ..., t], trying each start s in ascending
        order and t only outside ``done``: the starts tried so far and, once
        the graph's labeling has finished, their orbits.  After each failed
        start the labeling is stepped by as many units as that start's
        search would take nodes without the table.  Until the labeling has
        finished, each start records into a table of its own, merged into
        the query's table once the start fails (see the module
        docstring)."""
        labeling = canonical_steps(self.g)
        done = 0
        classes: list[int] | None = None  # orbit masks, once labelled
        owed = 0
        kept = self.dead
        for s in bits(self.full):
            if done >> s & 1:
                continue
            done |= 1 << s
            end_mask = self.full & ~done
            if not end_mask:
                break
            before = self.nodes + self.credit
            if classes is None:
                self.dead = {}
            w = self.search(s, end_mask)
            if w is not None:
                return w
            if classes is None:
                kept.update(self.dead)
                owed += self.nodes + self.credit - before
                try:
                    while owed > 0:
                        owed -= next(labeling)
                except StopIteration as stop:
                    self.labeling = stop.value
                    classes = _orbit_masks(stop.value.orbit)
                    self.dead = kept
            if classes is not None:
                for c in classes:
                    if c & done:
                        done |= c
        return None

    def rotations(self) -> tuple[int, ...] | None:
        """A hamiltonian path by rotation-extension from vertex 0, or None
        after ``_TURNS`` * n turns (see the module docstring).  Each
        extension and each turn is one node; None is never a NO."""
        adj = self.adj
        max_nodes = self.max_nodes
        nodes = self.nodes
        turns = _TURNS * len(adj)
        x = _XORSHIFT_SEED
        path = [0]
        rest = self.full ^ 1
        flipped = False  # the last step reversed the path
        while rest:
            end = path[-1]
            nb = adj[end] & rest
            if not nb:
                if not turns:
                    self.nodes = nodes
                    return None
                turns -= 1
            nodes += 1
            if max_nodes is not None and nodes > max_nodes:
                self.nodes = nodes
                raise _BudgetExhausted
            if nb:  # extend to the neighbour with the fewest unvisited ones
                best, fewest = 0, len(adj)
                while nb:
                    b = nb & -nb
                    d = (adj[b.bit_length() - 1] & rest).bit_count()
                    if d < fewest:
                        best, fewest = b, d
                    nb ^= b
                path.append(best.bit_length() - 1)
                rest ^= best
                flipped = False
                continue
            # Stuck: end's neighbour p = path[i - 1], not its predecessor,
            # rotates path[i:] and makes path[i] the end.
            helpful, others = [], []
            for p in bits(adj[end] & ~(1 << path[-2])):
                i = path.index(p) + 1
                (helpful if adj[path[i]] & rest else others).append(i)
            if not helpful and not (flipped and others):
                path.reverse()
                flipped = True
                continue
            flipped = False
            x ^= x << 13 & 0xFFFFFFFF
            x ^= x >> 17
            x ^= x << 5 & 0xFFFFFFFF
            cands = helpful or others
            i = cands[x % len(cands)]
            path[i:] = path[:i - 1:-1]
        self.nodes = nodes
        return tuple(path)

    def search(self, start: int, end_mask: int) -> tuple[int, ...] | None:
        """A hamiltonian path of the connected graph from ``start`` that
        ends in ``end_mask``, or None.  The unvisited rest is scanned for
        low-degree vertices once, before the root; every node then only
        looks around the vertex just added (see the module docstring).
        Each frame keeps the count of nodes and credit at its expansion, so
        a frame popped after ``_DEAD_MIN`` more is recorded with its
        table-free subtree size, which a skip of it credits."""
        adj = self.adj
        max_nodes = self.max_nodes
        nodes = self.nodes
        credit = self.credit
        dead = self.dead
        dead_min = _DEAD_MIN
        n = len(adj)
        # rest ^ flip[v] moves v from rest to a one-hot field above it
        flip = [1 << v | 1 << n + v for v in range(n)]
        rest = self.full ^ 1 << start
        if rest == 0:
            return (start,)
        low = _low(adj, rest, rest)  # unvisited, residual degree <= 1
        cur = start
        path = [start]
        stack: list[tuple[int, int, int, Iterator[tuple[int, int]]]] = []
        while True:
            nodes += 1
            if max_nodes is not None and nodes > max_nodes:
                self.nodes, self.credit = nodes, credit
                raise _BudgetExhausted
            cur_adj = adj[cur]
            nb = cur_adj & rest
            kids: list[tuple[int, int]] = []
            if not rest & (rest - 1):  # single vertex left
                if nb & end_mask:
                    path.append(rest.bit_length() - 1)
                    self.nodes, self.credit = nodes, credit
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
                stack.append((rest, low, nodes + credit, iter(kids)))
            else:
                path.pop()
            while stack:
                rest, low, start, it = stack[-1]
                kid = next(it, None)
                if kid is None:
                    stack.pop()
                    below = nodes + credit - start
                    if below >= dead_min:
                        dead[rest | 1 << n + path.pop()] = below + 1
                    else:
                        path.pop()
                    continue
                cur = kid[1]
                if not dead or rest ^ flip[cur] not in dead:
                    break
                credit += dead[rest ^ flip[cur]]
            else:
                self.nodes, self.credit = nodes, credit
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
                        dead[rest, left, phase, u, a1, cur] = None
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
                if not dead or (rest, left, phase, u, a1, cur) not in dead:
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
    """One pass of mask operations: are ``legs`` at most ``p`` non-empty
    paths of ``g`` partitioning V, each attached one next to an earlier leg?"""
    adj, n = g.adj, g.n
    seen = 0
    for leg in legs:
        before, step = seen, -1  # any vertex may start a leg
        for v in leg:
            if not 0 <= v < n or seen >> v & 1 or not step >> v & 1:
                return False
            seen |= 1 << v
            step = adj[v]
        if not leg or attached and before and not adj[leg[0]] & before:
            return False
    return seen == g.full_mask() and len(legs) <= p


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
    """``find`` on a fresh engine, as a result, with the labeling the
    engine finished."""
    engine = _Engine(g, budget)
    try:
        w = find(engine)
        status = Status.NO if w is None else Status.YES
    except _BudgetExhausted:
        w, status = None, Status.INDETERMINATE
    return SearchResult(status, w, engine.nodes, engine.labeling)


def has_ham_path_from(g: Graph, start: int,
                      budget: SearchBudget = UNLIMITED) -> SearchResult:
    """Hamiltonian path with a prescribed first vertex."""
    if not (0 <= start < g.n):
        raise GraphError(f"start vertex {start} out of range")
    if not g.connected:
        return SearchResult(Status.NO)
    return _checked(g, ("from", start),
                    _run(g, budget, lambda e: e.search(start, -1)))


def has_ham_path(g: Graph, budget: SearchBudget = UNLIMITED) -> SearchResult:
    """Hamiltonian path, endpoints free.

    The rotation stage looks for one first, in fewer than 9n steps, and
    never refutes; a path it finds carries no ``labeling``.  When it gives
    up, the anchored driver answers with the budget left, as a cycle
    through an implicit hub adjacent to every vertex: from each start s in
    ascending order it accepts only an end t > s, which halves the
    refutation work without losing any witness, and it skips the starts in
    the orbit of a failed one once the graph is labelled (see the module
    docstring), and returns that labeling as ``labeling`` when it finished.
    A real hub would shift every mask by one bit, moving vertex 29 of a
    30-vertex graph into a second CPython integer digit, and measured
    slower.
    """
    return _checked(g, ("path",), _ham_path(g, budget))


@lru_cache(maxsize=16)
def _ham_path(g: Graph, budget: SearchBudget) -> SearchResult:
    if g.n == 0 or not g.connected:
        return SearchResult(Status.NO)
    if g.n <= 2:  # connected, so listed in order
        return SearchResult(Status.YES, tuple(range(g.n)))
    return _run(g, budget, lambda e: e.rotations() or e.anchored())


def has_ham_cycle(g: Graph, budget: SearchBudget = UNLIMITED) -> SearchResult:
    """Hamiltonian cycle; witness lists each vertex once, closure implied.

    A hamiltonian path from vertex 0 that ends next to 0.
    """
    if g.n < 3:
        raise GraphError("hamiltonian cycle needs at least 3 vertices")
    if not g.connected:
        return SearchResult(Status.NO)
    return _checked(g, ("cycle",),
                    _run(g, budget, lambda e: e.search(0, g.adj[0])))


def has_leg_cover(g: Graph, p: int, attached: bool = False,
                  budget: SearchBudget = UNLIMITED) -> SearchResult:
    """At most ``p`` vertex-disjoint paths covering V(g), the first through
    vertex 0; with ``attached`` each later one starts next to an earlier
    one.  The witness lists the legs in the order they were built."""
    if p < 1 or g.n == 0:
        raise GraphError("a leg cover needs a vertex and at least one leg")
    return _checked(g, ("attached" if attached else "free", p),
                    _run(g, budget, lambda e: e.legs(p, attached)))
