"""Isomorph-free exhaustive generation of small cubic and {2,3}-degree graphs.

Canonical augmentation: graphs grow one vertex at a time, the new vertex
attaching to one, two or three older vertices of degree below 3, so every
intermediate state is a connected graph with maximum degree at most 3.  A
child survives exactly when its newest vertex lies in the automorphism
orbit of a canonically chosen deletable vertex, which guarantees that each
isomorphism class of states is reached through exactly one parent and one
attachment orbit — no global seen-set is needed.

The canonical choice is: among the vertices whose removal keeps the graph
connected, minimise first the pair seed (``pair_seeds``: degree, then the
counts of common-neighbour and adjacency codes against every other
vertex, packed into one int), then the colour refined from the seeds,
then the position in a canonical labeling.  Each child meets the exact
tests in order of cost, and the first that decides it ends the work on it:

1. degree sum: decided once per attachment size for a cubic target;
2. degree: k, the new vertex, and the parent's non-cut vertices stay
   deletable, so one of them of lower degree rejects k;
2b. degree game, for a cubic target with slots left (``_live``): every
   accepted descendant's new vertex has the least seed among the
   deletable vertices, and seeds lead with degree.  So a leaf is never
   left beside a new vertex of degree 2 or 3, nor a surely non-cut vertex
   of degree 2 beside one of degree 3.  Played on the child's counts of
   leaves, of degree-2 vertices known to be non-cut and of the other
   degree-2 vertices, with every uncertain vertex on the side that forbids
   fewer moves, the game allows every accepted step; a child from which
   no sequence of moves fills every degree within the remaining vertices
   emits nothing, and is dropped;
3. seeds: the child's follow from the parent's in O(n) (``_child_seeds``);
   one of those vertices of lower seed rejects;
4. lookahead, for a cubic target and a child on n - 1 vertices: the child
   has exactly three vertices of degree 2, so its only child joins vertex
   n - 1 to them.  That grandchild's seeds follow from the child's, and
   one of k and the parent's non-cut vertices (all non-cut in the child)
   of lower seed than n - 1 drops the child: the child's own growth would
   run this test first and emit nothing;
5. cut mask: ``_deletable``, then a deletable vertex of lower seed rejects;
6. colours: ``seeded_colors``, only when the least seed is tied;
7. labeling: ``canonical_data``, only when the least colour is tied.

An accepted child keeps what its test computed, and its own children are
tried from that: the cut mask (a child's cut vertices are its parent's that
still cut, plus the neighbour of a pendant new vertex, so no DFS runs), the
seeds, the colours and the canonical data when they were computed.

Attachment sets are deduplicated up to Aut(g) lazily.  They are tried in
``combinations`` order, and an automorphism of g, extended to fix k, maps
the child of a set onto the child of its image, so a set and its images
get the same decision.  Only an accepted set can therefore be a duplicate
(McKay, *Isomorph-free exhaustive generation*, J. Algorithms 26, 1998):
an accepted set is compared with the sets accepted before it, first by
the sorted seeds of its members, then by their colours.  Both are
invariant under Aut(g), so a set that differs on either from every
earlier accepted set lies in none of their orbits, and only a tie on
both computes g's labeling (once).  From then on every set tried so
far and every later one has its orbit closed under the generators, and a
set already in a closed orbit is skipped.  The first set of each accepted
orbit is thus the one that grows, in the same order as when the orbits
were closed up front; a rejected set's images are merely tested again.
When the parent's test already labeled g, the orbits are closed from the
start.

Intended scale: cubic up to n = 20, degree-{2,3} up to n = 13.
"""

from __future__ import annotations

from functools import cache
from itertools import combinations
from typing import Callable

from .graph import Graph, GraphError, bits, mask_of, pieces, \
    vertex_connectivity_capped
from .isomorphism import CanonicalData, canonical_data, \
    pair_seeds as _pair_seeds, seed_places, seeded_colors as _seeded_colors

Sink = Callable[[Graph], None]

GENERATOR_MAX_CUBIC = 20
GENERATOR_MAX_DEG23 = 13


def _deletable(g: Graph, cuts: int,
               combo: tuple[int, ...]) -> tuple[int, list[int]]:
    """Cut mask and non-cut vertices of ``g``, whose newest vertex was
    attached to ``combo`` in a parent with cut mask ``cuts``.

    A pendant vertex makes its neighbour a cut vertex (once a third vertex
    exists) and leaves every other vertex as it was.  A vertex with two or
    more neighbours only joins blocks, so cut vertices can only disappear:
    each parent cut vertex w stays one exactly when ``g`` - w is
    disconnected.  Each piece of the connected ``g`` - w holds a neighbour
    of w, so the spread stops once it has reached them all.
    """
    if len(combo) == 1:
        if g.n > 2:
            cuts |= 1 << combo[0]
    elif cuts:
        adj, full = g.adj, g.full_mask()
        cuts = mask_of(w for w in bits(cuts)
                       if pieces(adj, adj[w], full ^ 1 << w) > 1)
    return cuts, [v for v in range(g.n) if not cuts >> v & 1]


def _feasible(need: int, slots: int, min_final_deg: int) -> bool:
    """Can the remaining ``slots`` vertices cover ``need``, the sum of
    ``min_final_deg`` - degree over the existing vertices below it?

    The caller checks that no vertex lacks more than ``slots`` edges, one
    per future vertex.  For a cubic target the future vertices carry
    3 * slots degree: ``need`` of it goes to existing vertices, and the rest
    pairs up among the future vertices, at most one edge per pair.  The
    first future vertex needs an existing neighbour, so ``need`` is
    positive while slots remain.
    """
    if need > 3 * slots:
        return False
    if min_final_deg != 3:
        return True
    # need changes by the odd 3 - 2d per added vertex: it shares parity
    # with the remaining vertices
    return ((need - slots) % 2 == 0 and 3 * slots - need <= slots * (slots - 1)
            and (need > 0 or slots == 0))


@cache
def _live(leaves: int, free2: int, other2: int, slots: int) -> bool:
    """Can ``slots`` more accepted children complete a state with
    ``leaves`` vertices of degree 1, ``free2`` non-cut vertices of degree 2
    and ``other2`` further vertices of degree 2 to a cubic graph?

    A move attaches a new vertex to d distinct deficient vertices, and it
    is legal when it leaves no vertex of degree below d that is surely
    non-cut: a leaf, or a ``free2`` vertex.  Leaves are never cut vertices;
    a new vertex of degree 2 is non-cut; a leaf that a non-pendant vertex
    joins stays non-cut; every non-cut vertex stays non-cut but for the
    neighbour of a pendant, which moves to ``other2``.  No deletable vertex
    has a lower degree than an accepted child's new vertex, so every
    accepted step is a legal move, and a state with no winning sequence of
    moves emits nothing (see the module docstring).

    The cache is keyed by four small ints and holds no graph data: 767
    entries after ``generate_cubic(14)``, 1,257 after n = 16.  A run with a
    cold cache timed the same as one with a warm cache, so a benchmark
    that repeats a run in one process times the same work.
    """
    if not slots:
        return not (leaves or free2 or other2)
    s = slots - 1
    # d = 1: a joined leaf becomes a cut vertex, a joined degree-2 vertex
    # is completed, and the new vertex is a leaf
    if (leaves and _live(leaves, free2, other2 + 1, s)
            or free2 and _live(leaves + 1, free2 - 1, other2, s)
            or other2 and _live(leaves + 1, free2, other2 - 1, s)):
        return True
    # d = 2: every leaf is joined and stays non-cut, as does the new vertex
    if leaves <= 2:
        rest = 2 - leaves
        for b in range(max(0, rest - other2), min(rest, free2) + 1):
            if _live(0, free2 - b + leaves + 1, other2 - rest + b, s):
                return True
    # d = 3: no leaf, and every free2 vertex completed
    return (not leaves and free2 <= 3 <= free2 + other2
            and _live(0, 0, other2 + free2 - 3, s))


# every state has fewer than 32 vertices and maximum degree at most 3, so
# its seeds share one set of place values
_DEGREE_PLACE, *_CODE_PLACES = seed_places(GENERATOR_MAX_CUBIC, 3)
# a seed's change when a pair of code c gains a common neighbour
_MORE_COMMON = [_CODE_PLACES[c] - _CODE_PLACES[c + 2] for c in range(6)]


def _child_seeds(g: Graph, seeds: list[int],
                 combo: tuple[int, ...]) -> list[int]:
    """``pair_seeds`` of ``g`` plus a vertex k joined to ``combo``, from
    ``seeds`` = ``pair_seeds(g)`` in O(n).

    The only pair codes that change are each old vertex's new code with k,
    the codes inside ``combo`` (one more common neighbour: + 2), and the
    degrees of ``combo``; each change adds or removes one place value.
    """
    adj = g.adj
    places = _CODE_PLACES
    mask = sum(1 << v for v in combo)
    out = []
    new = (len(combo) + 1) * _DEGREE_PLACE - 1
    for u, s in enumerate(seeds):
        au = adj[u]
        code = (au & mask).bit_count() << 1 | (mask >> u & 1)
        p = places[code]
        new -= p
        s -= p
        if code & 1:
            s += _DEGREE_PLACE
            for v in combo:
                if v != u:
                    s += _MORE_COMMON[
                        (au & adj[v]).bit_count() << 1 | (au >> v & 1)]
        out.append(s)
    out.append(new)
    return out


def _close_orbit(key: frozenset[int], autos: tuple[tuple[int, ...], ...],
                 seen: set[frozenset[int]]) -> None:
    """Add ``key`` and its images under the group ``autos`` generates."""
    seen.add(key)
    todo = [key]
    while todo:
        part = todo.pop()
        for perm in autos:
            img = frozenset([perm[v] for v in part])
            if img not in seen:
                seen.add(img)
                todo.append(img)


def _grow(g: Graph, nbrs: list[tuple[int, ...]], cuts: int,
          seeds: list[int], colors: tuple[int, ...] | None,
          data: CanonicalData | None, n: int, min_final_deg: int,
          emit: Sink) -> None:
    """Extend the accepted state ``g`` by every canonical child.

    ``cuts``, ``seeds``, ``colors`` and ``data`` are the facts the parent's
    acceptance test computed for ``g``; ``colors`` and ``data`` are None
    when that test did not need them.
    """
    k = g.n
    if k == n:
        # the last child passed the degree tests with no slots left, so
        # every degree already meets min_final_deg
        emit(g)
        return
    degs = [len(nb) for nb in nbrs]
    deficient = [v for v in range(k) if degs[v] < 3]
    nd = len(deficient)
    slots_left = n - k - 1
    cubic = min_final_deg == 3
    # a cubic child on n - 1 vertices has exactly three vertices of degree
    # 2, and its one child joins vertex n - 1 to them
    forced = cubic and slots_left == 1
    need = 3 * k - sum(degs)
    # the parent's non-cut vertices stay deletable in every child, but for
    # the neighbour of a pendant k, which never has a lower degree than k
    free = [v for v in range(k) if not cuts >> v & 1]
    if cubic and slots_left:
        # the parent's side of the children's degree game (``_live``)
        leaves = degs.count(1)
        free2 = sum(1 for v in free if degs[v] == 2)
        other2 = degs.count(2) - free2
    # attachment sets are deduplicated up to Aut(g) lazily (see the module
    # docstring): until the generators are known, ``tried`` keeps every
    # set tried and ``accepted`` each accepted set with its sorted seeds
    autos = data.automorphisms if data is not None else None
    seen: set[frozenset[int]] = set()
    tried: list[tuple[int, ...]] = []
    accepted: list[tuple[list[int], tuple[int, ...]]] = []
    for d in (1, 2, 3):
        if d > nd:
            break
        # a cubic child's deficit is need + 3 - 2d: one test per d
        if cubic and not _feasible(need + 3 - 2 * d, slots_left, 3):
            continue
        for combo in combinations(deficient, d):
            if autos is None:
                tried.append(combo)
            else:
                key = frozenset(combo)
                if key in seen:
                    continue
                _close_orbit(key, autos, seen)
            cdegs = degs + [d]
            for v in combo:
                cdegs[v] += 1
            low = min(cdegs)
            if min_final_deg - low > slots_left or not cubic and not \
                    _feasible(sum(min_final_deg - x for x in cdegs
                                  if x < min_final_deg), slots_left, 2):
                continue
            # canonical pick: lexicographically minimal (invariant seed,
            # refined colour, canonical position) among deletable vertices;
            # accept iff the new vertex k is in the pick's orbit.  k is
            # always deletable and so is every free vertex, so one of lower
            # degree, then one of lower seed, rejects k before the cut mask
            # is built.  Orbits never cross invariant classes, so the cheap
            # layers decide most candidates without the labeling.
            if low < d and any(cdegs[v] < d for v in free):
                continue
            if cubic and slots_left:
                # the child's counts: a parent cut vertex may stop cutting
                # once a non-pendant k joins its blocks, but stays in
                # ``other2``, the conservative side
                lv, f2, o2 = leaves, free2, other2
                for v in combo:
                    x = degs[v]
                    if x == 1:
                        lv -= 1
                        if d == 1:
                            o2 += 1
                        else:
                            f2 += 1
                    elif x == 2:
                        if cuts >> v & 1:
                            o2 -= 1
                        else:
                            f2 -= 1
                    else:
                        # the root's vertex
                        lv += 1
                if d == 1:
                    lv += 1
                elif d == 2:
                    f2 += 1
                if not _live(lv, f2, o2, slots_left):
                    continue
            cseeds = _child_seeds(g, seeds, combo)
            seed = cseeds[k]
            if any(cseeds[v] < seed for v in free):
                continue
            cadj = list(g.adj) + [0]
            for v in combo:
                cadj[v] |= 1 << k
                cadj[k] |= 1 << v
            child = Graph(k + 1, tuple(cadj))
            if forced:
                # the child's _grow first tests its one child's seed
                # against the child's non-cut vertices, which include k and
                # the free vertices (a pendant k cannot reach degree 3):
                # failing here, the child would emit nothing
                last = tuple(v for v, x in enumerate(cdegs) if x < 3)
                fseeds = _child_seeds(child, cseeds, last)
                fseed = fseeds[k + 1]
                if fseeds[k] < fseed or any(fseeds[v] < fseed for v in free):
                    continue
            ccuts, dels = _deletable(child, cuts, combo)
            if any(cseeds[v] < seed for v in dels):
                continue
            cnbrs = _child_nbrs(nbrs, combo, k)
            mins0 = [v for v in dels if cseeds[v] == seed]
            ccolors = cdata = None
            if len(mins0) > 1:
                ccolors = _seeded_colors(child, cseeds, cnbrs)
                minc = min(ccolors[v] for v in mins0)
                if ccolors[k] != minc:
                    continue
                mins = [v for v in mins0 if ccolors[v] == minc]
                if len(mins) > 1:
                    cdata = canonical_data(child, ccolors)
                    position = {v: i for i, v in enumerate(cdata.labeling)}
                    pick = min(mins, key=position.__getitem__)
                    if cdata.orbit[pick] != cdata.orbit[k]:
                        continue
            if autos is None:
                # an image of an accepted set has its seeds, then its
                # colours; only a tie on both needs the generators
                skey = sorted([seeds[v] for v in combo])
                twins = [c for s, c in accepted if s == skey]
                if twins:
                    if colors is None:
                        colors = _seeded_colors(g, seeds, nbrs)
                    ckey = sorted([colors[v] for v in combo])
                    if any(sorted([colors[v] for v in c]) == ckey
                           for c in twins):
                        if data is None:
                            data = canonical_data(g, colors)
                        autos = data.automorphisms
                        for done in tried[:-1]:
                            key = frozenset(done)
                            if key not in seen:
                                _close_orbit(key, autos, seen)
                        key = frozenset(combo)
                        if key in seen:
                            continue
                        _close_orbit(key, autos, seen)
                accepted.append((skey, combo))
            _grow(child, cnbrs, ccuts, cseeds, ccolors, cdata, n,
                  min_final_deg, emit)


def _child_nbrs(nbrs: list[tuple[int, ...]], combo: tuple[int, ...],
                k: int) -> list[tuple[int, ...]]:
    out = [
        nb + (k,) if v in combo else nb
        for v, nb in enumerate(nbrs)
    ]
    out.append(tuple(combo))
    return out


def _grow_from_root(n: int, min_final_deg: int, emit: Sink) -> None:
    root = Graph.from_edges(1, [])
    _grow(root, [()], 0, _pair_seeds(root), None, None, n, min_final_deg,
          emit)


def generate_cubic(n: int, min_conn: int = 1, sink: Sink | None = None) -> int:
    """Emit one representative per isomorphism class of connected cubic
    graphs on ``n`` vertices with vertex connectivity >= ``min_conn``.
    Returns the number emitted; odd ``n`` yields zero by parity."""
    if not (4 <= n <= GENERATOR_MAX_CUBIC):
        raise GraphError(
            f"in-repo cubic generation supports 4 <= n <= {GENERATOR_MAX_CUBIC}")
    if min_conn not in (1, 2, 3):
        raise GraphError("min_conn must be 1, 2 or 3")
    if n % 2:
        return 0
    count = 0

    def emit(g: Graph) -> None:
        nonlocal count
        if min_conn > 1 and vertex_connectivity_capped(g, min_conn) < min_conn:
            return
        count += 1
        if sink is not None:
            sink(g)

    _grow_from_root(n, 3, emit)
    return count


def generate_degree23(n: int, sink: Sink | None = None) -> int:
    """Emit one representative per isomorphism class of connected graphs on
    ``n`` vertices with every degree 2 or 3.  Returns the number emitted."""
    if not (3 <= n <= GENERATOR_MAX_DEG23):
        raise GraphError(
            f"in-repo degree-2/3 generation supports 3 <= n <= {GENERATOR_MAX_DEG23}")
    count = 0

    def emit(g: Graph) -> None:
        nonlocal count
        count += 1
        if sink is not None:
            sink(g)

    _grow_from_root(n, 2, emit)
    return count
