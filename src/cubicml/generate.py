"""Isomorph-free exhaustive generation of small cubic and {2,3}-degree graphs.

Canonical augmentation: graphs grow one vertex at a time, the new vertex
attaching to one, two or three older vertices of degree below 3, so every
intermediate state is a connected graph with maximum degree at most 3.  A
child survives exactly when its newest vertex lies in the automorphism
orbit of a canonically chosen deletable vertex, which guarantees that each
isomorphism class of states is reached through exactly one parent and one
attachment orbit — no global seen-set is needed.

The canonical choice is: among the vertices whose removal keeps the graph
connected, minimise first an invariant colour (refined degrees seeded with
triangle counts and distance profiles, which discriminates even on regular
graphs), then the position in a canonical labeling.  Colour comparisons
settle most candidates without computing the labeling at all.

Intended scale: cubic up to n = 20, degree-{2,3} up to n = 13.
"""

from __future__ import annotations

from itertools import combinations
from typing import Callable

from .graph import Graph, GraphError, cut_vertices, vertex_connectivity_capped
from .isomorphism import canonical_data, pair_seeds as _pair_seeds, \
    seeded_colors as _seeded_colors

Sink = Callable[[Graph], None]

GENERATOR_MAX_CUBIC = 20
GENERATOR_MAX_DEG23 = 13


def _deletable(g: Graph) -> list[int]:
    """Vertices whose removal keeps the graph connected (non-cut vertices)."""
    cuts = cut_vertices(g.adj, g.full_mask())
    return [v for v in range(g.n) if not cuts >> v & 1]


def _feasible(degs: tuple[int, ...], slots: int, min_final_deg: int) -> bool:
    """Can the remaining ``slots`` vertices complete the degree targets?

    Every existing vertex must end with degree between ``min_final_deg``
    and 3, and can gain at most one edge per future vertex.
    """
    need = sum(max(0, min_final_deg - d) for d in degs)
    if need > 3 * slots:
        return False
    if any(min_final_deg - d > slots for d in degs):
        return False
    if min_final_deg == 3:
        # net deficit change per added vertex is odd (3 - 2d), so the total
        # deficit and the number of remaining vertices share parity
        deficit = sum(3 - d for d in degs)
        if (deficit - slots) % 2:
            return False
    return True


def _grow(g: Graph, nbrs: list[tuple[int, ...]], n: int, min_final_deg: int,
          emit: Sink, gdata=None) -> None:
    degs = tuple(len(nb) for nb in nbrs)
    k = g.n
    if k == n:
        if all(d >= min_final_deg for d in degs):
            emit(g)
        return
    if not _feasible(degs, n - k, min_final_deg):
        return
    deficient = [v for v in range(k) if degs[v] < 3]
    # attachment sets are deduplicated up to Aut(g); pairwise-distinct
    # invariants certify a trivial group, skipping the canonical labeling
    gseeds = _pair_seeds(g)
    if len(set(gseeds)) == k or \
            len(set(_seeded_colors(g, gseeds, nbrs))) == k:
        autos: tuple[tuple[int, ...], ...] = ()
    else:
        if gdata is None:
            gdata = canonical_data(g)
        autos = gdata.automorphisms
    seen: set[frozenset[int]] = set()
    slots_left = n - k - 1
    for d in (1, 2, 3):
        if d > len(deficient):
            break
        for combo in combinations(deficient, d):
            key = frozenset(combo)
            if key in seen:
                continue
            if autos:
                seen |= {
                    frozenset(perm[v] for v in combo)
                    for perm in autos
                }
            cdegs = list(degs)
            for v in combo:
                cdegs[v] += 1
            cdegs.append(d)
            if not _feasible(tuple(cdegs), slots_left, min_final_deg):
                continue
            cadj = list(g.adj) + [0]
            for v in combo:
                cadj[v] |= 1 << k
                cadj[k] |= 1 << v
            child = Graph(k + 1, tuple(cadj))
            # canonical pick: lexicographically minimal (invariant seed,
            # refined colour, canonical position) among deletable vertices;
            # accept iff the new vertex k is in the pick's orbit.  Orbits
            # never cross invariant classes, so the cheap layers decide
            # most candidates without the canonical labeling.
            dels = _deletable(child)
            cseeds = _pair_seeds(child)
            minseed = min(cseeds[v] for v in dels)
            if cseeds[k] != minseed:
                continue
            mins0 = [v for v in dels if cseeds[v] == minseed]
            if len(mins0) == 1:
                _grow(child, _child_nbrs(nbrs, combo, k), n,
                      min_final_deg, emit)
                continue
            cnbrs = _child_nbrs(nbrs, combo, k)
            ccolors = _seeded_colors(child, cseeds, cnbrs)
            minc = min(ccolors[v] for v in mins0)
            if ccolors[k] != minc:
                continue
            mins = [v for v in mins0 if ccolors[v] == minc]
            if len(mins) == 1:
                _grow(child, cnbrs, n, min_final_deg, emit)
                continue
            cdata = canonical_data(child, ccolors)
            position = {v: i for i, v in enumerate(cdata.labeling)}
            pick = min(mins, key=lambda v: position[v])
            if cdata.orbit[pick] == cdata.orbit[k]:
                _grow(child, cnbrs, n, min_final_deg, emit, cdata)


def _child_nbrs(nbrs: list[tuple[int, ...]], combo: tuple[int, ...],
                k: int) -> list[tuple[int, ...]]:
    out = [
        nb + (k,) if v in combo else nb
        for v, nb in enumerate(nbrs)
    ]
    out.append(tuple(combo))
    return out


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

    _grow(Graph.from_edges(1, []), [()], n, 3, emit)
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

    _grow(Graph.from_edges(1, []), [()], n, 2, emit)
    return count
