"""Graph isomorphism, canonical forms, and automorphism orbits.

Everything here targets small graphs (at most a few dozen vertices):
iterated degree/neighbourhood colour refinement, pairwise invariant
screens, and an individualise-refine canonical form whose search also
yields generators of the automorphism group, which in turn prune the
search.  No canonical-form cache is kept; callers hash the returned bytes
if they need one.

The labeling also runs as a generator, ``canonical_steps``, which yields
after each colour refinement; ``canonical_data`` drains it.  The
hamiltonian path search advances it in step with its own nodes and uses
the orbits only once it has finished (see ``hamsearch``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generator, Iterator

from .graph import Graph, bits


def color_refine(g: Graph, colors: tuple[int, ...] | None = None,
                 nbrs: list[tuple[int, ...]] | None = None) -> tuple[int, ...]:
    """Stable colouring from iterated neighbour-colour refinement.

    Colour ids are normalised by sorted signature, so they are invariant
    under vertex relabelling; refined ids also stay ordered consistently
    with the ids they split (a signature leads with the previous colour).
    ``nbrs`` lets hot callers reuse precomputed neighbour lists.
    """
    n = g.n
    if nbrs is None:
        nbrs = [tuple(bits(a)) for a in g.adj]
    cur = colors if colors is not None else tuple(len(nb) for nb in nbrs)
    ncls = len(set(cur))
    rng = range(n)
    while True:
        sigs = [
            (cur[v], *sorted([cur[w] for w in nbrs[v]]))
            for v in rng
        ]
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


def seed_places(n: int, max_degree: int) -> list[int]:
    """Place values in ``pair_seeds`` of a graph on ``n`` vertices with
    that maximum degree: the degree's, then each pair code's digit.

    The base is 2 ** max(5, n.bit_length()), so every graph below 32
    vertices shares one base, and the codes run to
    2 * max(3, max_degree) + 1, so every seed of a graph has one width.
    """
    base = 1 << max(5, n.bit_length())
    width = 2 * max(3, max_degree) + 2
    return [base ** (width - i) for i in range(width + 1)]


def pair_seeds(g: Graph) -> list[int]:
    """Per-vertex invariant: the degree, then the number of other vertices
    with each pair code 2 * (common neighbours) + (adjacent), as one int.

    Read in base B (``seed_places``), a seed's digits are the degree,
    then B - 1 - count for each code in order.  A count is at most
    n - 1 < B, so each digit lies in [0, B) and integer order is the
    lexicographic order of the digits: by degree, then, at the first code
    whose counts differ, the vertex with more of that code is smaller.
    That is the order of the degree followed by the sorted codes against
    every other vertex: of two sorted lists of one length, the one holding
    more of the first code where they differ is smaller.  With every count
    0 the code digits sum to B ** width - 1, so a seed is
    (degree + 1) * B ** width - 1, less each count times its code's place.
    Subsumes triangle and 4-cycle statistics, so it separates vertices of
    regular graphs that plain degree refinement leaves untouched."""
    adj = g.adj
    n = g.n
    if not n:
        return []
    degs = [a.bit_count() for a in adj]
    top, *places = seed_places(n, max(degs))
    seeds = [(d + 1) * top - 1 for d in degs]
    for u in range(n):
        au = adj[u]
        for v in range(u + 1, n):
            p = places[(au & adj[v]).bit_count() << 1 | (au >> v & 1)]
            seeds[u] -= p
            seeds[v] -= p
    return seeds


def seeded_colors(g: Graph, seeds: list[int],
                  nbrs: list[tuple[int, ...]] | None = None) -> tuple[int, ...]:
    """Refined colouring with an invariant seed partition."""
    order = {s: i for i, s in enumerate(sorted(set(seeds)))}
    return color_refine(g, tuple(order[s] for s in seeds), nbrs)


def are_isomorphic(g1: Graph, g2: Graph) -> bool:
    """Exact isomorphism test: invariant screens, then canonical forms.

    The screens (degree sequences, pairwise-profile invariants, refined
    colour multisets) settle most non-isomorphic pairs; ties are decided
    by comparing canonical forms, which stays fast on regular graphs
    where the pure backtracking matcher degenerates.
    """
    if g1.n != g2.n or g1.edge_count != g2.edge_count:
        return False
    s1, s2 = pair_seeds(g1), pair_seeds(g2)
    if sorted(s1) != sorted(s2):
        return False
    # identical seed multisets make the per-graph colour normalisations
    # comparable across the two graphs
    if sorted(seeded_colors(g1, s1)) != sorted(seeded_colors(g2, s2)):
        return False
    return canonical_form(g1) == canonical_form(g2)


@dataclass(frozen=True)
class CanonicalData:
    form: bytes
    labeling: tuple[int, ...]  # labeling[position] = original vertex
    # generators of the group and the identity, as images per vertex
    automorphisms: tuple[tuple[int, ...], ...]
    orbit: tuple[int, ...]  # orbit[v] = smallest vertex in v's orbit


def _leaf_form(g: Graph, lab: list[int]) -> bytes:
    pos = [0] * g.n
    for i, v in enumerate(lab):
        pos[v] = i
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


def canonical_data(g: Graph,
                   initial_colors: tuple[int, ...] | None = None) -> CanonicalData:
    """``canonical_steps`` run to the end."""
    steps = canonical_steps(g, initial_colors)
    while True:
        try:
            next(steps)
        except StopIteration as stop:
            return stop.value


def canonical_steps(g: Graph, initial_colors: tuple[int, ...] | None = None
                    ) -> Generator[int, None, CanonicalData]:
    """Canonical form by individualise-refine, pruned by automorphisms.

    A generator that yields ``g.n``, its unit of work, after each colour
    refinement and returns the ``CanonicalData``, so a caller can spread
    the labeling over its own work and stop it at any point.

    The form is the largest leaf form, and the labeling the first leaf in
    depth-first order that attains it.  A leaf whose form equals the first
    leaf's gives an automorphism, kept as a generator.  Two prunings skip
    only subtrees that are automorphic images of subtrees explored before
    them, so the first maximal leaf is always visited:

    - a child in the same orbit as an explored sibling, under the
      generators that fix the node's prefix pointwise, is skipped;
    - after an automorphism is found, the search goes back to the node of
      the first path where the leaf's path left it: the rest of that
      child's subtree is the image of the first child's (McKay 1981).

    Every node of the first path so reaches the orbit of its first child
    under the stabiliser of its prefix, so the generators generate the full
    group and the orbit partition is exact.

    ``initial_colors`` may carry any isomorphism-invariant vertex colouring
    (it must be computed from the graph alone); the colour-respecting
    automorphisms are then still the full group, and the returned form is
    canonical for graphs sharing that colouring scheme.
    """
    n = g.n
    if n == 0:
        return CanonicalData(b"", (), ((),), ())
    nbrs = [tuple(bits(a)) for a in g.adj]
    mark = n  # colour id outside the normalised 0..ncls-1 range
    first_form: bytes | None = None
    first_lab: list[int] = []
    first_path: list[int] = []
    best_form: bytes | None = None
    best_lab: list[int] = []
    gens: list[tuple[int, ...]] = []
    # stack[i] is the open node whose prefix is path[:i]: its colours, an
    # iterator over its target cell, and its explored children
    stack: list[tuple[tuple[int, ...], Iterator[int], list[int]]] = []
    path: list[int] = []
    colors = initial_colors
    while True:
        colors = color_refine(g, colors, nbrs)
        yield n
        cells = _cells(colors)
        target = next((cells[c] for c in sorted(cells) if len(cells[c]) > 1),
                      None)
        if target is not None:
            stack.append((colors, iter(target), []))
        else:
            lab = sorted(range(n), key=colors.__getitem__)
            form = _leaf_form(g, lab)
            if first_form is None:
                first_form, first_lab, first_path = form, lab, path[:]
            elif form == first_form:
                perm = [0] * n
                for a, b in zip(first_lab, lab):
                    perm[a] = b
                gens.append(tuple(perm))
                # back to the first-path node this path left
                d = 0
                while path[d] == first_path[d]:
                    d += 1
                del stack[d + 1:]
                del path[d + 1:]
            if best_form is None or form > best_form:
                best_form, best_lab = form, lab
            del path[-1:]
        # next child of the deepest open node that is in no explored
        # sibling's orbit under the generators fixing the node's prefix
        while stack:
            colors, todo, explored = stack[-1]
            roots = None
            for v in todo:
                if explored:
                    if roots is None:
                        roots = _orbits([p for p in gens
                                         if all(p[x] == x for x in path)], n)
                    if any(roots[v] == roots[x] for x in explored):
                        continue
                break
            else:
                stack.pop()
                del path[-1:]
                continue
            explored.append(v)
            path.append(v)
            colors = tuple(mark if u == v else c for u, c in enumerate(colors))
            break
        if not stack:
            break
    gens.append(tuple(range(n)))
    assert best_form is not None
    return CanonicalData(best_form, tuple(best_lab), tuple(gens),
                         _orbits(gens, n))


def _orbits(perms: list[tuple[int, ...]], n: int) -> tuple[int, ...]:
    """orbit[v] = smallest vertex in v's orbit under the group that
    ``perms`` generate (union-find over the generators)."""
    orbit = list(range(n))

    def find(v: int) -> int:
        while orbit[v] != v:
            orbit[v] = orbit[orbit[v]]
            v = orbit[v]
        return v

    for perm in perms:
        for v, w in enumerate(perm):
            rv, rw = find(v), find(w)
            if rv != rw:
                if rv > rw:
                    rv, rw = rw, rv
                orbit[rw] = rv
    return tuple(find(v) for v in range(n))


def canonical_form(g: Graph) -> bytes:
    return canonical_data(g).form
