"""Graph isomorphism, canonical forms, and automorphism orbits.

Everything here targets small graphs (at most a few dozen vertices):
iterated degree/neighbourhood colour refinement, pairwise invariant
screens, and an individualise-refine canonical form whose search also
yields generators of the automorphism group, which in turn prune the
search.  No canonical-form cache is kept; callers hash the returned bytes
if they need one.

Refinement is cell-local (McKay & Piperno 2014; Berkholz, Bonsma & Grohe
2013): after a round, only a cell with a vertex next to a cell that split
can split in the next one, so only those cells are signed again.  Two
vertices of any other cell had equal neighbour-colour multisets, and
their neighbours' cells were only renumbered, in order, so the multisets
stay equal.  The colour ids are those of a global round that sorts every
vertex's (colour, sorted neighbour colours): such a sort orders the cells
by their old id and splits each by its sorted neighbour colours.

The labeling also runs as a generator, ``canonical_steps``, which yields
after each colour refinement; ``canonical_data`` drains it.  The
hamiltonian path search advances it in step with its own nodes, uses
the orbits only once it has finished, and returns the finished
``CanonicalData`` with its answer (see ``hamsearch``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generator, Iterable, Iterator, Sequence

from .graph import Graph, bits


def _partition(colors: Sequence[int] | None, nbrs: list[tuple[int, ...]]
               ) -> tuple[list[int], list[list[int]]]:
    """``colors``, or else the degrees, renumbered 0..k-1 in sorted order,
    and the cells by id, each in increasing vertex order."""
    if colors is None:
        colors = [len(nb) for nb in nbrs]
    order = {c: i for i, c in enumerate(sorted(set(colors)))}
    col = [order[c] for c in colors]
    cells: list[list[int]] = [[] for _ in order]
    for v, c in enumerate(col):
        cells[c].append(v)
    return col, cells


def _refine(nbrs: list[tuple[int, ...]], col: list[int],
            cells: list[list[int]], dirty: Iterable[int]) -> None:
    """Refine ``col`` and ``cells`` in place to the stable colouring:
    sign the ``dirty`` cells, then in each further round only the cells
    with a vertex next to a cell that split in the round before.

    The vertices of each cell outside ``dirty`` must have equal multisets
    of neighbour colours.  Such a cell cannot split while no cell next to
    it splits: renumbering maps the unsplit cells onto their new ids by a
    monotone bijection, so equal multisets stay equal.  The parts of a
    split cell are numbered in order of their sorted neighbour colours,
    the cells in order of their old ids, which is the order a global
    round's sorted signatures (old colour first) give.
    """
    while True:
        splits: dict[int, list[list[int]]] = {}
        for c in dirty:
            cell = cells[c]
            if len(cell) < 2:
                continue
            parts: dict[tuple[int, ...], list[int]] = {}
            for v in cell:
                key = tuple(sorted([col[w] for w in nbrs[v]]))
                parts.setdefault(key, []).append(v)
            if len(parts) > 1:
                splits[c] = [parts[k] for k in sorted(parts)]
        if not splits:
            return
        first = min(splits)
        cells[first:] = [part for c, cell in enumerate(cells[first:], first)
                         for part in splits.get(c, (cell,))]
        for c in range(first, len(cells)):
            for v in cells[c]:
                col[v] = c
        dirty = {col[w] for parts in splits.values() for part in parts
                 for v in part for w in nbrs[v]}


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


def seeded_colors(g: Graph, seeds: Sequence[int],
                  nbrs: list[tuple[int, ...]] | None = None) -> tuple[int, ...]:
    """Stable colouring from iterated neighbour-colour refinement of the
    invariant partition ``seeds``, which may hold any ints.

    Colour ids are normalised by sorted signature (colour, sorted
    neighbour colours), so they are invariant under vertex relabelling;
    refined ids also stay ordered consistently with the ids they split (a
    signature leads with the previous colour).  So two vertices of equal
    seed whose sorted lists of neighbour seeds differ get colours in the
    order of those lists: the first round splits them so, and later
    rounds keep the order of the cells they split.  ``nbrs`` lets hot
    callers reuse precomputed neighbour lists.

    The first round signs every vertex; later rounds sign only the cells
    with a vertex next to a cell that split in the round before (see
    ``_refine``: no other cell can split, and the ids are the same as if
    every vertex were signed and sorted each round).
    """
    if nbrs is None:
        nbrs = [tuple(bits(a)) for a in g.adj]
    col, cells = _partition(seeds, nbrs)
    _refine(nbrs, col, cells, range(len(cells)))
    return tuple(col)


def are_isomorphic(g1: Graph, g2: Graph) -> bool:
    """Exact isomorphism test by canonical forms."""
    return g1.n == g2.n and canonical_form(g1) == canonical_form(g2)


@dataclass(frozen=True)
class CanonicalData:
    form: bytes
    labeling: tuple[int, ...]  # labeling[position] = original vertex
    # generators of the group and the identity, as images per vertex
    automorphisms: tuple[tuple[int, ...], ...]
    orbit: tuple[int, ...]  # orbit[v] = smallest vertex in v's orbit


def _leaf_form(nbrs: list[tuple[int, ...]], pos: list[int]) -> bytes:
    """Lower triangle, most significant bit first, of the graph ``nbrs``
    with vertex v at position ``pos[v]``: pair j < i is bit i(i - 1)/2 + j."""
    n = len(pos)
    out = bytearray((n * (n - 1) // 2 + 7) >> 3)
    for u, i in enumerate(pos):
        row = i * (i - 1) >> 1
        for w in nbrs[u]:
            j = pos[w]
            if j < i:
                k = row + j
                out[k >> 3] |= 128 >> (k & 7)
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

    A generator that yields ``g.n`` after each colour refinement and
    returns the ``CanonicalData``, so a caller can spread the labeling
    over its own work and stop it at any point.  ``g.n`` bounds the
    vertices each round of the step's refinement signs, not the step: the
    root's first round signs all of them, every later round and every
    round of a child's refinement only the cells next to a split, and a
    step may take many rounds.

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
    first_form: bytes | None = None
    first_lab: list[int] = []
    first_path: list[int] = []
    best_form: bytes | None = None
    best_lab: list[int] = []
    gens: list[tuple[int, ...]] = []
    # stack[i] is the open node whose prefix is path[:i]: its colours and
    # cells, an iterator over its target cell, and its explored children
    stack: list[tuple[list[int], list[list[int]], Iterator[int],
                      list[int]]] = []
    path: list[int] = []
    col, cells = _partition(initial_colors, nbrs)
    dirty: Iterable[int] = range(len(cells))
    while True:
        _refine(nbrs, col, cells, dirty)
        yield n
        target = next((cell for cell in cells if len(cell) > 1), None)
        if target is not None:
            stack.append((col, cells, iter(target), []))
        else:
            lab = [cell[0] for cell in cells]
            form = _leaf_form(nbrs, col)  # col[v] is v's position
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
            col, cells, todo, explored = stack[-1]
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
            # v alone in a new last cell: the cell a colour above every
            # id would sort into
            c = col[v]
            col = col[:]
            cells = cells[:]
            cells[c] = [u for u in cells[c] if u != v]
            col[v] = len(cells)
            cells.append([v])
            dirty = {col[w] for w in nbrs[v]}
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
