"""Hsu-Lin terminal-quadruple (J-cell) recognition, for the tests.

Every query is a hamiltonian path with a fixed start: a hamiltonian a-b
path of g is a hamiltonian path from a in g plus a pendant vertex at b,
which must end at the pendant, with the pendant dropped.
"""

from cubicml.graph import Graph, GraphError, induced_subgraph
from cubicml.hamsearch import has_ham_path_from


def with_vertex(g: Graph, *nbrs: int) -> Graph:
    """``g`` plus a new vertex ``g.n`` adjacent to exactly ``nbrs``."""
    x = 1 << g.n
    adj = list(g.adj)
    for v in nbrs:
        adj[v] |= x
    adj.append(sum(1 << v for v in nbrs))
    return Graph(g.n + 1, tuple(adj))


def ham_path_between(g: Graph, a: int, b: int) -> tuple[int, ...] | None:
    """A hamiltonian path of ``g`` from ``a`` to ``b``, or None."""
    r = has_ham_path_from(with_vertex(g, b), a)
    if not r.is_yes:
        return None
    assert r.witness[-2:] == (b, g.n)
    return r.witness[:-1]


def two_path_pairing(g: Graph, a: int, b: int, c: int, d: int) -> str | None:
    """Which pair of disjoint paths covers V(g): "ab|cd" (an a-b and a c-d
    path), "ac|bd", or None for neither.

    Both are decided as one hamiltonian a-d path in g plus a connector
    vertex x adjacent to exactly b and c.  Such a path passes through x,
    which has degree 2, as b-x-c or c-x-b; cutting it at x leaves a-..-b
    and c-..-d, or a-..-c and b-..-d.  Conversely either pair of paths
    joins up through x.  The vertex next to x on the way from a names the
    pair found.
    """
    w = ham_path_between(with_vertex(g, b, c), a, d)
    if w is None:
        return None
    return "ab|cd" if w[w.index(g.n) - 1] == b else "ac|bd"


def _good(g: Graph, a: int | None, b: int | None, c: int | None,
          d: int | None) -> bool:
    """Whether one of (a,b), (c,d), (a,c), (b,d) is joined by a
    hamiltonian path of ``g`` or a pairing of them covers V(g).  A
    terminal given as None was deleted; pairs that need it are skipped."""
    if any(None not in (s, t) and ham_path_between(g, s, t) is not None
           for s, t in ((a, b), (c, d), (a, c), (b, d))):
        return True
    return None not in (a, b, c, d) and two_path_pairing(g, a, b, c, d) is not None


def is_jcell(h: Graph, a: int, b: int, c: int, d: int) -> int:
    """The first J-cell condition that (a, b, c, d) fails in h; 0 when all
    three hold.

    Condition 1: (a,d) and (b,c) joined by hamiltonian paths.
    Condition 2: none of (a,b),(c,d),(a,c),(b,d) is joined by a
    hamiltonian path, and V(H) is not covered by two disjoint paths with
    end pairs ((a,b),(c,d)) or ((a,c),(b,d)).
    Condition 3: after deleting any single vertex, one of the condition-2
    pairs becomes good; pairs that lost an endpoint to the deletion are
    skipped.

    Condition 3 asks the two-path pairing of H - v for each non-terminal
    v, because the definition does.  No known input makes that query
    decide: on every J-cell tested so far some single pair of H - v is
    already good, and no proof that this always holds is known.
    """
    if len({a, b, c, d}) != 4:
        raise GraphError("J-cell terminals must be distinct")
    if ham_path_between(h, a, d) is None or ham_path_between(h, b, c) is None:
        return 1
    if _good(h, a, b, c, d):
        return 2
    for v in range(h.n):
        sub, mapping = induced_subgraph(h, [u for u in range(h.n) if u != v])
        back = {orig: i for i, orig in enumerate(mapping)}
        if not _good(sub, *(back.get(t) for t in (a, b, c, d))):
            return 3
    return 0
