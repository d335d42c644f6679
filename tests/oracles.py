"""Oracles that only the tests use.

They answer the same questions as code in ``cubicml`` by independent
means, so a test can check one against the other.
"""

from __future__ import annotations

from cubicml.graph import Graph, bits
from cubicml.isomorphism import color_refine


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
